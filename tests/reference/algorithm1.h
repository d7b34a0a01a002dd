// Reference oracle: the paper's Algorithm 1 (§4.2) written out as a plain
// per-seed loop over the by-value model API — Model::Forward and
// Model::BackwardInput, with the joint objective (Equations 2-4) computed
// here rather than through the Objective plug-in it checks — one seed at a
// time, no plans, no batching, no thread pool. Coverage updates read the
// same scalar numerics (testing::OracleTrace).
//
// Session runs the same algorithm on the batched Executor through compiled
// ExecutionPlans (im2col + SIMD GEMM kernels). The two must agree: same
// tests from the same seeds after the same number of iterations, with the
// same per-model predictions, and generated inputs equal within the kernel
// tolerances of tests/test_util.h (the GEMM kernels accumulate in a
// different order than the by-value kernels). tests/core_test.cc holds that
// check.
//
// The oracle follows the engine's documented contracts, not its code:
//   - the seed stream is round-robin, cut into sync batches of
//     `sync_interval` seeds; every task in a batch starts from the coverage
//     state at the batch boundary, and outcomes merge back in schedule order;
//   - task t draws from Rng(TaskRngSeed(rng_seed, t));
//   - a seed with no consensus, or whose budget runs out, yields no test.
#ifndef DX_TESTS_REFERENCE_ALGORITHM1_H_
#define DX_TESTS_REFERENCE_ALGORITHM1_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/core/session.h"
#include "src/coverage/coverage_metric.h"
#include "src/nn/model.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx::reference {

using Metrics = std::vector<std::unique_ptr<CoverageMetric>>;

// The fixed inputs of one Algorithm 1 run (the objective is always the
// paper's joint objective).
struct Setup {
  std::vector<Model*> models;
  const Constraint* constraint = nullptr;
  EngineConfig engine;
  bool regression = false;
};

// Per-model outputs at x: argmax labels, or the scalar output for
// regression.
inline std::vector<int> Labels(const Setup& s, const Tensor& x) {
  std::vector<int> labels;
  for (const Model* m : s.models) {
    labels.push_back(static_cast<int>(testing::OraclePredict(*m, x).Argmax()));
  }
  return labels;
}

inline std::vector<float> Scalars(const Setup& s, const Tensor& x) {
  std::vector<float> outputs;
  for (const Model* m : s.models) {
    outputs.push_back(testing::OraclePredict(*m, x)[0]);
  }
  return outputs;
}

// ∇x obj(x) for deviator j and consensus c (Algorithm 1 lines 8-14). Per
// model k, in this order: Equation 2's term (+F_k(x)[c], or −λ1·F_j(x)[c]
// for k = j; the raw output for regression), then Equation 3's
// λ2 · f_n(x) for one uncovered neuron n nominated by k's metric (skipped,
// without an RNG draw, when λ2 = 0).
inline Tensor ObjectiveGradient(const Setup& s, const Tensor& x, int target, int consensus,
                                Rng& rng, const Metrics& metrics) {
  Tensor grad(x.shape());
  for (size_t k = 0; k < s.models.size(); ++k) {
    const Model& model = *s.models[k];
    const ForwardTrace trace = model.Forward(x);
    const int last = model.num_layers() - 1;
    Tensor seed(trace.Output().shape());
    seed[s.regression ? 0 : consensus] =
        static_cast<int>(k) == target ? -s.engine.lambda1 : 1.0f;
    grad.AddInPlace(model.BackwardInput(trace, last, std::move(seed)));
    NeuronId id;
    if (s.engine.lambda2 != 0.0f && metrics[k]->PickUncovered(rng, &id)) {
      Tensor neuron_seed(trace.outputs[static_cast<size_t>(id.layer)].shape());
      model.layer(id.layer).AddNeuronSeed(&neuron_seed, id.index, s.engine.lambda2);
      grad.AddInPlace(model.BackwardInput(trace, id.layer, std::move(neuron_seed)));
    }
  }
  return grad;
}

// Algorithm 1's inner loop for one seed (lines 3-20). On success the
// test's activations are added to `metrics`.
inline std::optional<GeneratedTest> GenerateFromSeed(const Setup& s, const Tensor& seed,
                                                     int seed_index, uint64_t ordinal,
                                                     Rng& rng, Metrics& metrics) {
  const int num_models = static_cast<int>(s.models.size());
  int consensus = 0;
  if (s.regression) {
    const std::vector<float> outs = Scalars(s, seed);
    const auto [lo, hi] = std::minmax_element(outs.begin(), outs.end());
    if (*hi - *lo > s.engine.steering_eps) {
      return std::nullopt;
    }
  } else {
    const std::vector<int> labels = Labels(s, seed);
    if (std::count(labels.begin(), labels.end(), labels[0]) != num_models) {
      return std::nullopt;
    }
    consensus = labels[0];
  }
  const int target = s.engine.forced_target_model >= 0 &&
                             s.engine.forced_target_model < num_models
                         ? s.engine.forced_target_model
                         : static_cast<int>(rng.UniformInt(0, num_models - 1));

  Tensor x = seed;
  for (int iter = 1; iter <= s.engine.max_iterations_per_seed; ++iter) {
    Tensor grad = ObjectiveGradient(s, x, target, consensus, rng, metrics);
    if (s.engine.normalize_gradient) {
      const float rms =
          grad.L2Norm() / std::sqrt(static_cast<float>(std::max<int64_t>(1, grad.numel())));
      grad.Scale(1.0f / (rms + 1e-5f));
    }
    x.Axpy(s.engine.step, testing::ApplyConstraint(*s.constraint, grad, x, rng));
    s.constraint->ProjectInput(&x);

    GeneratedTest test;
    if (s.regression) {
      // The deviator is the model farthest from the ensemble mean.
      test.outputs = Scalars(s, x);
      const auto [lo, hi] = std::minmax_element(test.outputs.begin(), test.outputs.end());
      if (*hi - *lo <= s.engine.steering_eps) {
        continue;
      }
      double mean = 0.0;
      for (const float v : test.outputs) {
        mean += v;
      }
      mean /= num_models;
      float worst = -1.0f;
      for (int k = 0; k < num_models; ++k) {
        const float dev = std::abs(test.outputs[k] - static_cast<float>(mean));
        if (dev > worst) {
          worst = dev;
          test.deviating_model = k;
        }
      }
    } else {
      // The deviator is the model whose label no other model shares.
      test.labels = Labels(s, x);
      if (std::count(test.labels.begin(), test.labels.end(), test.labels[0]) == num_models) {
        continue;
      }
      for (int k = 0; k < num_models; ++k) {
        if (std::count(test.labels.begin(), test.labels.end(), test.labels[k]) == 1) {
          test.deviating_model = k;
          break;
        }
      }
    }
    for (int k = 0; k < num_models; ++k) {
      const Model& model = *s.models[static_cast<size_t>(k)];
      metrics[static_cast<size_t>(k)]->UpdateBatch(model, testing::OracleTrace(model, x));
    }
    test.input = std::move(x);
    test.seed_index = seed_index;
    test.task_ordinal = ordinal;
    test.iterations = iter;
    return test;
  }
  return std::nullopt;
}

// One round-robin pass of Algorithm 1's outer loop over `seeds` in sync
// batches of `sync_interval`; `metrics` starts empty (or seed-profiled) and
// ends with the campaign's coverage.
inline RunStats Run(const Setup& s, const std::vector<Tensor>& seeds, int sync_interval,
                    Metrics& metrics) {
  RunStats stats;
  for (size_t begin = 0; begin < seeds.size(); begin += static_cast<size_t>(sync_interval)) {
    const size_t end = std::min(seeds.size(), begin + static_cast<size_t>(sync_interval));
    std::vector<std::optional<GeneratedTest>> tests;
    std::vector<Metrics> task_metrics;
    for (size_t t = begin; t < end; ++t) {
      Metrics clones;
      for (const auto& metric : metrics) {
        clones.push_back(metric->Clone());
      }
      Rng rng(TaskRngSeed(s.engine.rng_seed, t));
      tests.push_back(GenerateFromSeed(s, seeds[t], static_cast<int>(t), t, rng, clones));
      task_metrics.push_back(std::move(clones));
    }
    for (size_t i = 0; i < tests.size(); ++i) {
      ++stats.seeds_tried;
      if (!tests[i].has_value()) {
        ++stats.seeds_skipped;
        continue;
      }
      for (size_t k = 0; k < metrics.size(); ++k) {
        metrics[k]->Merge(*task_metrics[i][k]);
      }
      stats.total_iterations += tests[i]->iterations;
      stats.tests.push_back(std::move(*tests[i]));
    }
  }
  double coverage = 0.0;
  for (const auto& metric : metrics) {
    coverage += metric->Coverage();
  }
  stats.mean_coverage = static_cast<float>(coverage / static_cast<double>(metrics.size()));
  return stats;
}

}  // namespace dx::reference

#endif  // DX_TESTS_REFERENCE_ALGORITHM1_H_
