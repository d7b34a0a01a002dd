// Shared test helpers: numerical differentiation for gradient checking, ULP/abs
// float tolerances, the per-sample scalar oracle (single predictions and
// batches), the harness that checks a layer's batch kernels against it, a
// one-input disagreement check through Session::Predict, a by-value wrapper
// around Constraint::ApplyInto, and a byte snapshot of a directory's files.
#ifndef DX_TESTS_TEST_UTIL_H_
#define DX_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/core/objective.h"
#include "src/core/session.h"
#include "src/nn/layer.h"
#include "src/nn/model.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/tensor/workspace.h"
#include "src/util/rng.h"

namespace dx::testing {

// Maps a free-form label (e.g. a DomainSpec display name) to [A-Za-z0-9_],
// as gtest parameterized-test names and golden file names require.
inline std::string SanitizeTestName(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return out;
}

// Central-difference numerical gradient of a scalar function of a tensor.
inline Tensor NumericalGradient(const std::function<double(const Tensor&)>& f, Tensor x,
                                float eps = 1e-3f) {
  Tensor grad(x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float orig = x[i];
    x[i] = orig + eps;
    const double plus = f(x);
    x[i] = orig - eps;
    const double minus = f(x);
    x[i] = orig;
    grad[i] = static_cast<float>((plus - minus) / (2.0 * eps));
  }
  return grad;
}

// Maps a float onto the integers such that adjacent representable floats are
// adjacent integers (negative values below zero, -0 == +0). The difference of
// two keys is the number of representable floats between the values.
inline int64_t UlpKey(float f) {
  int32_t i;
  std::memcpy(&i, &f, sizeof(i));
  return i >= 0 ? int64_t{i} : int64_t{std::numeric_limits<int32_t>::min()} - i;
}

inline int64_t UlpDistance(float a, float b) {
  if (!(std::isfinite(a) && std::isfinite(b))) {
    const bool same = (a == b) || (std::isnan(a) && std::isnan(b));
    return same ? 0 : std::numeric_limits<int64_t>::max();
  }
  const int64_t d = UlpKey(a) - UlpKey(b);
  return d < 0 ? -d : d;
}

// An element passes if it is within max_abs absolutely OR within max_ulp
// representable floats. The ULP bound scales with magnitude (relative error);
// the abs floor absorbs catastrophic ULP counts on near-zero values, where
// the error inherited from upstream accumulation is absolutely tiny.
struct FloatTolerance {
  int64_t max_ulp = 0;
  float max_abs = 0.0f;
};

// Exact comparison expressed in tolerance form ({0 ULP, 0 abs}).
inline constexpr FloatTolerance kExactTolerance{};

// Default bound for comparing the GEMM/SIMD forward kernels (ascending-k FMA
// accumulation) against the per-sample scalar oracle (per-element partial-sum
// order, double accumulation in dense). Reassociation error grows with the
// reduction length; 512 ULP ≈ 3e-5 relative covers the zoo's largest layers
// with ~10x headroom.
inline constexpr FloatTolerance kKernelForwardTolerance{512, 1e-5f};

// Gradients compound the forward divergence through the backward chain (and
// through activation-grad masks computed from slightly different outputs),
// so they get an order of magnitude more headroom.
inline constexpr FloatTolerance kKernelBackwardTolerance{8192, 1e-4f};

// Elementwise near-comparison over raw buffers; reports the worst offender.
inline void ExpectBuffersNear(const float* got, const float* want, int64_t n,
                              const FloatTolerance& tol, const std::string& what) {
  int64_t worst_i = -1;
  int64_t worst_ulp = -1;
  for (int64_t i = 0; i < n; ++i) {
    const float abs = std::abs(got[i] - want[i]);
    if (abs <= tol.max_abs) {
      continue;
    }
    const int64_t ulp = UlpDistance(got[i], want[i]);
    if (ulp <= tol.max_ulp) {
      continue;
    }
    if (ulp > worst_ulp) {
      worst_ulp = ulp;
      worst_i = i;
    }
  }
  EXPECT_EQ(worst_i, -1) << what << ": element " << worst_i << " got "
                         << (worst_i >= 0 ? got[worst_i] : 0.0f) << " want "
                         << (worst_i >= 0 ? want[worst_i] : 0.0f) << " ("
                         << worst_ulp << " ULP, tolerance " << tol.max_ulp
                         << " ULP / " << tol.max_abs << " abs)";
}

inline void ExpectTensorsNear(const Tensor& got, const Tensor& want,
                              const FloatTolerance& tol, const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  ExpectBuffersNear(got.data(), want.data(), want.numel(), tol, what);
}

// Max absolute elementwise difference, normalized by max(1, |a|, |b|).
inline float MaxRelError(const Tensor& a, const Tensor& b) {
  float worst = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float denom = std::max({1.0f, std::abs(a[i]), std::abs(b[i])});
    worst = std::max(worst, std::abs(a[i] - b[i]) / denom);
  }
  return worst;
}

// q-quantile (0 < q <= 1) of the normalized elementwise errors. Central
// differences step across ReLU kinks for a few elements of kink-dense
// networks (stacked ReLUs); the quantile ignores that handful while still
// catching systematic gradient bugs.
inline float RelErrorQuantile(const Tensor& a, const Tensor& b, float q) {
  std::vector<float> errors(static_cast<size_t>(a.numel()));
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float denom = std::max({1.0f, std::abs(a[i]), std::abs(b[i])});
    errors[static_cast<size_t>(i)] = std::abs(a[i] - b[i]) / denom;
  }
  std::sort(errors.begin(), errors.end());
  const size_t index = std::min(errors.size() - 1,
                                static_cast<size_t>(q * static_cast<float>(errors.size())));
  return errors[index];
}

// ---- Per-sample oracle ------------------------------------------------------------------
//
// The scalar Layer::Forward / Backward pair is the reference every batch
// kernel is judged against. OraclePredict runs it over one input; the other
// helpers run it over a [batch, ...] slab one sample at a time and stack the
// results. Production code predicts on compiled plans (Session::Predict);
// only tests call the oracle for predictions.

// The scalar oracle's final output for one input (Model::Forward): argmax
// it for a classifier's label, index 0 for a regressor's output.
inline Tensor OraclePredict(const Model& model, const Tensor& x) {
  return model.Forward(x).Output();
}

// Layer::Forward on each sample of `input`, stacked; `*aux` receives the
// stacked aux state (left untouched when the layer records none).
inline Tensor OracleForward(const Layer& layer, const Tensor& input, int batch, Tensor* aux) {
  Tensor out;
  for (int b = 0; b < batch; ++b) {
    Tensor sample_aux;
    const Tensor sample_out = layer.Forward(SliceSample(input, b), false, nullptr, &sample_aux);
    if (b == 0) {
      out = Tensor(BatchedShape(batch, sample_out.shape()));
      if (!sample_aux.empty()) {
        *aux = Tensor(BatchedShape(batch, sample_aux.shape()));
      }
    }
    CopySampleInto(&out, b, sample_out);
    if (!sample_aux.empty()) {
      CopySampleInto(aux, b, sample_aux);
    }
  }
  return out;
}

// Layer::Backward on each sample, stacked; parameter gradients (when
// requested) accumulate in batch order.
inline Tensor OracleBackward(const Layer& layer, const Tensor& input, const Tensor& output,
                             const Tensor& grad_output, const Tensor& aux, int batch,
                             std::vector<Tensor>* param_grads) {
  Tensor grad_in(input.shape());
  for (int b = 0; b < batch; ++b) {
    const Tensor aux_b = aux.empty() ? Tensor() : SliceSample(aux, b);
    CopySampleInto(&grad_in, b,
                   layer.Backward(SliceSample(input, b), SliceSample(output, b),
                                  SliceSample(grad_output, b), aux_b, param_grads));
  }
  return grad_in;
}

// Model-level oracle: the per-sample forward of every layer over
// `input` ([B, ...input_shape]), recorded as a BatchTrace.
inline BatchTrace OracleForwardBatch(const Model& model, const Tensor& input) {
  BatchTrace trace;
  trace.batch = input.dim(0);
  trace.input = input;
  trace.aux.resize(static_cast<size_t>(model.num_layers()));
  const Tensor* cur = &trace.input;
  for (int l = 0; l < model.num_layers(); ++l) {
    trace.outputs.push_back(
        OracleForward(model.layer(l), *cur, trace.batch, &trace.aux[static_cast<size_t>(l)]));
    cur = &trace.outputs.back();
  }
  return trace;
}

// The oracle forward of one sample `x` as a width-1 BatchTrace: the same
// scalar numerics as Model::Forward, in the trace format
// CoverageMetric::UpdateBatch and ProfileSeed read.
inline BatchTrace OracleTrace(const Model& model, const Tensor& x) {
  return OracleForwardBatch(model, x.Reshape(BatchedShape(1, x.shape())));
}

// d(seed·out_from)/d(input) per sample of `trace`, stacked; `seed` is
// [B, ...layer_output_shape].
inline Tensor OracleBackwardBatch(const Model& model, const BatchTrace& trace, int from_layer,
                                  Tensor seed) {
  for (int l = from_layer; l >= 0; --l) {
    seed = OracleBackward(model.layer(l), trace.LayerInput(l),
                          trace.outputs[static_cast<size_t>(l)], seed,
                          trace.aux[static_cast<size_t>(l)], trace.batch, nullptr);
  }
  return seed;
}

// Does the session's oracle call `x` a difference-inducing input? One
// Session::Predict (plan kernels) judged by ModelsDisagree.
inline bool Disagrees(const Session& session, const Tensor& x) {
  return ModelsDisagree(session.Predict({&x})[0], session.config().engine.steering_eps);
}

// Constraint::ApplyInto into a fresh direction shaped like `grad`.
inline Tensor ApplyConstraint(const Constraint& constraint, const Tensor& grad,
                              const Tensor& x, Rng& rng) {
  Tensor direction(grad.shape());
  constraint.ApplyInto(grad, x, rng, &direction);
  return direction;
}

// One seed's share of the executor's gradient half for model `k`:
// Objective::Plan, then each planned term's BackwardRows on `plan`, whose
// current trace is that seed at width 1, added into `grad` in term order.
// Returns the number of terms planned.
inline size_t AddObjectiveGradient(const Objective& objective, const ObjectiveContext& ctx,
                                   int k, ExecutionPlan& plan, Tensor* grad) {
  std::vector<LayerSeed> terms;
  objective.Plan(ctx, k, plan.model(), &terms, grad);
  for (const LayerSeed& term : terms) {
    const Tensor& row = plan.BackwardRows({term});
    for (int64_t i = 0; i < grad->numel(); ++i) {
      (*grad)[i] += row[i];
    }
  }
  return terms.size();
}

// How closely a layer's batch kernels must track the oracle: exactly,
// except for the GEMM-backed layers (Dense, Conv2D and the Conv2D-composed
// ResidualBlock), whose accumulation order differs.
struct OracleTolerance {
  FloatTolerance forward;
  FloatTolerance backward;
};

inline OracleTolerance OracleToleranceFor(const Layer& layer) {
  const std::string kind = layer.Kind();
  if (kind == "dense" || kind == "conv2d" || kind == "residual") {
    return {kKernelForwardTolerance, kKernelBackwardTolerance};
  }
  return {kExactTolerance, kExactTolerance};
}

// Runs `layer`'s batch kernels over a random batch as one width-`batch`
// call and as `batch` width-1 calls, and checks them against the oracle:
//   * outputs, aux and input gradients of the wide call are bit-identical
//     to the width-1 calls — results never depend on batch width, which is
//     what keeps Session results invariant to batch size and worker count;
//   * outputs and input gradients match the oracle within
//     OracleToleranceFor(layer);
//   * accumulated parameter gradients match both within the backward
//     tolerance (Dense reduces dW over the batch in one GEMM chain).
// Both backward paths are fed the oracle's forward results, isolating the
// backward kernels from forward rounding.
inline void ExpectBatchMatchesScalar(const Layer& layer, const Shape& in_shape, int batch,
                                     uint64_t seed) {
  const OracleTolerance tol = OracleToleranceFor(layer);
  const std::string what = layer.Describe() + " batch " + std::to_string(batch);
  const Shape out_shape = layer.OutputShape(in_shape);
  Rng rng(seed);
  const Tensor input = Tensor::RandUniform(BatchedShape(batch, in_shape), rng, -1.0f, 1.0f);
  const Tensor grad_out =
      Tensor::RandUniform(BatchedShape(batch, out_shape), rng, -1.0f, 1.0f);

  Tensor want_aux;
  const Tensor want_out = OracleForward(layer, input, batch, &want_aux);
  Workspace ws;
  Tensor out(want_out.shape());
  Tensor aux;
  layer.ForwardBatchInto(input, batch, false, nullptr, &out, &aux, &ws);
  ExpectTensorsNear(out, want_out, tol.forward, what + " forward");
  ExpectTensorsNear(aux, want_aux, kExactTolerance, what + " aux");

  std::vector<Tensor> want_pg;
  for (const Tensor* p : layer.Params()) {
    want_pg.emplace_back(p->shape());
  }
  std::vector<Tensor> wide_pg = want_pg;
  std::vector<Tensor> narrow_pg = want_pg;
  const bool params = !want_pg.empty();
  const Tensor want_gin = OracleBackward(layer, input, want_out, grad_out, want_aux, batch,
                                         params ? &want_pg : nullptr);
  Tensor gin(input.shape());
  layer.BackwardBatchInto(input, want_out, grad_out, want_aux, batch, &gin, &ws,
                          params ? &wide_pg : nullptr);
  ExpectTensorsNear(gin, want_gin, tol.backward, what + " backward");

  for (int b = 0; b < batch; ++b) {
    const std::string sample = what + " sample " + std::to_string(b);
    const Tensor x1 = SliceSample(input, b).Reshape(BatchedShape(1, in_shape));
    Workspace ws1;
    Tensor out1(BatchedShape(1, out_shape));
    Tensor aux1;
    layer.ForwardBatchInto(x1, 1, false, nullptr, &out1, &aux1, &ws1);
    EXPECT_EQ(SliceSample(out, b).values(), out1.values()) << sample << " forward";
    if (!aux1.empty()) {
      EXPECT_EQ(SliceSample(aux, b).values(), aux1.values()) << sample << " aux";
    }
    const Tensor y1 = SliceSample(want_out, b).Reshape(out1.shape());
    const Tensor aux_b = want_aux.empty() ? Tensor() : SliceSample(want_aux, b);
    Tensor gin1(x1.shape());
    layer.BackwardBatchInto(x1, y1, SliceSample(grad_out, b), aux_b, 1, &gin1, &ws1,
                            params ? &narrow_pg : nullptr);
    EXPECT_EQ(SliceSample(gin, b).values(), gin1.values()) << sample << " backward";
  }
  for (size_t p = 0; p < want_pg.size(); ++p) {
    ExpectTensorsNear(wide_pg[p], want_pg[p], tol.backward,
                      what + " param grad " + std::to_string(p));
    ExpectTensorsNear(wide_pg[p], narrow_pg[p], tol.backward,
                      what + " param grad " + std::to_string(p) + " vs width 1");
  }
}

// Every file in `dir` by name, with its bytes: comparing two of these shows
// whether anything was written in between.
inline std::map<std::string, std::string> DirectoryBytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

}  // namespace dx::testing

#endif  // DX_TESTS_TEST_UTIL_H_
