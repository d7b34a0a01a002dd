// Numerical gradient check for ExecutionPlan::BackwardInputBatch on conv /
// batch-norm / residual stacks: the batched reverse pass that drives the
// executor's objective gradients must match central differences per sample,
// filling the gap left by tests/zoo_gradient_test.cc (which only covers the
// scalar BackwardInput path). Each stack forwards a whole batch once and
// differentiates a random linear functional of the output; per-sample
// numerical probes then check sampled input coordinates.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/nn/batchnorm.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/execution_plan.h"
#include "src/nn/flatten.h"
#include "src/nn/model.h"
#include "src/nn/pool2d.h"
#include "src/nn/residual.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx {
namespace {

constexpr int kBatch = 5;
constexpr int kChecksPerSample = 16;

Model MakeConvStack(uint64_t seed) {
  Rng rng(seed);
  Model m("conv_stack", {1, 10, 10});
  m.Emplace<Conv2D>(1, 4, 3, 3, 1, 1, Activation::kRelu).InitParams(rng);
  m.Emplace<Pool2D>(PoolMode::kMax, 2);
  m.Emplace<Conv2D>(4, 6, 3, 3, 1, 0, Activation::kTanh).InitParams(rng);
  m.Emplace<Flatten>();
  m.Emplace<Dense>(6 * 3 * 3, 4, Activation::kTanh).InitParams(rng);
  return m;
}

Model MakeBatchNormStack(uint64_t seed) {
  Rng rng(seed);
  Model m("batchnorm_stack", {2, 8, 8});
  m.Emplace<Conv2D>(2, 4, 3, 3, 1, 1, Activation::kNone).InitParams(rng);
  auto& bn = m.Emplace<BatchNorm>(4);
  bn.SetStatistics({0.1f, -0.2f, 0.3f, 0.05f}, {1.0f, 0.5f, 2.0f, 0.25f});
  m.Emplace<Conv2D>(4, 3, 3, 3, 2, 1, Activation::kTanh).InitParams(rng);
  m.Emplace<Flatten>();
  m.Emplace<Dense>(3 * 4 * 4, 3, Activation::kSigmoid).InitParams(rng);
  return m;
}

Model MakeResidualStack(uint64_t seed) {
  Rng rng(seed);
  Model m("residual_stack", {2, 8, 8});
  m.Emplace<Conv2D>(2, 4, 3, 3, 1, 1, Activation::kRelu).InitParams(rng);
  m.Emplace<ResidualBlock>(4, 4).InitParams(rng);
  m.Emplace<ResidualBlock>(4, 8, 2).InitParams(rng);
  m.Emplace<Flatten>();
  m.Emplace<Dense>(8 * 4 * 4, 4, Activation::kTanh).InitParams(rng);
  return m;
}

// Checks d(seed_b . output)/d(input_b) from the plan's BackwardInputBatch against
// central differences on a random subset of input coordinates per sample.
void CheckBatchedInputGradient(const Model& model, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> inputs;
  std::vector<Tensor> grad_seeds;
  std::vector<const Tensor*> input_ptrs;
  std::vector<const Tensor*> seed_ptrs;
  for (int b = 0; b < kBatch; ++b) {
    // Positive-leaning inputs keep ReLU pre-activations mostly off kinks.
    inputs.push_back(Tensor::RandUniform(model.input_shape(), rng, 0.05f, 0.95f));
    grad_seeds.push_back(Tensor::RandUniform(model.output_shape(), rng, -1.0f, 1.0f));
  }
  for (int b = 0; b < kBatch; ++b) {
    input_ptrs.push_back(&inputs[static_cast<size_t>(b)]);
    seed_ptrs.push_back(&grad_seeds[static_cast<size_t>(b)]);
  }

  ExecutionPlan plan = model.Compile(kBatch);
  plan.ForwardBatch(StackSamples(input_ptrs), kBatch);
  const Tensor analytic =
      plan.BackwardInputBatch(model.num_layers() - 1, StackSamples(seed_ptrs));

  const float eps = 5e-3f;
  for (int b = 0; b < kBatch; ++b) {
    const Tensor& grad_seed = grad_seeds[static_cast<size_t>(b)];
    const auto objective = [&](const Tensor& x) {
      const Tensor out = testing::OraclePredict(model, x);
      double dot = 0.0;
      for (int64_t i = 0; i < out.numel(); ++i) {
        dot += static_cast<double>(out[i]) * static_cast<double>(grad_seed[i]);
      }
      return dot;
    };
    Tensor x = inputs[static_cast<size_t>(b)];
    const Tensor analytic_b = SliceSample(analytic, b);
    int kink_skips = 0;
    for (int c = 0; c < kChecksPerSample; ++c) {
      const int64_t i = rng.UniformInt(0, x.numel() - 1);
      const float orig = x[i];
      x[i] = orig + eps;
      const double plus = objective(x);
      x[i] = orig - eps;
      const double minus = objective(x);
      x[i] = orig;
      const float numeric = static_cast<float>((plus - minus) / (2.0 * eps));
      const float denom = std::max({1.0f, std::abs(numeric), std::abs(analytic_b[i])});
      const float rel_err = std::abs(numeric - analytic_b[i]) / denom;
      if (rel_err > 3e-2f && ++kink_skips <= 2) {
        continue;  // Tolerate at most two ReLU/maxpool kink crossings.
      }
      EXPECT_LT(rel_err, 3e-2f)
          << model.name() << " sample " << b << " coordinate " << i;
    }
  }
}

TEST(BatchGradientTest, ConvStack) { CheckBatchedInputGradient(MakeConvStack(31), 131); }

TEST(BatchGradientTest, BatchNormStack) {
  CheckBatchedInputGradient(MakeBatchNormStack(32), 132);
}

TEST(BatchGradientTest, ResidualStack) {
  CheckBatchedInputGradient(MakeResidualStack(33), 133);
}

// The batched reverse pass must also agree with the scalar reverse pass
// (within the kernel backward tolerance: the plan runs GEMM kernels) and,
// bit for bit, with the plan's own width-1 per-sample backward.
TEST(BatchGradientTest, BatchedBackwardMatchesScalar) {
  for (const uint64_t seed : {41u, 42u, 43u}) {
    const Model model = seed == 41u   ? MakeConvStack(seed)
                        : seed == 42u ? MakeBatchNormStack(seed)
                                      : MakeResidualStack(seed);
    Rng rng(seed + 100);
    std::vector<Tensor> inputs;
    std::vector<Tensor> grad_seeds;
    std::vector<const Tensor*> input_ptrs;
    std::vector<const Tensor*> seed_ptrs;
    for (int b = 0; b < kBatch; ++b) {
      inputs.push_back(Tensor::RandUniform(model.input_shape(), rng));
      grad_seeds.push_back(Tensor::RandUniform(model.output_shape(), rng, -1.0f, 1.0f));
    }
    for (int b = 0; b < kBatch; ++b) {
      input_ptrs.push_back(&inputs[static_cast<size_t>(b)]);
      seed_ptrs.push_back(&grad_seeds[static_cast<size_t>(b)]);
    }
    const int last = model.num_layers() - 1;
    ExecutionPlan plan = model.Compile(kBatch);
    plan.ForwardBatch(StackSamples(input_ptrs), kBatch);
    const Tensor batched = plan.BackwardInputBatch(last, StackSamples(seed_ptrs));
    for (int b = 0; b < kBatch; ++b) {
      const std::string what = model.name() + " sample " + std::to_string(b);
      const ForwardTrace scalar = model.Forward(inputs[static_cast<size_t>(b)]);
      const Tensor scalar_grad =
          model.BackwardInput(scalar, last, grad_seeds[static_cast<size_t>(b)]);
      testing::ExpectTensorsNear(SliceSample(batched, b), scalar_grad,
                                 testing::kKernelBackwardTolerance, what);
      const Tensor& sample_grad =
          plan.BackwardSample(b, last, grad_seeds[static_cast<size_t>(b)]);
      EXPECT_EQ(SliceSample(batched, b).values(), sample_grad.values()) << what;
    }
  }
}

}  // namespace
}  // namespace dx
