// Randomized batch-kernel property tests: for EVERY layer type, the batch
// kernels (ForwardBatchInto / BackwardBatchInto) must be bit-identical across
// batch widths and match the per-sample oracle over random layer
// configurations, random input shapes, and random batch sizes — generalizing
// the hand-picked shapes of
// tests/batch_exec_test.cc. The RNG seed is fixed, so every run checks the
// same (reproducible) sample of the configuration space.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "src/nn/activation.h"
#include "src/nn/batchnorm.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/dropout.h"
#include "src/nn/flatten.h"
#include "src/nn/pool2d.h"
#include "src/nn/residual.h"
#include "src/nn/softmax_layer.h"
#include "src/tensor/simd.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx {
namespace {

constexpr int kTrials = 10;

int RandInt(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.UniformInt(lo, hi));
}

Activation RandAct(Rng& rng) {
  return static_cast<Activation>(RandInt(rng, 0, 3));  // kNone..kSigmoid.
}

// Batch sizes 1-19: Dense runs the batch as the GEMM's rows, so the 1-3-row
// tiles, whole 4-row tiles and 4-row tiles plus a short block all occur
// across trials.
int RandBatch(Rng& rng) { return RandInt(rng, 1, 19); }

TEST(BatchPropertyTest, Dense) {
  Rng rng(0xD0);
  for (int t = 0; t < kTrials; ++t) {
    Dense layer(RandInt(rng, 1, 24), RandInt(rng, 1, 16), RandAct(rng));
    layer.InitParams(rng);
    testing::ExpectBatchMatchesScalar(layer, {layer.in_features()}, RandBatch(rng), rng.NextU64());
  }
}

// Every width from 1 to 2 * kLanes + 1, each a different set of row blocks in
// Dense's batch-major GEMM, over the layers of a TAB_C1-shaped stack and of a
// stack whose out_features are not multiples of 8 (column tails).
TEST(BatchPropertyTest, DenseEveryWidthAcrossTheLaneBoundary) {
  const std::tuple<int, int, Activation> kLayers[] = {
      {32, 64, Activation::kRelu}, {64, 64, Activation::kRelu}, {64, 2, Activation::kNone},
      {7, 13, Activation::kTanh},  {13, 5, Activation::kSigmoid}};
  Rng rng(0xD2);
  for (const auto& [in, out, act] : kLayers) {
    Dense layer(in, out, act);
    layer.InitParams(rng);
    for (int width = 1; width <= 2 * simd::kLanes + 1; ++width) {
      testing::ExpectBatchMatchesScalar(layer, {in}, width, rng.NextU64());
    }
  }
}

TEST(BatchPropertyTest, Conv2D) {
  Rng rng(0xC0);
  for (int t = 0; t < kTrials; ++t) {
    const int in_ch = RandInt(rng, 1, 3);
    const int kh = RandInt(rng, 1, 3);
    const int kw = RandInt(rng, 1, 3);
    const int stride = RandInt(rng, 1, 2);
    const int pad = RandInt(rng, 0, 1);
    Conv2D layer(in_ch, RandInt(rng, 1, 5), kh, kw, stride, pad, RandAct(rng));
    layer.InitParams(rng);
    const Shape in_shape = {in_ch, RandInt(rng, kh + 1, 10), RandInt(rng, kw + 1, 10)};
    testing::ExpectBatchMatchesScalar(layer, in_shape, RandBatch(rng), rng.NextU64());
  }
}

TEST(BatchPropertyTest, Pool2D) {
  Rng rng(0xB0);
  for (int t = 0; t < kTrials; ++t) {
    const PoolMode mode = rng.Bernoulli(0.5) ? PoolMode::kMax : PoolMode::kAvg;
    const int kernel = RandInt(rng, 1, 3);
    const int stride = RandInt(rng, 0, 2);  // 0 means stride == kernel.
    Pool2D layer(mode, kernel, stride);
    const Shape in_shape = {RandInt(rng, 1, 3), RandInt(rng, kernel + 1, 9),
                            RandInt(rng, kernel + 1, 9)};
    testing::ExpectBatchMatchesScalar(layer, in_shape, RandBatch(rng), rng.NextU64());
  }
}

TEST(BatchPropertyTest, Flatten) {
  Rng rng(0xF0);
  for (int t = 0; t < kTrials; ++t) {
    const Shape in_shape = {RandInt(rng, 1, 3), RandInt(rng, 1, 6), RandInt(rng, 1, 6)};
    testing::ExpectBatchMatchesScalar(Flatten(), in_shape, RandBatch(rng), rng.NextU64());
  }
}

TEST(BatchPropertyTest, Softmax) {
  Rng rng(0x50);
  for (int t = 0; t < kTrials; ++t) {
    testing::ExpectBatchMatchesScalar(SoftmaxLayer(), {RandInt(rng, 2, 15)},
                                      RandBatch(rng), rng.NextU64());
  }
}

TEST(BatchPropertyTest, BatchNormFlatAndChw) {
  Rng rng(0xBF);
  for (int t = 0; t < kTrials; ++t) {
    const int features = RandInt(rng, 1, 8);
    std::vector<float> mean(static_cast<size_t>(features));
    std::vector<float> variance(static_cast<size_t>(features));
    for (int i = 0; i < features; ++i) {
      mean[static_cast<size_t>(i)] = static_cast<float>(rng.Uniform(-1.0, 1.0));
      variance[static_cast<size_t>(i)] = static_cast<float>(rng.Uniform(0.1, 2.0));
    }
    BatchNorm layer(features);
    layer.SetStatistics(mean, variance);
    const Shape in_shape = rng.Bernoulli(0.5)
                               ? Shape{features}
                               : Shape{features, RandInt(rng, 2, 6), RandInt(rng, 2, 6)};
    testing::ExpectBatchMatchesScalar(layer, in_shape, RandBatch(rng), rng.NextU64());
  }
}

TEST(BatchPropertyTest, ResidualBlock) {
  Rng rng(0xE0);
  for (int t = 0; t < kTrials; ++t) {
    const int in_ch = RandInt(rng, 1, 3);
    const int stride = RandInt(rng, 1, 2);
    ResidualBlock layer(in_ch, RandInt(rng, 1, 4), stride);
    layer.InitParams(rng);
    const Shape in_shape = {in_ch, 2 * RandInt(rng, 2, 4), 2 * RandInt(rng, 2, 4)};
    testing::ExpectBatchMatchesScalar(layer, in_shape, RandBatch(rng), rng.NextU64());
  }
}

TEST(BatchPropertyTest, DropoutInference) {
  Rng rng(0xD1);
  for (int t = 0; t < kTrials; ++t) {
    Dropout layer(static_cast<float>(rng.Uniform(0.0, 0.9)));
    testing::ExpectBatchMatchesScalar(layer, {RandInt(rng, 1, 12)}, RandBatch(rng), rng.NextU64());
  }
}

// The harness itself must exercise every batch-size regime; pin that the
// generator spans 1, sub-block, exact-block, and block-plus-tail sizes.
TEST(BatchPropertyTest, BatchSizesCoverAllLaneRegimes) {
  Rng rng(0xAB);
  bool one = false;
  bool sub = false;
  bool exact = false;
  bool tail = false;
  for (int t = 0; t < 200; ++t) {
    const int b = RandBatch(rng);
    one = one || b == 1;
    sub = sub || (b > 1 && b < 8);
    exact = exact || b % 8 == 0;
    tail = tail || (b > 8 && b % 8 != 0);
  }
  EXPECT_TRUE(one && sub && exact && tail);
}

}  // namespace
}  // namespace dx
