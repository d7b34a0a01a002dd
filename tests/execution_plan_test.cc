// ExecutionPlan equivalence: the compiled zero-allocation path must match
// the per-sample scalar oracle (tests/test_util.h) — forward traces (outputs
// AND aux), batched input gradients, per-sample objective backprop, and the
// width-1 sample trace — across layer types, widths, and width changes (the
// plan's buffers are reused in place between calls).
//
// The plan path runs conv2d and dense through im2col + GemmBias
// (src/nn/gemm.h), which accumulates in a different order than the scalar
// kernels — the reference oracle.
// Comparisons against the oracle are therefore tolerance-checked (ULP + abs
// floor, tests/test_util.h); layers without SIMD kernels stay bit-exact.
// The plan path remains bit-identical to ITSELF at any batch width, worker
// count, and SIMD backend — pinned here for the batched backward
// (BackwardRows rows vs BackwardSample, memcmp) and elsewhere for the rest
// (tests/batch_exec_test.cc, tests/gemm_kernel_test.cc).
#include "src/nn/execution_plan.h"

#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/nn/batchnorm.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/dropout.h"
#include "src/nn/flatten.h"
#include "src/nn/model.h"
#include "src/nn/pool2d.h"
#include "src/nn/residual.h"
#include "src/nn/softmax_layer.h"
#include "src/tensor/ops.h"
#include "src/tensor/simd.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx {
namespace {

using testing::ExpectBatchMatchesScalar;
using testing::ExpectTensorsNear;
using testing::FloatTolerance;
using testing::kKernelBackwardTolerance;
using testing::kKernelForwardTolerance;
using testing::OracleBackwardBatch;
using testing::OracleForwardBatch;

Model MakeConvModel(uint64_t seed) {
  Model m("conv", {1, 10, 10});
  Rng rng(seed);
  auto& c1 = m.Emplace<Conv2D>(1, 4, 3, 3, 1, 0, Activation::kRelu);
  c1.InitParams(rng);
  m.Emplace<Pool2D>(PoolMode::kMax, 2);
  m.Emplace<Flatten>();
  auto& d1 = m.Emplace<Dense>(4 * 4 * 4, 6, Activation::kTanh);
  d1.InitParams(rng);
  m.Emplace<SoftmaxLayer>();
  return m;
}

Model MakeResidualModel(uint64_t seed) {
  Model m("residual", {2, 8, 8});
  Rng rng(seed);
  auto& c1 = m.Emplace<Conv2D>(2, 4, 3, 3, 1, 1, Activation::kRelu);
  c1.InitParams(rng);
  auto& r1 = m.Emplace<ResidualBlock>(4, 8, 2);
  r1.InitParams(rng);
  auto& bn = m.Emplace<BatchNorm>(8);
  bn.SetStatistics(std::vector<float>(8, 0.1f), std::vector<float>(8, 1.5f));
  m.Emplace<Pool2D>(PoolMode::kAvg, 2);
  m.Emplace<Dropout>(0.25f);
  m.Emplace<Flatten>();
  auto& d1 = m.Emplace<Dense>(8 * 2 * 2, 5);
  d1.InitParams(rng);
  m.Emplace<SoftmaxLayer>();
  return m;
}

Tensor RandomBatch(const Model& model, int width, uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandUniform(BatchedShape(width, model.input_shape()), rng);
}

void ExpectTracesNear(const BatchTrace& got, const BatchTrace& want,
                      const FloatTolerance& tol, const std::string& what) {
  ASSERT_EQ(got.batch, want.batch) << what;
  ASSERT_EQ(got.outputs.size(), want.outputs.size()) << what;
  for (size_t l = 0; l < want.outputs.size(); ++l) {
    EXPECT_EQ(got.outputs[l].shape(), want.outputs[l].shape()) << what << " layer " << l;
    ExpectTensorsNear(got.outputs[l], want.outputs[l], tol,
                      what + " layer " + std::to_string(l));
    ExpectTensorsNear(got.aux[l], want.aux[l], tol, what + " aux " + std::to_string(l));
  }
}

TEST(ExecutionPlanTest, ForwardMatchesOracleAcrossWidths) {
  for (const auto& model : {MakeConvModel(7), MakeResidualModel(8)}) {
    ExecutionPlan plan = model.Compile(8);
    // Widths vary across calls: slabs shrink and grow in place.
    int round = 0;
    for (const int width : {8, 3, 1, 8, 5}) {
      const Tensor input = RandomBatch(model, width, 100 + static_cast<uint64_t>(round));
      const BatchTrace want = OracleForwardBatch(model, input);
      const BatchTrace& got = plan.ForwardBatch(input, width);
      ExpectTracesNear(got, want, kKernelForwardTolerance,
                       model.name() + " width " + std::to_string(width));
      EXPECT_EQ(SliceSample(got.input, width - 1).values(),
                SliceSample(input, width - 1).values());
      ++round;
    }
  }
}

TEST(ExecutionPlanTest, ForwardCountsForwardPasses) {
  const Model model = MakeConvModel(7);
  ExecutionPlan plan = model.Compile(4);
  model.ResetForwardPasses();
  plan.ForwardBatch(RandomBatch(model, 3, 1), 3);
  EXPECT_EQ(model.forward_passes(), 3);
}

// The plan path must be bit-identical to ITSELF across batch widths: each
// sample's forward depends only on that sample (GEMM accumulates each output
// element over a fixed ascending-k chain regardless of the batch dimension).
// This is the invariant that keeps Session results independent of batch size
// and worker count, since the plan path is not bit-equal to the scalar
// oracle.
TEST(ExecutionPlanTest, ForwardBitIdenticalAcrossWidths) {
  for (const auto& model : {MakeConvModel(21), MakeResidualModel(22)}) {
    ExecutionPlan plan = model.Compile(8);
    const Tensor input = RandomBatch(model, 8, 300);
    // Forward the full batch, snapshot every layer output.
    const BatchTrace& full = plan.ForwardBatch(input, 8);
    std::vector<std::vector<float>> full_outputs;
    for (const Tensor& out : full.outputs) {
      full_outputs.push_back(out.values());
    }
    const std::vector<int64_t> strides = [&] {
      std::vector<int64_t> s;
      for (const Tensor& out : full.outputs) {
        s.push_back(out.numel() / 8);
      }
      return s;
    }();
    // Forward a narrower prefix: every element must match the full batch bit
    // for bit.
    ExecutionPlan plan2 = model.Compile(8);
    for (const int width : {1, 3, 5}) {
      Tensor prefix(BatchedShape(width, model.input_shape()));
      std::copy(input.data(), input.data() + prefix.numel(), prefix.data());
      const BatchTrace& got = plan2.ForwardBatch(prefix, width);
      for (size_t l = 0; l < got.outputs.size(); ++l) {
        const std::vector<float> got_vals = got.outputs[l].values();
        for (size_t i = 0; i < got_vals.size(); ++i) {
          ASSERT_EQ(got_vals[i], full_outputs[l][i])
              << model.name() << " width " << width << " layer " << l
              << " element " << i;
        }
      }
    }
  }
}

TEST(ExecutionPlanTest, BackwardInputBatchMatchesOracle) {
  for (const auto& model : {MakeConvModel(9), MakeResidualModel(10)}) {
    ExecutionPlan plan = model.Compile(6);
    for (const int width : {6, 2, 6}) {
      const Tensor input = RandomBatch(model, width, 55 + static_cast<uint64_t>(width));
      const BatchTrace want_trace = OracleForwardBatch(model, input);
      plan.ForwardBatch(input, width);
      for (const int from : {model.num_layers() - 1, 0}) {
        Rng rng(17);
        const Tensor seed = Tensor::RandUniform(
            want_trace.outputs[static_cast<size_t>(from)].shape(), rng, -1.0f, 1.0f);
        const Tensor want = OracleBackwardBatch(model, want_trace, from, seed);
        const Tensor& got = plan.BackwardInputBatch(from, seed);
        EXPECT_EQ(got.shape(), want.shape()) << model.name();
        ExpectTensorsNear(got, want, kKernelBackwardTolerance,
                          model.name() + " width " + std::to_string(width) +
                              " from " + std::to_string(from));
      }
    }
  }
}

TEST(ExecutionPlanTest, BackwardSampleMatchesScalarBackward) {
  for (const auto& model : {MakeConvModel(11), MakeResidualModel(12)}) {
    ExecutionPlan plan = model.Compile(4);
    const Tensor input = RandomBatch(model, 4, 99);
    plan.ForwardBatch(input, 4);
    // Seed from the last layer (differential objective) and from an interior
    // layer (coverage objective picks arbitrary layers).
    for (const int from : {model.num_layers() - 1, 1, 0}) {
      for (int pos = 0; pos < 4; ++pos) {
        Rng rng(200 + static_cast<uint64_t>(from * 4 + pos));
        const ForwardTrace sample = model.Forward(SliceSample(input, pos));
        const Tensor scalar_seed = Tensor::RandUniform(
            sample.outputs[static_cast<size_t>(from)].shape(), rng, -1.0f, 1.0f);
        const Tensor want = model.BackwardInput(sample, from, scalar_seed);
        // The plan's seed buffer is per-sample-shaped; copy the values in.
        Tensor& seed = plan.AcquireSeed(from);
        std::copy(scalar_seed.data(), scalar_seed.data() + scalar_seed.numel(),
                  seed.data());
        const Tensor& got = plan.BackwardSample(pos, from, seed);
        EXPECT_EQ(got.shape(), want.shape());
        ExpectTensorsNear(got, want, kKernelBackwardTolerance,
                          model.name() + " pos " + std::to_string(pos) +
                              " from " + std::to_string(from));
      }
    }
  }
}

// The models BackwardRows must handle: the tabular MLP (all flat), the
// alloc_test shape (conv, pool, flatten, dense, softmax), a DAVE-like net
// (CHW batchnorm first, conv directly under the flatten, dropout on a flat
// output, scalar tanh head), a speech-like conv1d net (1xk kernels, conv
// under the flatten) and the residual stack.
std::vector<Model> BackwardRowsModels() {
  std::vector<Model> models;
  {
    Model m("tabular", {10});
    Rng rng(21);
    m.Emplace<Dense>(10, 16, Activation::kRelu).InitParams(rng);
    m.Emplace<Dense>(16, 8, Activation::kRelu).InitParams(rng);
    m.Emplace<Dense>(8, 2).InitParams(rng);
    m.Emplace<SoftmaxLayer>();
    models.push_back(std::move(m));
  }
  models.push_back(MakeConvModel(22));
  {
    Model m("dave", {3, 9, 13});
    Rng rng(23);
    auto& bn = m.Emplace<BatchNorm>(3);
    bn.SetStatistics({0.1f, 0.2f, 0.3f}, {1.5f, 0.5f, 2.0f});
    m.Emplace<Conv2D>(3, 4, 3, 3, 2, 0, Activation::kRelu).InitParams(rng);
    m.Emplace<Conv2D>(4, 5, 3, 3, 1, 0, Activation::kRelu).InitParams(rng);
    m.Emplace<Flatten>();
    m.Emplace<Dense>(5 * 2 * 4, 8, Activation::kRelu).InitParams(rng);
    m.Emplace<Dropout>(0.25f);
    m.Emplace<Dense>(8, 4, Activation::kRelu).InitParams(rng);
    m.Emplace<Dense>(4, 1, Activation::kTanh).InitParams(rng);
    models.push_back(std::move(m));
  }
  {
    Model m("speech", {1, 1, 32});
    Rng rng(24);
    m.Emplace<Conv2D>(1, 4, 1, 5, 2, 0, Activation::kRelu).InitParams(rng);
    m.Emplace<Conv2D>(4, 6, 1, 3, 2, 0, Activation::kRelu).InitParams(rng);
    m.Emplace<Flatten>();
    m.Emplace<Dense>(6 * 6, 8, Activation::kRelu).InitParams(rng);
    m.Emplace<Dense>(8, 5).InitParams(rng);
    m.Emplace<SoftmaxLayer>();
    models.push_back(std::move(m));
  }
  models.push_back(MakeResidualModel(25));
  return models;
}

// Row b's seed in round `round`: rows cycle through "no entry" and every
// layer, so each width sees rows enter at every layer, including the first
// per-row layer under the flatten. Layers with coverage neurons alternate
// neuron and element seeds.
LayerSeed RowSeed(const Model& model, int b, int round) {
  LayerSeed seed;
  seed.layer = (b + round) % (model.num_layers() + 1) - 1;
  if (seed.layer == LayerSeed::kNone) {
    return seed;
  }
  const Layer& layer = model.layer(seed.layer);
  seed.neuron = layer.NumNeurons() > 0 && (b + round) % 2 == 0;
  const int64_t count = seed.neuron ? layer.NumNeurons()
                                    : NumElements(model.layer_output_shape(seed.layer));
  seed.index = static_cast<int>((7 * b + round) % count);
  seed.weight = 0.5f + 0.25f * static_cast<float>(b);
  return seed;
}

// Every BackwardRows row must equal BackwardSample for that sample, seeded
// at the row's layer, bit for bit — the executor's batch invariance rests on it.
TEST(ExecutionPlanTest, BackwardRowsMatchBackwardSampleBitForBit) {
  const int max_width = 2 * simd::kLanes + 1;
  for (const Model& model : BackwardRowsModels()) {
    ExecutionPlan plan = model.Compile(max_width);
    const int64_t in_numel = NumElements(model.input_shape());
    for (int width = 1; width <= max_width; ++width) {
      plan.ForwardBatch(RandomBatch(model, width, 300 + static_cast<uint64_t>(width)), width);
      for (int round = 0; round <= model.num_layers(); ++round) {
        std::vector<LayerSeed> rows;
        for (int b = 0; b < width; ++b) {
          rows.push_back(RowSeed(model, b, round));
        }
        const Tensor got = plan.BackwardRows(rows);
        ASSERT_EQ(got.numel(), width * in_numel);
        for (int b = 0; b < width; ++b) {
          const LayerSeed& row = rows[static_cast<size_t>(b)];
          if (row.layer == LayerSeed::kNone) {
            continue;
          }
          Tensor& seed = plan.AcquireSeed(row.layer);
          if (row.neuron) {
            model.layer(row.layer).AddNeuronSeed(&seed, row.index, row.weight);
          } else {
            seed[row.index] = row.weight;
          }
          const Tensor& want = plan.BackwardSample(b, row.layer, seed);
          EXPECT_EQ(std::memcmp(got.data() + b * in_numel, want.data(),
                                static_cast<size_t>(in_numel) * sizeof(float)),
                    0)
              << model.name() << " width " << width << " row " << b << " layer "
              << row.layer << (row.neuron ? " neuron " : " element ") << row.index;
        }
      }
    }
  }
}

TEST(ExecutionPlanTest, BackwardRowsRejectsBadRows) {
  const Model model = MakeConvModel(26);
  ExecutionPlan plan = model.Compile(4);
  EXPECT_THROW(plan.BackwardRows({LayerSeed{}}), std::logic_error);  // No trace yet.
  plan.ForwardBatch(RandomBatch(model, 3, 27), 3);
  EXPECT_THROW(plan.BackwardRows(std::vector<LayerSeed>(2)), std::invalid_argument);
  EXPECT_THROW(plan.BackwardRows(std::vector<LayerSeed>(4)), std::invalid_argument);
  std::vector<LayerSeed> rows(3);
  rows[1].layer = model.num_layers();
  EXPECT_THROW(plan.BackwardRows(rows), std::out_of_range);
  rows[1].layer = -2;
  EXPECT_THROW(plan.BackwardRows(rows), std::out_of_range);
  rows[1].layer = model.num_layers() - 1;
  rows[1].index = static_cast<int>(NumElements(model.output_shape()));
  EXPECT_THROW(plan.BackwardRows(rows), std::out_of_range);
  rows[1].index = 0;
  EXPECT_NO_THROW(plan.BackwardRows(rows));
}

TEST(ExecutionPlanTest, SampleTraceMatchesOracle) {
  const Model model = MakeResidualModel(13);
  ExecutionPlan plan = model.Compile(3);
  const Tensor input = RandomBatch(model, 3, 42);
  plan.ForwardBatch(input, 3);
  for (int pos = 0; pos < 3; ++pos) {
    const BatchTrace want = OracleForwardBatch(
        model, SliceSample(input, pos).Reshape(BatchedShape(1, model.input_shape())));
    const BatchTrace& got = plan.SampleTrace(pos);
    ExpectTracesNear(got, want, kKernelForwardTolerance,
                     "sample " + std::to_string(pos));
    EXPECT_EQ(got.input.values(), want.input.values());
  }
}

TEST(ExecutionPlanTest, AcquireSeedIsZeroed) {
  const Model model = MakeConvModel(14);
  ExecutionPlan plan = model.Compile(1);
  Tensor& seed = plan.AcquireSeed(model.num_layers() - 1);
  seed.Fill(3.0f);
  const Tensor& again = plan.AcquireSeed(model.num_layers() - 1);
  for (int64_t i = 0; i < again.numel(); ++i) {
    EXPECT_EQ(again[i], 0.0f);
  }
}

// ---- Dense forward packs -----------------------------------------------------------
//
// A plan runs dense forward on the W^T + bias pack it took at Compile. Plans
// compiled from unchanged weights share the layer's one pack (so a
// shared_ptr count of layer cache + plans + the caller's copy shows the
// sharing); a Compile after a weight change builds a fresh pack and leaves
// older plans on theirs.

Model MakeMlp(uint64_t seed) {
  Model m("mlp", {6});
  Rng rng(seed);
  m.Emplace<Dense>(6, 9, Activation::kRelu).InitParams(rng);
  m.Emplace<Dense>(9, 4).InitParams(rng);
  m.Emplace<SoftmaxLayer>();
  return m;
}

TEST(ExecutionPlanTest, PlansShareOneDensePackPerLayer) {
  const Model model = MakeMlp(31);
  const ExecutionPlan a = model.Compile(2);
  const ExecutionPlan b = model.Compile(5);
  for (int l = 0; l < 2; ++l) {
    // The layer's cache, plans a and b, and this copy.
    EXPECT_EQ(model.layer(l).ForwardPack().use_count(), 4) << "layer " << l;
  }
  EXPECT_EQ(model.layer(2).ForwardPack(), nullptr);
}

// The Trainer's pattern: parameters taken before the first Compile and
// changed through those pointers.
TEST(ExecutionPlanTest, PlanKeepsItsPackAcrossAWeightChange) {
  Model model = MakeMlp(32);
  const std::vector<Tensor*> params = model.MutableParams();
  const Tensor input = RandomBatch(model, 3, 33);
  ExecutionPlan before = model.Compile(3);
  const Tensor old_out = before.ForwardBatch(input, 3).Output();

  (*params[0])[5] += 0.75f;  // A layer-0 weight and bias.
  (*params[1])[0] += 1.0f;
  ExecutionPlan after = model.Compile(3);
  const BatchTrace& got = after.ForwardBatch(input, 3);
  ExpectTracesNear(got, OracleForwardBatch(model, input), kKernelForwardTolerance,
                   "plan compiled after the change");
  EXPECT_NE(got.Output().values(), old_out.values());

  const Tensor& kept = before.ForwardBatch(input, 3).Output();
  ASSERT_EQ(kept.numel(), old_out.numel());
  EXPECT_EQ(std::memcmp(kept.data(), old_out.data(), sizeof(float) * kept.numel()), 0);
  // Layer 0 has a new pack held by its cache and `after` (plus this copy);
  // layer 1 did not change, so both plans still share its pack.
  EXPECT_EQ(model.layer(0).ForwardPack().use_count(), 3);
  EXPECT_EQ(model.layer(1).ForwardPack().use_count(), 4);
}

// Session workers compile concurrently; however their compiles interleave,
// they end up on one pack per layer. Runs under ThreadSanitizer in CI.
TEST(ExecutionPlanTest, ConcurrentCompilesShareOnePack) {
  const Model model = MakeMlp(34);
  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<ExecutionPlan>> plans(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      plans[static_cast<size_t>(t)] = std::make_unique<ExecutionPlan>(model.Compile(2));
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int l = 0; l < 2; ++l) {
    EXPECT_EQ(model.layer(l).ForwardPack().use_count(), kThreads + 2) << "layer " << l;
  }
  const Tensor input = RandomBatch(model, 2, 35);
  const Tensor want = plans[0]->ForwardBatch(input, 2).Output();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(plans[static_cast<size_t>(t)]->ForwardBatch(input, 2).Output().values(),
              want.values());
  }
}

// Per-layer: the *Into kernels against the per-sample oracle, bit for bit
// for layers without SIMD kernels and within ULP/abs tolerance for
// conv2d/dense/residual, whose Into path runs im2col + GEMM.
TEST(LayerIntoTest, AllLayersMatchOracle) {
  Rng rng(31);
  for (const int batch : {1, 3, 8, 9}) {
    {
      Dense dense(10, 7, Activation::kRelu);
      dense.InitParams(rng);
      ExpectBatchMatchesScalar(dense, {10}, batch, 1000 + static_cast<uint64_t>(batch));
    }
    {
      Conv2D conv(2, 3, 3, 3, 1, 1, Activation::kTanh);
      conv.InitParams(rng);
      ExpectBatchMatchesScalar(conv, {2, 6, 6}, batch, 2000 + static_cast<uint64_t>(batch));
    }
    ExpectBatchMatchesScalar(Pool2D(PoolMode::kMax, 2), {3, 6, 6}, batch,
                             3000 + static_cast<uint64_t>(batch));
    ExpectBatchMatchesScalar(Pool2D(PoolMode::kAvg, 2), {3, 6, 6}, batch,
                             4000 + static_cast<uint64_t>(batch));
    ExpectBatchMatchesScalar(Flatten(), {2, 4, 4}, batch,
                             5000 + static_cast<uint64_t>(batch));
    ExpectBatchMatchesScalar(SoftmaxLayer(), {9}, batch,
                             6000 + static_cast<uint64_t>(batch));
    {
      BatchNorm bn(5);
      bn.SetStatistics(std::vector<float>(5, 0.2f), std::vector<float>(5, 2.0f));
      ExpectBatchMatchesScalar(bn, {5, 4, 4}, batch, 7000 + static_cast<uint64_t>(batch));
    }
    ExpectBatchMatchesScalar(Dropout(0.4f), {12}, batch,
                             8000 + static_cast<uint64_t>(batch));
    {
      // Parameter gradients route through each child convolution's kernel.
      ResidualBlock res(3, 6, 2);
      Rng r2(77);
      res.InitParams(r2);
      ExpectBatchMatchesScalar(res, {3, 8, 8}, batch, 9000 + static_cast<uint64_t>(batch));
    }
  }
}

// Tolerance-checked SIMD-vs-scalar sweep over every conv2d and dense shape
// the zoo and the domain registry exercise (plus degenerate extremes): the
// GEMM path must stay within kernel tolerance of the scalar oracle at every
// geometry, not just the ones the model-level tests happen to compose.
TEST(LayerIntoTest, SimdVsScalarSweepAllLayerShapes) {
  struct ConvCase {
    int in_c, out_c, kh, kw, stride, padding, in_h, in_w;
  };
  const ConvCase conv_cases[] = {
      {1, 4, 5, 5, 1, 0, 28, 28},   // MNIST LeNet c1
      {4, 12, 5, 5, 1, 0, 12, 12},  // MNIST LeNet c2
      {3, 8, 3, 3, 1, 1, 32, 32},   // CIFAR-style same-pad
      {8, 16, 3, 3, 2, 1, 16, 16},  // strided downsample
      {1, 2, 1, 8, 1, 0, 1, 64},    // speech 1-D conv (kernel_h == 1)
      {2, 4, 1, 1, 1, 0, 9, 9},     // 1x1 pointwise
      {3, 5, 7, 7, 3, 2, 11, 13},   // odd stride, asymmetric input
      {2, 3, 6, 6, 1, 3, 4, 4},     // kernel > input, padding rescues it
      {16, 4, 3, 3, 1, 0, 5, 5},    // channel-heavy, tiny spatial
  };
  Rng rng(4242);
  for (const auto& c : conv_cases) {
    for (const int batch : {1, 8}) {
      for (const Activation act : {Activation::kRelu, Activation::kNone}) {
        Conv2D conv(c.in_c, c.out_c, c.kh, c.kw, c.stride, c.padding, act);
        conv.InitParams(rng);
        ExpectBatchMatchesScalar(conv, {c.in_c, c.in_h, c.in_w}, batch, rng.NextU64());
      }
    }
  }
  struct DenseCase {
    int in, out;
  };
  const DenseCase dense_cases[] = {
      {784, 128},  // MNIST MLP hidden
      {128, 10},   // classifier head
      {1, 1},      // degenerate
      {3, 257},    // wide output, narrow input
      {1352, 10},  // LeNet flatten -> logits (longest reduction in the zoo)
      {135, 64},   // tabular fraud MLP
  };
  for (const auto& d : dense_cases) {
    for (const int batch : {1, 8}) {
      Dense dense(d.in, d.out, Activation::kRelu);
      dense.InitParams(rng);
      ExpectBatchMatchesScalar(dense, {d.in}, batch, rng.NextU64());
    }
  }
}

}  // namespace
}  // namespace dx
