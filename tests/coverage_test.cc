// Neuron-coverage tracker and code-coverage analog.
#include <gtest/gtest.h>

#include "src/coverage/neuron_coverage.h"
#include "src/coverage/op_coverage.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/flatten.h"
#include "src/nn/model.h"
#include "src/nn/softmax_layer.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx {
namespace {

Model MakeNet(uint64_t seed) {
  Rng rng(seed);
  Model m("cov", {1, 8, 8});
  m.Emplace<Conv2D>(1, 4, 3, 3, 1, 0, Activation::kRelu).InitParams(rng);
  m.Emplace<Flatten>();
  m.Emplace<Dense>(4 * 6 * 6, 6, Activation::kRelu).InitParams(rng);
  m.Emplace<Dense>(6, 3).InitParams(rng);
  m.Emplace<SoftmaxLayer>();
  return m;
}

TEST(NeuronCoverageTest, CountsTrackedNeurons) {
  const Model m = MakeNet(1);
  CoverageOptions opts;
  // conv 4 + dense 6 (final dense excluded as output layer, softmax has none).
  NeuronCoverageTracker tracker(m, opts);
  EXPECT_EQ(tracker.total_neurons(), 10);

  opts.exclude_output_layer = false;
  NeuronCoverageTracker with_output(m, opts);
  EXPECT_EQ(with_output.total_neurons(), 13);

  opts.exclude_output_layer = true;
  opts.exclude_dense = true;
  NeuronCoverageTracker conv_only(m, opts);
  EXPECT_EQ(conv_only.total_neurons(), 4);
}

TEST(NeuronCoverageTest, StartsUncoveredAndGrowsMonotonically) {
  const Model m = MakeNet(2);
  CoverageOptions opts;
  opts.threshold = 0.25f;
  NeuronCoverageTracker tracker(m, opts);
  EXPECT_FLOAT_EQ(tracker.Coverage(), 0.0f);
  Rng rng(3);
  float prev = 0.0f;
  for (int i = 0; i < 20; ++i) {
    const Tensor x = Tensor::RandUniform({1, 8, 8}, rng);
    tracker.UpdateBatch(m, testing::OracleTrace(m, x));
    const float cov = tracker.Coverage();
    EXPECT_GE(cov, prev);
    prev = cov;
  }
  EXPECT_GT(prev, 0.0f);
}

TEST(NeuronCoverageTest, ThresholdMonotonicity) {
  // Higher thresholds can only reduce coverage (Figure 9's x-axis trend).
  const Model m = MakeNet(4);
  Rng rng(5);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 10; ++i) {
    inputs.push_back(Tensor::RandUniform({1, 8, 8}, rng));
  }
  float prev = 2.0f;
  for (const float t : {0.0f, 0.25f, 0.5f, 0.75f}) {
    CoverageOptions opts;
    opts.threshold = t;
    NeuronCoverageTracker tracker(m, opts);
    for (const Tensor& x : inputs) {
      tracker.UpdateBatch(m, testing::OracleTrace(m, x));
    }
    EXPECT_LE(tracker.Coverage(), prev);
    prev = tracker.Coverage();
  }
}

TEST(NeuronCoverageTest, ScalingMapsLayerExtremesToUnitRange) {
  const Model m = MakeNet(6);
  CoverageOptions opts;
  opts.scale_per_layer = true;
  NeuronCoverageTracker tracker(m, opts);
  Rng rng(7);
  const Tensor x = Tensor::RandUniform({1, 8, 8}, rng);
  const auto values = tracker.NeuronValues(m, testing::OracleTrace(m, x), 0);
  ASSERT_EQ(values.size(), 10u);
  // Within the conv layer slice (first 4) the max must be 1 and min 0.
  float lo = 2.0f;
  float hi = -1.0f;
  for (int i = 0; i < 4; ++i) {
    lo = std::min(lo, values[static_cast<size_t>(i)]);
    hi = std::max(hi, values[static_cast<size_t>(i)]);
  }
  EXPECT_FLOAT_EQ(lo, 0.0f);
  EXPECT_FLOAT_EQ(hi, 1.0f);
}

TEST(NeuronCoverageTest, PickUncoveredExhausts) {
  const Model m = MakeNet(8);
  CoverageOptions opts;
  opts.threshold = -1.0f;  // Everything activates (scaled values >= 0).
  NeuronCoverageTracker tracker(m, opts);
  Rng rng(9);
  NeuronId id;
  EXPECT_TRUE(tracker.PickUncovered(rng, &id));
  EXPECT_GE(id.layer, 0);
  tracker.UpdateBatch(m, testing::OracleTrace(m, Tensor::RandUniform({1, 8, 8}, rng)));
  EXPECT_FLOAT_EQ(tracker.Coverage(), 1.0f);
  EXPECT_FALSE(tracker.PickUncovered(rng, &id));
}

TEST(NeuronCoverageTest, ActivatedListMatchesCoverage) {
  const Model m = MakeNet(10);
  CoverageOptions opts;
  opts.threshold = 0.5f;
  NeuronCoverageTracker tracker(m, opts);
  Rng rng(11);
  const Tensor x = Tensor::RandUniform({1, 8, 8}, rng);
  const BatchTrace trace = testing::OracleTrace(m, x);
  const auto activated = tracker.Activated(m, trace, 0);
  tracker.UpdateBatch(m, trace);
  EXPECT_EQ(static_cast<int>(activated.size()), tracker.covered_neurons());
  for (const NeuronId& id : activated) {
    EXPECT_TRUE(tracker.IsCovered(id));
  }
}

TEST(NeuronCoverageTest, IsCoveredValidatesIds) {
  const Model m = MakeNet(12);
  NeuronCoverageTracker tracker(m, CoverageOptions{});
  EXPECT_THROW(tracker.IsCovered({1, 0}), std::out_of_range);  // Flatten layer.
  EXPECT_THROW(tracker.IsCovered({0, 99}), std::out_of_range);
}

// ---- OpCoverage --------------------------------------------------------------------------

TEST(OpCoverageTest, SingleInputSaturates) {
  // The paper's Table 6 claim: one input exercises all inference code.
  const Model m = MakeNet(13);
  OpCoverage cov(m);
  EXPECT_FLOAT_EQ(cov.Coverage(), 0.0f);
  EXPECT_GT(cov.total_sites(), 20);
  Rng rng(14);
  cov.RecordForward(m, Tensor::RandUniform({1, 8, 8}, rng));
  EXPECT_FLOAT_EQ(cov.Coverage(), 1.0f);
  EXPECT_EQ(cov.covered_sites(), cov.total_sites());
}

TEST(OpCoverageTest, ContrastWithNeuronCoverage) {
  // After one input: op coverage 100%, neuron coverage (t = 0.75) well below.
  const Model m = MakeNet(15);
  OpCoverage op(m);
  CoverageOptions opts;
  opts.threshold = 0.75f;
  NeuronCoverageTracker neuron(m, opts);
  Rng rng(16);
  const Tensor x = Tensor::RandUniform({1, 8, 8}, rng);
  op.RecordForward(m, x);
  neuron.UpdateBatch(m, testing::OracleTrace(m, x));
  EXPECT_FLOAT_EQ(op.Coverage(), 1.0f);
  EXPECT_LT(neuron.Coverage(), 0.7f);
}

}  // namespace
}  // namespace dx
