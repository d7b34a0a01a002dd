// The pluggable CoverageMetric interface: factory lookup, k-multisection
// bucket math, top-k tie handling, Merge/Clone semantics (commutative,
// associative, idempotent, and equal to a serial run — the algebra parallel
// worker merging relies on), and Serialize/Deserialize round trips.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>

#include "src/coverage/coverage_metric.h"
#include "src/coverage/kmultisection_coverage.h"
#include "src/coverage/neuron_coverage.h"
#include "src/coverage/topk_coverage.h"
#include "src/nn/dense.h"
#include "src/nn/model.h"
#include "src/nn/softmax_layer.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dx {
namespace {

// One linear layer with hand-set weights, so neuron i's value for input x is
// exactly weights[i] * x. exclude_output_layer is disabled in these tests so
// the single layer is tracked.
Model LinearModel(const std::vector<float>& weights) {
  Model m("linear", {1});
  auto& dense = m.Emplace<Dense>(1, static_cast<int>(weights.size()));
  for (size_t i = 0; i < weights.size(); ++i) {
    dense.weight()[static_cast<int64_t>(i)] = weights[i];
  }
  return m;
}

CoverageOptions RawOptions() {
  CoverageOptions opts;
  opts.scale_per_layer = false;
  opts.exclude_output_layer = false;
  return opts;
}

Tensor Scalar(float v) {
  Tensor x({1});
  x[0] = v;
  return x;
}

// ---- Factory -----------------------------------------------------------------------------

TEST(CoverageMetricFactoryTest, BuildsRegisteredMetricsByName) {
  const Model m = LinearModel({1.0f, 2.0f});
  const CoverageOptions opts = RawOptions();
  for (const std::string& name : {"neuron", "kmultisection", "topk"}) {
    const auto metric = MakeCoverageMetric(name, m, opts);
    ASSERT_NE(metric, nullptr) << name;
    EXPECT_EQ(metric->name(), name);
    EXPECT_FLOAT_EQ(metric->Coverage(), 0.0f);
  }
  const auto names = CoverageMetricNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "kmultisection"), names.end());
  EXPECT_THROW(MakeCoverageMetric("no-such-metric", m, opts), std::invalid_argument);
}

TEST(CoverageMetricFactoryTest, RegistrationExtendsTheRegistry) {
  const Model m = LinearModel({1.0f});
  RegisterCoverageMetric("neuron-alias",
                         [](const Model& model, const CoverageOptions& options) {
                           return std::make_unique<NeuronCoverageTracker>(model, options);
                         });
  const auto metric = MakeCoverageMetric("neuron-alias", m, RawOptions());
  EXPECT_EQ(metric->name(), "neuron");
}

// ---- k-multisection ----------------------------------------------------------------------

class KMultisectionTest : public ::testing::Test {
 protected:
  KMultisectionTest() : model_(LinearModel({1.0f, 2.0f})) {
    CoverageOptions opts = RawOptions();
    opts.kmc_sections = 4;
    metric_ = std::make_unique<KMultisectionCoverage>(model_, opts);
    // Neuron 0 spans [0, 1], neuron 1 spans [0, 2].
    metric_->ProfileSeed(model_, testing::OracleTrace(model_, Scalar(0.0f)), 0);
    metric_->ProfileSeed(model_, testing::OracleTrace(model_, Scalar(1.0f)), 0);
  }

  Model model_;
  std::unique_ptr<KMultisectionCoverage> metric_;
};

TEST_F(KMultisectionTest, SectionMathSplitsTheProfiledRange) {
  ASSERT_TRUE(metric_->profiled());
  EXPECT_EQ(metric_->sections(), 4);
  EXPECT_EQ(metric_->total_items(), 2 * 4);
  // Neuron 0: range [0, 1], k = 4 -> sections of width 0.25.
  EXPECT_EQ(metric_->SectionOf({0, 0}, 0.0f), 0);    // At the low edge.
  EXPECT_EQ(metric_->SectionOf({0, 0}, 0.1f), 0);
  EXPECT_EQ(metric_->SectionOf({0, 0}, 0.3f), 1);
  EXPECT_EQ(metric_->SectionOf({0, 0}, 0.6f), 2);
  EXPECT_EQ(metric_->SectionOf({0, 0}, 0.999f), 3);
  EXPECT_EQ(metric_->SectionOf({0, 0}, 1.0f), 3);    // At the high edge.
  // Out-of-range values fold into the boundary sections.
  EXPECT_EQ(metric_->SectionOf({0, 0}, -5.0f), 0);
  EXPECT_EQ(metric_->SectionOf({0, 0}, 7.0f), 3);
  // Neuron 1: range [0, 2] -> sections of width 0.5.
  EXPECT_EQ(metric_->SectionOf({0, 1}, 0.6f), 1);
  EXPECT_EQ(metric_->SectionOf({0, 1}, 1.2f), 2);
}

TEST_F(KMultisectionTest, UpdateCoversExactlyTheHitSections) {
  // x = 0.55: neuron 0 value 0.55 -> section 2; neuron 1 value 1.1 -> section 2.
  metric_->UpdateBatch(model_, testing::OracleTrace(model_, Scalar(0.55f)));
  EXPECT_EQ(metric_->covered_items(), 2);
  EXPECT_FLOAT_EQ(metric_->Coverage(), 2.0f / 8.0f);
  EXPECT_TRUE(metric_->IsSectionCovered({0, 0}, 2));
  EXPECT_TRUE(metric_->IsSectionCovered({0, 1}, 2));
  EXPECT_FALSE(metric_->IsSectionCovered({0, 0}, 0));
  // Re-hitting the same sections adds nothing.
  metric_->UpdateBatch(model_, testing::OracleTrace(model_, Scalar(0.55f)));
  EXPECT_EQ(metric_->covered_items(), 2);
}

TEST_F(KMultisectionTest, UnprofiledMetricCoversNothing) {
  CoverageOptions opts = RawOptions();
  opts.kmc_sections = 4;
  KMultisectionCoverage fresh(model_, opts);
  EXPECT_FALSE(fresh.profiled());
  EXPECT_EQ(fresh.SectionOf({0, 0}, 0.5f), -1);
  fresh.UpdateBatch(model_, testing::OracleTrace(model_, Scalar(0.5f)));
  EXPECT_EQ(fresh.covered_items(), 0);
}

TEST(KMultisectionPickTest, PickUncoveredSkipsSaturatedNeurons) {
  // ReLU pair so the neurons' relative positions decouple: neuron 0 is
  // max(0, x), neuron 1 is max(0, -x).
  Model m("relu_pair", {1});
  auto& dense = m.Emplace<Dense>(1, 2, Activation::kRelu);
  dense.weight()[0] = 1.0f;
  dense.weight()[1] = -1.0f;
  CoverageOptions opts = RawOptions();
  opts.kmc_sections = 4;
  KMultisectionCoverage metric(m, opts);
  metric.ProfileSeed(m, testing::OracleTrace(m, Scalar(-1.0f)), 0);  // Ranges: both [0, 1].
  metric.ProfileSeed(m, testing::OracleTrace(m, Scalar(1.0f)), 0);
  // Positive inputs saturate neuron 0's four sections while neuron 1 stays
  // pinned at 0 (only its section 0 is hit).
  for (const float v : {0.05f, 0.3f, 0.6f, 0.95f}) {
    metric.UpdateBatch(m, testing::OracleTrace(m, Scalar(v)));
  }
  EXPECT_EQ(metric.covered_items(), 4 + 1);
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    NeuronId id;
    ASSERT_TRUE(metric.PickUncovered(rng, &id));
    EXPECT_EQ(id.index, 1) << "neuron 0 is saturated and must not be picked";
  }
}

// ---- top-k -------------------------------------------------------------------------------

TEST(TopKCoverageTest, CoversTheKMostActivatedPerLayer) {
  // Neuron values for input x > 0: (1x, 3x, 2x) -> top-1 is neuron 1.
  Model m = LinearModel({1.0f, 3.0f, 2.0f});
  CoverageOptions opts = RawOptions();
  opts.top_k = 1;
  TopKNeuronCoverage metric(m, opts);
  metric.UpdateBatch(m, testing::OracleTrace(m, Scalar(1.0f)));
  EXPECT_TRUE(metric.IsCovered({0, 1}));
  EXPECT_FALSE(metric.IsCovered({0, 0}));
  EXPECT_FALSE(metric.IsCovered({0, 2}));
  EXPECT_FLOAT_EQ(metric.Coverage(), 1.0f / 3.0f);
  // Negative input flips the order: top-1 becomes neuron 0 (value -1 > -3).
  metric.UpdateBatch(m, testing::OracleTrace(m, Scalar(-1.0f)));
  EXPECT_TRUE(metric.IsCovered({0, 0}));
  EXPECT_FLOAT_EQ(metric.Coverage(), 2.0f / 3.0f);
}

TEST(TopKCoverageTest, TiesAtTheKthValueAreInclusive) {
  // Neurons 1 and 2 tie for the top value; with k = 1 both must count.
  Model m = LinearModel({1.0f, 2.0f, 2.0f});
  CoverageOptions opts = RawOptions();
  opts.top_k = 1;
  TopKNeuronCoverage metric(m, opts);
  metric.UpdateBatch(m, testing::OracleTrace(m, Scalar(1.0f)));
  EXPECT_FALSE(metric.IsCovered({0, 0}));
  EXPECT_TRUE(metric.IsCovered({0, 1}));
  EXPECT_TRUE(metric.IsCovered({0, 2}));
}

TEST(TopKCoverageTest, LayersNoLargerThanKSaturateImmediately) {
  Model m = LinearModel({5.0f, -5.0f});
  CoverageOptions opts = RawOptions();
  opts.top_k = 2;
  TopKNeuronCoverage metric(m, opts);
  metric.UpdateBatch(m, testing::OracleTrace(m, Scalar(1.0f)));
  EXPECT_FLOAT_EQ(metric.Coverage(), 1.0f);
  Rng rng(2);
  NeuronId id;
  EXPECT_FALSE(metric.PickUncovered(rng, &id));
}

// ---- Merge / Clone -----------------------------------------------------------------------

// Covers each built-in metric's Merge: commutativity and idempotence.
class MergeSemanticsTest : public ::testing::TestWithParam<std::string> {
 protected:
  MergeSemanticsTest() : model_(LinearModel({1.0f, 2.0f, -1.0f})) {}

  std::unique_ptr<CoverageMetric> Fresh() {
    CoverageOptions opts = RawOptions();
    opts.kmc_sections = 3;
    opts.top_k = 1;
    auto metric = MakeCoverageMetric(GetParam(), model_, opts);
    metric->ProfileSeed(model_, testing::OracleTrace(model_, Scalar(-1.0f)), 0);
    metric->ProfileSeed(model_, testing::OracleTrace(model_, Scalar(1.0f)), 0);
    return metric;
  }

  Model model_;
};

TEST_P(MergeSemanticsTest, MergeIsCommutativeAndIdempotent) {
  auto a = Fresh();
  auto b = Fresh();
  a->UpdateBatch(model_, testing::OracleTrace(model_, Scalar(0.9f)));
  b->UpdateBatch(model_, testing::OracleTrace(model_, Scalar(-0.7f)));

  auto ab = a->Clone();
  ab->Merge(*b);
  auto ba = b->Clone();
  ba->Merge(*a);
  EXPECT_EQ(ab->covered_items(), ba->covered_items());
  EXPECT_GE(ab->covered_items(), a->covered_items());
  EXPECT_GE(ab->covered_items(), b->covered_items());

  // Merging the same tracker again changes nothing.
  const int once = ab->covered_items();
  ab->Merge(*b);
  ab->Merge(*ab->Clone());
  EXPECT_EQ(ab->covered_items(), once);

  // Merging a clone of an empty tracker changes nothing either.
  ab->Merge(*Fresh());
  EXPECT_EQ(ab->covered_items(), once);
}

TEST_P(MergeSemanticsTest, CloneIsIndependentOfTheOriginal) {
  auto a = Fresh();
  auto clone = a->Clone();
  a->UpdateBatch(model_, testing::OracleTrace(model_, Scalar(0.9f)));
  EXPECT_GT(a->covered_items(), 0);
  EXPECT_EQ(clone->covered_items(), 0);
}

// Serializing a metric captures its full state: two trackers are
// state-identical iff their blobs are byte-identical.
std::string StateBlob(const CoverageMetric& metric) {
  std::ostringstream out;
  BinaryWriter writer(out);
  metric.Serialize(writer);
  return out.str();
}

TEST_P(MergeSemanticsTest, MergeIsAssociative) {
  auto a = Fresh();
  auto b = Fresh();
  auto c = Fresh();
  a->UpdateBatch(model_, testing::OracleTrace(model_, Scalar(0.9f)));
  b->UpdateBatch(model_, testing::OracleTrace(model_, Scalar(-0.7f)));
  c->UpdateBatch(model_, testing::OracleTrace(model_, Scalar(0.3f)));

  // (a ⊕ b) ⊕ c — full state compared, not just the covered count.
  auto left = a->Clone();
  left->Merge(*b);
  left->Merge(*c);
  // a ⊕ (b ⊕ c)
  auto right_inner = b->Clone();
  right_inner->Merge(*c);
  auto right = a->Clone();
  right->Merge(*right_inner);
  EXPECT_EQ(StateBlob(*left), StateBlob(*right));
}

TEST_P(MergeSemanticsTest, MergedClonesEqualSerialUpdates) {
  // The parallel-worker execution model: each task updates a Clone() of the
  // session tracker, and the clones are merged back in schedule order. The
  // result must be state-identical to one tracker seeing every trace
  // serially, for ANY partition of the traces.
  const std::vector<float> stimuli = {0.9f, -0.7f, 0.3f, -0.2f, 0.55f, 0.05f};
  auto serial = Fresh();
  for (const float v : stimuli) {
    serial->UpdateBatch(model_, testing::OracleTrace(model_, Scalar(v)));
  }
  for (const size_t split : {size_t{1}, size_t{3}, size_t{5}}) {
    auto base = Fresh();
    auto worker_a = base->Clone();
    auto worker_b = base->Clone();
    for (size_t i = 0; i < stimuli.size(); ++i) {
      CoverageMetric& worker = i < split ? *worker_a : *worker_b;
      worker.UpdateBatch(model_, testing::OracleTrace(model_, Scalar(stimuli[i])));
    }
    base->Merge(*worker_a);
    base->Merge(*worker_b);
    EXPECT_EQ(StateBlob(*base), StateBlob(*serial)) << "split at " << split;
    // Merge order must not matter either.
    auto swapped = Fresh();
    swapped->Merge(*worker_b);
    swapped->Merge(*worker_a);
    EXPECT_EQ(StateBlob(*swapped), StateBlob(*serial)) << "split at " << split;
  }
}

// ---- Serialize / Deserialize -------------------------------------------------------------

TEST_P(MergeSemanticsTest, SerializeDeserializeRoundTripsFullState) {
  auto metric = Fresh();
  metric->UpdateBatch(model_, testing::OracleTrace(model_, Scalar(0.9f)));
  metric->UpdateBatch(model_, testing::OracleTrace(model_, Scalar(-0.4f)));
  const std::string blob = StateBlob(*metric);

  auto restored = Fresh();
  std::istringstream in(blob);
  BinaryReader reader(in);
  restored->Deserialize(reader);
  EXPECT_EQ(restored->covered_items(), metric->covered_items());
  EXPECT_FLOAT_EQ(restored->Coverage(), metric->Coverage());
  EXPECT_EQ(StateBlob(*restored), blob);

  // The restored tracker keeps working: it accepts updates and merges.
  restored->UpdateBatch(model_, testing::OracleTrace(model_, Scalar(0.1f)));
  metric->UpdateBatch(model_, testing::OracleTrace(model_, Scalar(0.1f)));
  EXPECT_EQ(StateBlob(*restored), StateBlob(*metric));
}

TEST_P(MergeSemanticsTest, DeserializeRejectsMismatchedSnapshots) {
  auto metric = Fresh();
  metric->UpdateBatch(model_, testing::OracleTrace(model_, Scalar(0.9f)));
  const std::string blob = StateBlob(*metric);

  // A tracker over a different model (one more neuron) must reject the blob.
  Model bigger = LinearModel({1.0f, 2.0f, -1.0f, 0.5f});
  CoverageOptions opts = RawOptions();
  opts.kmc_sections = 3;
  opts.top_k = 1;
  auto other = MakeCoverageMetric(GetParam(), bigger, opts);
  std::istringstream in(blob);
  BinaryReader reader(in);
  EXPECT_THROW(other->Deserialize(reader), std::runtime_error);

  // Truncated streams are detected, not silently accepted.
  auto truncated_target = Fresh();
  std::istringstream short_in(blob.substr(0, blob.size() / 2));
  BinaryReader short_reader(short_in);
  EXPECT_THROW(truncated_target->Deserialize(short_reader), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MergeSemanticsTest,
                         ::testing::Values("neuron", "kmultisection", "topk"));

TEST(MergeSemanticsTest, TypeMismatchThrows) {
  const Model m = LinearModel({1.0f, 2.0f});
  const CoverageOptions opts = RawOptions();
  NeuronCoverageTracker neuron(m, opts);
  TopKNeuronCoverage topk(m, opts);
  KMultisectionCoverage kmc(m, opts);
  EXPECT_THROW(neuron.Merge(topk), std::invalid_argument);
  EXPECT_THROW(topk.Merge(kmc), std::invalid_argument);
  EXPECT_THROW(kmc.Merge(neuron), std::invalid_argument);
}

TEST(MergeSemanticsTest, DifferentModelShapesThrow) {
  const Model a = LinearModel({1.0f, 2.0f});
  const Model b = LinearModel({1.0f, 2.0f, 3.0f});
  const CoverageOptions opts = RawOptions();
  NeuronCoverageTracker ta(a, opts);
  NeuronCoverageTracker tb(b, opts);
  EXPECT_THROW(ta.Merge(tb), std::invalid_argument);
}

}  // namespace
}  // namespace dx
