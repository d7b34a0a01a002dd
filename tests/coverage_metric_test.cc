// The pluggable CoverageMetric interface: factory lookup, k-multisection
// bucket math, top-k tie handling, Merge/Clone semantics (commutative,
// associative, idempotent, and equal to a serial run — the algebra parallel
// worker merging relies on), and Serialize/Deserialize round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
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

TEST_F(KMultisectionTest, ValuesWithoutAFinitePositionHaveNoSection) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(metric_->SectionOf({0, 0}, nan), -1);
  metric_->UpdateBatch(model_, testing::OracleTrace(model_, Scalar(nan)));
  EXPECT_EQ(metric_->covered_items(), 0);

  // A profiled range of [-inf, +inf] spans inf / inf: no finite value has a
  // section in it.
  CoverageOptions opts = RawOptions();
  opts.kmc_sections = 4;
  KMultisectionCoverage unbounded(model_, opts);
  const float inf = std::numeric_limits<float>::infinity();
  unbounded.ProfileSeed(model_, testing::OracleTrace(model_, Scalar(-inf)), 0);
  unbounded.ProfileSeed(model_, testing::OracleTrace(model_, Scalar(inf)), 0);
  EXPECT_EQ(unbounded.SectionOf({0, 0}, 0.5f), -1);
  unbounded.UpdateBatch(model_, testing::OracleTrace(model_, Scalar(0.5f)));
  EXPECT_EQ(unbounded.covered_items(), 0);
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

// ---- PickUncovered pinned to count-then-select ------------------------------------------

// True when tracked neuron `id` still has an uncovered item, read through the
// public per-item queries only.
bool HasUncoveredItem(const CoverageMetric& metric, const NeuronId& id) {
  if (const auto* kmc = dynamic_cast<const KMultisectionCoverage*>(&metric)) {
    for (int s = 0; s < kmc->sections(); ++s) {
      if (!kmc->IsSectionCovered(id, s)) {
        return true;
      }
    }
    return false;
  }
  if (const auto* topk = dynamic_cast<const TopKNeuronCoverage*>(&metric)) {
    return !topk->IsCovered(id);
  }
  return !dynamic_cast<const NeuronCoverageTracker&>(metric).IsCovered(id);
}

int BruteForceCovered(const CoverageMetric& metric) {
  const auto& value_metric = dynamic_cast<const NeuronValueMetric&>(metric);
  const auto* kmc = dynamic_cast<const KMultisectionCoverage*>(&metric);
  int covered = 0;
  for (const NeuronId& id : value_metric.TrackedNeurons()) {
    if (kmc == nullptr) {
      covered += HasUncoveredItem(metric, id) ? 0 : 1;
      continue;
    }
    for (int s = 0; s < kmc->sections(); ++s) {
      covered += kmc->IsSectionCovered(id, s) ? 1 : 0;
    }
  }
  return covered;
}

// Reference pick, written over the public queries: count the neurons with
// an uncovered item, draw r = UniformInt(0, count - 1) (no draw when the
// count is 0), return the r-th of them in canonical order.
bool CountThenSelectPick(const CoverageMetric& metric, Rng& rng, NeuronId* id) {
  const auto& tracked = dynamic_cast<const NeuronValueMetric&>(metric).TrackedNeurons();
  int64_t count = 0;
  for (const NeuronId& n : tracked) {
    count += HasUncoveredItem(metric, n) ? 1 : 0;
  }
  if (count == 0) {
    return false;
  }
  const int64_t r = rng.UniformInt(0, count - 1);
  int64_t seen = 0;
  for (const NeuronId& n : tracked) {
    if (HasUncoveredItem(metric, n) && seen++ == r) {
      *id = n;
      return true;
    }
  }
  return false;
}

std::unique_ptr<CoverageMetric> RoundTrip(const CoverageMetric& metric, const Model& model,
                                          const CoverageOptions& opts) {
  const std::string blob = StateBlob(metric);
  auto restored = MakeCoverageMetric(metric.name(), model, opts);
  std::istringstream in(blob);
  BinaryReader reader(in);
  restored->Deserialize(reader);
  EXPECT_EQ(StateBlob(*restored), blob);
  return restored;
}

// A seeded random mix of UpdateBatch, Merge of an updated clone and a
// Serialize -> Deserialize round trip; after every step PickUncovered must
// return what the count-then-select reference returns from the same Rng
// state — the same bool and neuron, and the same Rng state afterwards.
// Returns how many steps ended with nothing left to pick.
int ExpectPicksMatchReference(const std::string& name, const Model& model,
                              const CoverageOptions& opts, float input_range, uint64_t seed) {
  Rng rng(seed);
  const auto random_trace = [&] {
    const int batch = static_cast<int>(rng.UniformInt(1, 3));
    return testing::OracleForwardBatch(
        model, Tensor::RandUniform(BatchedShape(batch, model.input_shape()), rng, -input_range,
                                   input_range));
  };
  auto metric = MakeCoverageMetric(name, model, opts);
  for (int p = 0; p < 4; ++p) {
    const BatchTrace trace = random_trace();
    for (int b = 0; b < trace.batch; ++b) {
      metric->ProfileSeed(model, trace, b);
    }
  }
  int saturated = 0;
  for (int step = 0; step < 60; ++step) {
    const int kind = static_cast<int>(rng.UniformInt(0, 2));
    if (kind == 0) {
      metric->UpdateBatch(model, random_trace());
    } else if (kind == 1) {
      auto clone = metric->Clone();
      clone->UpdateBatch(model, random_trace());
      metric->Merge(*clone);
    } else {
      metric = RoundTrip(*metric, model, opts);
    }
    const std::string where = name + " step " + std::to_string(step) + " kind " +
                              std::to_string(kind);
    Rng got_rng = rng;
    Rng want_rng = rng;
    NeuronId got;
    NeuronId want;
    const bool got_ok = metric->PickUncovered(got_rng, &got);
    const bool want_ok = CountThenSelectPick(*metric, want_rng, &want);
    EXPECT_EQ(got_ok, want_ok) << where;
    if (got_ok && want_ok) {
      EXPECT_EQ(got.layer, want.layer) << where;
      EXPECT_EQ(got.index, want.index) << where;
    }
    EXPECT_EQ(got_rng.NextU64(), want_rng.NextU64()) << where << ": Rng state differs";
    EXPECT_EQ(metric->covered_items(), BruteForceCovered(*metric)) << where;
    saturated += want_ok ? 0 : 1;
    rng.NextU64();  // Vary the draw the next step's picks start from.
  }
  return saturated;
}

class PickPinTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PickPinTest, MatchesCountThenSelectOverUpdatesMergesAndRoundTrips) {
  // 66 + 5 tracked neurons span two 64-bit words of the open set.
  Model wide("wide", {4});
  Rng init(7);
  wide.Emplace<Dense>(4, 66, Activation::kRelu).InitParams(init);
  wide.Emplace<Dense>(66, 5, Activation::kTanh).InitParams(init);
  wide.Emplace<Dense>(5, 3).InitParams(init);
  CoverageOptions opts;
  opts.threshold = 0.6f;
  opts.kmc_sections = 3;
  ExpectPicksMatchReference(GetParam(), wide, opts, 2.0f, 11);

  // Two opposite neurons: every metric saturates, so the no-draw branch of
  // both picks is compared too.
  const Model pair = LinearModel({1.0f, -1.0f});
  CoverageOptions raw = RawOptions();
  raw.top_k = 1;
  raw.kmc_sections = 2;
  EXPECT_GT(ExpectPicksMatchReference(GetParam(), pair, raw, 1.0f, 12), 0)
      << "the two-neuron model never saturated";
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, PickPinTest,
                         ::testing::Values("neuron", "kmultisection", "topk"));

// ---- k-multisection words against a flag-vector reference --------------------------------

// Every observable of a k-multisection tracker against a plain flag vector
// (neuron-major, the layout its 64-bit words replaced): the counts, every
// section's flag, PickUncovered's draws and Serialize's bytes.
void ExpectMatchesFlags(const KMultisectionCoverage& metric, const std::vector<bool>& flags,
                        uint64_t pick_seed, const std::string& where) {
  const int k = metric.sections();
  const std::vector<NeuronId>& neurons = metric.TrackedNeurons();
  ASSERT_EQ(flags.size(), neurons.size() * static_cast<size_t>(k)) << where;
  const int covered = static_cast<int>(std::count(flags.begin(), flags.end(), true));
  EXPECT_EQ(metric.covered_items(), covered) << where;
  EXPECT_EQ(metric.Coverage(),
            static_cast<float>(covered) / static_cast<float>(flags.size()))
      << where;
  std::vector<NeuronId> open;
  for (size_t i = 0; i < neurons.size(); ++i) {
    bool any_open = false;
    for (int s = 0; s < k; ++s) {
      const bool flag = flags[i * static_cast<size_t>(k) + static_cast<size_t>(s)];
      EXPECT_EQ(metric.IsSectionCovered(neurons[i], s), flag)
          << where << " neuron " << i << " section " << s;
      any_open = any_open || !flag;
    }
    if (any_open) {
      open.push_back(neurons[i]);
    }
  }
  Rng got_rng(pick_seed);
  Rng want_rng(pick_seed);
  for (int draw = 0; draw < 3; ++draw) {
    NeuronId got;
    ASSERT_EQ(metric.PickUncovered(got_rng, &got), !open.empty()) << where;
    if (!open.empty()) {
      const int64_t r = want_rng.UniformInt(0, static_cast<int64_t>(open.size()) - 1);
      EXPECT_EQ(got, open[static_cast<size_t>(r)]) << where << " draw " << draw;
    }
  }
  std::ostringstream want(std::ios::binary);
  BinaryWriter writer(want);
  writer.WriteString("kmultisection");
  writer.WriteU32(1);  // Version.
  writer.WriteU32(static_cast<uint32_t>(neurons.size()));
  writer.WriteU32(static_cast<uint32_t>(k));
  writer.WriteU32(metric.profiled() ? 1 : 0);
  writer.WriteFloats(metric.low());
  writer.WriteFloats(metric.high());
  writer.WriteBools(flags);
  EXPECT_EQ(StateBlob(metric), want.str()) << where;
}

// Sets the flags an UpdateBatch of `trace` covers, by the metric's own
// section math.
void UpdateFlags(const KMultisectionCoverage& metric, const Model& model, const BatchTrace& trace,
                 std::vector<bool>* flags) {
  const size_t k = static_cast<size_t>(metric.sections());
  const std::vector<NeuronId>& neurons = metric.TrackedNeurons();
  for (int b = 0; b < trace.batch; ++b) {
    const std::vector<float> values = metric.NeuronValues(model, trace, b);
    for (size_t i = 0; i < neurons.size(); ++i) {
      const int section = metric.SectionOf(neurons[i], values[i]);
      if (section >= 0) {
        (*flags)[i * k + static_cast<size_t>(section)] = true;
      }
    }
  }
}

// 9 + 5 tracked neurons: at k = 7, 10, 64 and 65 some neurons' sections
// straddle a 64-bit word boundary.
Model SectionNet() {
  Model m("sections", {3});
  Rng init(21);
  m.Emplace<Dense>(3, 9, Activation::kRelu).InitParams(init);
  m.Emplace<Dense>(9, 5, Activation::kTanh).InitParams(init);
  m.Emplace<Dense>(5, 2).InitParams(init);
  return m;
}

TEST(KMultisectionWordsTest, MatchFlagVectorReference) {
  const Model model = SectionNet();
  for (const int k : {1, 7, 10, 64, 65}) {
    CoverageOptions opts;
    opts.kmc_sections = k;
    Rng rng(300 + static_cast<uint64_t>(k));
    // Narrow profiling inputs, wider test inputs: both boundary sections
    // and the interior get hit over the run, yet not all of them at once.
    const auto random_trace = [&](float range) {
      const int batch = static_cast<int>(rng.UniformInt(1, 3));
      return testing::OracleForwardBatch(
          model, Tensor::RandUniform(BatchedShape(batch, model.input_shape()), rng, -range,
                                     range));
    };
    auto metric = std::make_unique<KMultisectionCoverage>(model, opts);
    for (int p = 0; p < 3; ++p) {
      const BatchTrace trace = random_trace(0.5f);
      for (int b = 0; b < trace.batch; ++b) {
        metric->ProfileSeed(model, trace, b);
      }
    }
    std::vector<bool> flags(static_cast<size_t>(metric->total_items()), false);
    ExpectMatchesFlags(*metric, flags, 1, "k=" + std::to_string(k) + " start");
    int merges = 0;
    for (int step = 0; step < 40; ++step) {
      const int kind = static_cast<int>(rng.UniformInt(0, 2));
      if (kind == 0) {
        const BatchTrace trace = random_trace(1.0f);
        metric->UpdateBatch(model, trace);
        UpdateFlags(*metric, model, trace, &flags);
      } else if (kind == 1) {
        // Both sides gain sections the other lacks before the merge.
        auto clone = metric->Clone();
        auto& other = dynamic_cast<KMultisectionCoverage&>(*clone);
        std::vector<bool> other_flags = flags;
        for (int u = 0; u < 2; ++u) {
          const BatchTrace trace = random_trace(1.0f);
          other.UpdateBatch(model, trace);
          UpdateFlags(other, model, trace, &other_flags);
        }
        const BatchTrace trace = random_trace(1.0f);
        metric->UpdateBatch(model, trace);
        UpdateFlags(*metric, model, trace, &flags);
        metric->Merge(other);
        for (size_t i = 0; i < flags.size(); ++i) {
          flags[i] = flags[i] || other_flags[i];
        }
        ++merges;
      } else {
        auto restored = RoundTrip(*metric, model, opts);
        metric.reset(dynamic_cast<KMultisectionCoverage*>(restored.release()));
      }
      ExpectMatchesFlags(*metric, flags, 1000 + static_cast<uint64_t>(step),
                         "k=" + std::to_string(k) + " step " + std::to_string(step) +
                             " kind " + std::to_string(kind));
    }
    EXPECT_GT(merges, 0);
    EXPECT_GT(metric->covered_items(), 0);
  }
}

TEST(KMultisectionWordsTest, CloneWritesLeaveTheSourceRangesAlone) {
  const Model model = SectionNet();
  CoverageOptions opts;
  opts.kmc_sections = 7;
  Rng rng(5);
  const BatchTrace narrow = testing::OracleForwardBatch(
      model, Tensor::RandUniform(BatchedShape(3, model.input_shape()), rng, -0.3f, 0.3f));
  const BatchTrace wide = testing::OracleForwardBatch(
      model, Tensor::RandUniform(BatchedShape(3, model.input_shape()), rng, -3.0f, 3.0f));
  KMultisectionCoverage source(model, opts);
  for (int b = 0; b < narrow.batch; ++b) {
    source.ProfileSeed(model, narrow, b);
  }
  const std::vector<float> low = source.low();
  const std::vector<float> high = source.high();

  // ProfileSeed on a clone widens the clone's ranges only.
  auto profiled = source.Clone();
  auto& profiled_kmc = dynamic_cast<KMultisectionCoverage&>(*profiled);
  for (int b = 0; b < wide.batch; ++b) {
    profiled_kmc.ProfileSeed(model, wide, b);
  }
  EXPECT_NE(profiled_kmc.low(), low);
  EXPECT_EQ(source.low(), low);
  EXPECT_EQ(source.high(), high);

  // Deserialize on a clone replaces the clone's ranges only.
  auto restored = source.Clone();
  const std::string blob = StateBlob(profiled_kmc);
  std::istringstream in(blob);
  BinaryReader reader(in);
  restored->Deserialize(reader);
  EXPECT_EQ(dynamic_cast<const KMultisectionCoverage&>(*restored).low(), profiled_kmc.low());
  EXPECT_EQ(source.low(), low);
  EXPECT_EQ(source.high(), high);

  // And profiling the source leaves its earlier clones as they were.
  auto before = source.Clone();
  for (int b = 0; b < wide.batch; ++b) {
    source.ProfileSeed(model, wide, b);
  }
  EXPECT_EQ(dynamic_cast<const KMultisectionCoverage&>(*before).low(), low);
  EXPECT_EQ(dynamic_cast<const KMultisectionCoverage&>(*before).high(), high);
  EXPECT_NE(source.low(), low);
}

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
