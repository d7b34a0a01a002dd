// Corpus maintenance subsystem: distill / dedup / minimize must produce
// derived corpora that verify under Session::Replay with merged retained
// coverage exactly equal to the source's, dedup must be deterministic and
// drop exact copies, CompactCorpus must chain the passes exactly as running
// them one after another does, minimized entries must still be
// difference-inducing, and a checkpointed campaign must resume
// bit-identically — including after a crash that tore a record appended to
// checkpoints.bin, which opening must leave untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/constraints/image_constraints.h"
#include "src/core/session.h"
#include "src/corpus/corpus.h"
#include "src/corpus/dedup.h"
#include "src/corpus/distill.h"
#include "src/corpus/maintenance.h"
#include "src/corpus/minimize.h"
#include "src/coverage/coverage_metric.h"
#include "src/data/dataset.h"
#include "src/models/trainer.h"
#include "src/nn/dense.h"
#include "src/nn/model.h"
#include "src/nn/softmax_layer.h"
#include "src/util/rng.h"
#include "src/util/serialize.h"
#include "tests/test_util.h"

namespace dx {
namespace {

Dataset MakeToyTask(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset ds{"toy", {2}, 2, {}, {}};
  while (ds.size() < n) {
    Tensor x({2});
    x[0] = rng.NextFloat();
    x[1] = rng.NextFloat();
    if (std::abs(x[0] - x[1]) < 0.08f) {
      continue;
    }
    const float label = x[0] > x[1] ? 0.0f : 1.0f;  // Before the move.
    ds.Add(std::move(x), label);
  }
  return ds;
}

Model MakeToyClassifier(const std::string& name, int hidden, uint64_t seed) {
  Rng rng(seed);
  Model m(name, {2});
  m.Emplace<Dense>(2, hidden, Activation::kRelu).InitParams(rng);
  m.Emplace<Dense>(hidden, 2).InitParams(rng);
  m.Emplace<SoftmaxLayer>();
  return m;
}

class MaintenanceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Dataset train = MakeToyTask(500, 2);
    models_ = new std::vector<Model>();
    models_->push_back(MakeToyClassifier("mt_a", 16, 41));
    models_->push_back(MakeToyClassifier("mt_b", 24, 42));
    models_->push_back(MakeToyClassifier("mt_c", 12, 43));
    for (Model& m : *models_) {
      TrainConfig cfg;
      cfg.epochs = 8;
      cfg.learning_rate = 5e-3f;
      cfg.seed = 7;
      Trainer::Fit(&m, train, cfg);
      ASSERT_GT(Trainer::Accuracy(m, train), 0.9f);
    }
    seeds_ = new std::vector<Tensor>();
    Rng rng(44);
    while (seeds_->size() < 30) {
      Tensor x({2});
      x[0] = rng.NextFloat();
      x[1] = rng.NextFloat();
      const float margin = std::abs(x[0] - x[1]);
      if (margin > 0.1f && margin < 0.3f) {
        seeds_->push_back(std::move(x));
      }
    }
  }
  static void TearDownTestSuite() {
    delete seeds_;
    delete models_;
    seeds_ = nullptr;
    models_ = nullptr;
  }

  static std::vector<Model*> ModelPtrs() {
    std::vector<Model*> ptrs;
    for (Model& m : *models_) {
      ptrs.push_back(&m);
    }
    return ptrs;
  }

  // Small sync batches so a 30-seed pass spans several checkpoints.
  static SessionConfig BaseConfig(const std::string& metric = "neuron") {
    SessionConfig config;
    config.engine.lambda1 = 2.5f;
    config.engine.step = 0.05f;
    config.engine.max_iterations_per_seed = 120;
    config.engine.rng_seed = 19;
    config.metric = metric;
    config.sync_interval = 8;
    return config;
  }

  static RunOptions Bounds() {
    RunOptions options;
    options.max_seed_passes = 2;
    return options;
  }

  std::string TempCorpusDir(const std::string& name) {
    const std::string dir =
        ::testing::TempDir() + "corpus_maintenance_test_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" + name;
    std::filesystem::remove_all(dir);
    return dir;
  }

  // Records a full toy campaign into `dir` and returns its stats.
  RunStats Record(const std::string& dir, const std::string& metric = "neuron") {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, BaseConfig(metric));
    Corpus corpus(dir);
    return session.Run(*seeds_, Bounds(), &corpus);
  }

  // Per-model covered_items() of the merged coverage footprint over ALL of
  // the corpus' stored entries — the quantity every maintenance pass must
  // preserve exactly. Computed on a fresh session profiled here, not through
  // Session::ResetForCorpus, so that it checks what the passes start from.
  static std::vector<int> MergedEntryCoverage(const Corpus& corpus) {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, RecordedConfig(corpus.meta()));
    session.ProfileSeeds(corpus.meta().seeds);
    std::vector<const Tensor*> inputs;
    for (const GeneratedTest& entry : corpus.entries()) {
      inputs.push_back(&entry.input);
    }
    std::vector<CoverageFootprint> footprints = ComputeFootprints(session, inputs);
    if (footprints.empty()) {
      return {};
    }
    CoverageFootprint acc = CloneFootprint(footprints[0]);
    for (size_t i = 1; i < footprints.size(); ++i) {
      MergeFootprint(acc, footprints[i]);
    }
    std::vector<int> covered;
    for (const auto& metric : acc) {
      covered.push_back(metric->covered_items());
    }
    return covered;
  }

  // Per-model covered_items() restored from a corpus checkpoint's metric
  // blobs (what a derived corpus stamps as its final coverage state).
  static std::vector<int> CheckpointCoverage(const Corpus& corpus) {
    std::vector<int> covered;
    const CorpusCheckpoint& cp = corpus.checkpoint();
    for (size_t k = 0; k < cp.metric_blobs.size(); ++k) {
      auto metric = MakeCoverageMetric(corpus.meta().metric, (*models_)[k],
                                       corpus.meta().engine.coverage);
      std::istringstream in(cp.metric_blobs[k]);
      BinaryReader reader(in);
      metric->Deserialize(reader);
      covered.push_back(metric->covered_items());
    }
    return covered;
  }

  static void ExpectSameResults(const RunStats& a, const RunStats& b) {
    ASSERT_EQ(a.tests.size(), b.tests.size());
    EXPECT_EQ(a.seeds_tried, b.seeds_tried);
    EXPECT_EQ(a.seeds_skipped, b.seeds_skipped);
    EXPECT_EQ(a.total_iterations, b.total_iterations);
    EXPECT_EQ(a.forward_passes, b.forward_passes);
    EXPECT_FLOAT_EQ(a.mean_coverage, b.mean_coverage);
    for (size_t i = 0; i < a.tests.size(); ++i) {
      EXPECT_EQ(a.tests[i].input.values(), b.tests[i].input.values()) << "test " << i;
      EXPECT_EQ(a.tests[i].seed_index, b.tests[i].seed_index) << "test " << i;
      EXPECT_EQ(a.tests[i].iterations, b.tests[i].iterations) << "test " << i;
      EXPECT_EQ(a.tests[i].deviating_model, b.tests[i].deviating_model) << "test " << i;
      EXPECT_EQ(a.tests[i].task_ordinal, b.tests[i].task_ordinal) << "test " << i;
      EXPECT_EQ(a.tests[i].labels, b.tests[i].labels) << "test " << i;
    }
  }

  static std::vector<Model>* models_;
  static std::vector<Tensor>* seeds_;
};

std::vector<Model>* MaintenanceTest::models_ = nullptr;
std::vector<Tensor>* MaintenanceTest::seeds_ = nullptr;

// ---- Distill + dedup + minimize round trip -----------------------------------------------

TEST_F(MaintenanceTest, RoundTripVerifiesAndPreservesMergedCoverage) {
  const std::string dir = TempCorpusDir("src");
  const RunStats recorded = Record(dir);
  ASSERT_GT(recorded.tests.size(), 3u);

  UnconstrainedImage constraint;
  Session session(ModelPtrs(), &constraint, BaseConfig());
  Corpus source(dir);
  const std::vector<int> original = MergedEntryCoverage(source);
  ASSERT_EQ(original.size(), 3u);

  // Distill: retained coverage must equal the full corpus' — greedy-in-order
  // only drops entries whose footprint is already covered.
  DistillOptions distill;
  distill.out_dir = TempCorpusDir("distilled");
  const MaintenanceReport r1 = DistillCorpus(session, source, distill);
  EXPECT_EQ(r1.transform, "distill");
  EXPECT_EQ(r1.input_entries, source.entries().size());
  EXPECT_LE(r1.retained_entries, r1.input_entries);
  Corpus distilled(distill.out_dir);
  EXPECT_EQ(CheckpointCoverage(distilled), original);

  // Dedup: a near-duplicate that covers something new is kept, so the merged
  // coverage stays exact.
  DedupOptions dedup;
  dedup.out_dir = TempCorpusDir("deduped");
  const MaintenanceReport r2 = DedupCorpus(session, distilled, dedup);
  EXPECT_EQ(r2.transform, "dedup");
  EXPECT_EQ(r2.input_entries, distilled.entries().size());
  EXPECT_LE(r2.retained_entries, r2.input_entries);
  Corpus deduped(dedup.out_dir);
  EXPECT_EQ(CheckpointCoverage(deduped), original);

  // Minimize: never drops entries, only reverts values toward the seed, and
  // only while the per-model merged coverage stays exactly on target.
  MinimizeOptions minimize;
  minimize.out_dir = TempCorpusDir("minimized");
  const MaintenanceReport r3 = MinimizeCorpus(session, deduped, minimize);
  EXPECT_EQ(r3.transform, "minimize");
  EXPECT_EQ(r3.input_entries, deduped.entries().size());
  EXPECT_EQ(r3.retained_entries, r3.input_entries);

  Corpus minimized(minimize.out_dir);
  EXPECT_EQ(CheckpointCoverage(minimized), original);
  EXPECT_TRUE(minimized.journal().empty());
  EXPECT_TRUE(minimized.checkpoint().complete);
  const std::string* transform = minimized.meta().FindMetadata("transform");
  ASSERT_NE(transform, nullptr);
  EXPECT_EQ(*transform, "distill+dedup+minimize");
  const std::string* derived_from = minimized.meta().FindMetadata("derived_from");
  ASSERT_NE(derived_from, nullptr);
  EXPECT_EQ(*derived_from, dedup.out_dir);

  // Every derived stage verifies under Session::Replay (re-predict entries,
  // re-derive coverage, compare byte-for-byte against the checkpoint).
  for (const Corpus* corpus : {&distilled, &deduped, &minimized}) {
    const ReplayResult result = session.Replay(*corpus);
    EXPECT_TRUE(result.ok) << corpus->dir() << ": " << result.mismatch;
  }

  // Minimized entries are still difference-inducing with their stored
  // per-model labels.
  for (const GeneratedTest& entry : minimized.entries()) {
    EXPECT_TRUE(testing::Disagrees(session, entry.input));
    EXPECT_EQ(session.Predict({&entry.input})[0].labels, entry.labels);
  }

  // A derived corpus has no journal, so it can be verified but never
  // resumed as a campaign.
  Session fresh(ModelPtrs(), &constraint, BaseConfig());
  Corpus reopened(minimize.out_dir);
  EXPECT_THROW(fresh.Run(reopened.meta().seeds, Bounds(), &reopened),
               std::invalid_argument);
}

// Every pass checks the session's wiring against its corpus before it writes
// anything. Run under another metric or other coverage options, a pass would
// write a derived corpus whose manifest names the source's wiring but whose
// coverage came from the session, and which then fails its own replay.
TEST_F(MaintenanceTest, PassesRefuseASessionWiredUnlikeTheirCorpus) {
  const std::string dir = TempCorpusDir("src");
  ASSERT_GT(Record(dir).tests.size(), 3u);
  Corpus source(dir);

  UnconstrainedImage constraint;
  const SessionConfig other_metric = BaseConfig("kmultisection");
  SessionConfig other_threshold = BaseConfig();
  other_threshold.engine.coverage.threshold = 0.75f;
  for (const SessionConfig& config : {other_metric, other_threshold}) {
    SCOPED_TRACE(config.metric + ", threshold " +
                 std::to_string(config.engine.coverage.threshold));
    Session session(ModelPtrs(), &constraint, config);
    DistillOptions distill;
    distill.out_dir = TempCorpusDir("distilled");
    EXPECT_THROW(DistillCorpus(session, source, distill), std::invalid_argument);
    EXPECT_FALSE(std::filesystem::exists(distill.out_dir));
    DedupOptions dedup;
    dedup.out_dir = TempCorpusDir("deduped");
    EXPECT_THROW(DedupCorpus(session, source, dedup), std::invalid_argument);
    EXPECT_FALSE(std::filesystem::exists(dedup.out_dir));
    MinimizeOptions minimize;
    minimize.out_dir = TempCorpusDir("minimized");
    EXPECT_THROW(MinimizeCorpus(session, source, minimize), std::invalid_argument);
    EXPECT_FALSE(std::filesystem::exists(minimize.out_dir));
  }

  // A derived corpus, like its source, replays only under the wiring it
  // records.
  Session matching(ModelPtrs(), &constraint, BaseConfig());
  DistillOptions distill;
  distill.out_dir = TempCorpusDir("distilled");
  DistillCorpus(matching, source, distill);
  Corpus distilled(distill.out_dir);
  const ReplayResult result = matching.Replay(distilled);
  EXPECT_TRUE(result.ok) << result.mismatch;
  Session other(ModelPtrs(), &constraint, other_threshold);
  EXPECT_THROW(other.Replay(source), std::invalid_argument);
  EXPECT_THROW(other.Replay(distilled), std::invalid_argument);
}

// k-multisection profiles the seeds before it buckets anything, so each pass
// and each derived-corpus verification must start from the profiled state
// (Session::ResetForCorpus): every derived corpus keeps the source's merged
// coverage and replays clean.
TEST_F(MaintenanceTest, SeedProfilingCorpusRoundTripsThroughEveryPass) {
  const std::string dir = TempCorpusDir("src");
  ASSERT_GT(Record(dir, "kmultisection").tests.size(), 3u);

  UnconstrainedImage constraint;
  Session session(ModelPtrs(), &constraint, BaseConfig("kmultisection"));
  ASSERT_TRUE(session.metric(0).WantsSeedProfile());
  Corpus source(dir);
  const std::vector<int> original = MergedEntryCoverage(source);

  DistillOptions distill;
  distill.out_dir = TempCorpusDir("distilled");
  DistillCorpus(session, source, distill);
  Corpus distilled(distill.out_dir);
  DedupOptions dedup;
  dedup.out_dir = TempCorpusDir("deduped");
  DedupCorpus(session, distilled, dedup);
  Corpus deduped(dedup.out_dir);
  MinimizeOptions minimize;
  minimize.out_dir = TempCorpusDir("minimized");
  MinimizeCorpus(session, deduped, minimize);
  Corpus minimized(minimize.out_dir);

  for (const Corpus* corpus : {&distilled, &deduped, &minimized}) {
    EXPECT_EQ(CheckpointCoverage(*corpus), original) << corpus->dir();
    const ReplayResult result = session.Replay(*corpus);
    EXPECT_TRUE(result.ok) << corpus->dir() << ": " << result.mismatch;
  }
}

// Minimizing a regression entry rewrites its stored outputs, and the model
// farthest from their mean can change with them: the entry's
// deviating_model must be re-stamped, or `corpus stats` attributes it to the
// wrong model.
TEST_F(MaintenanceTest, MinimizedRegressionEntriesNameTheirCurrentDeviator) {
  std::vector<Model> trio;
  for (int k = 0; k < 3; ++k) {
    Rng rng(60 + static_cast<uint64_t>(k));
    const int hidden = 12 + 4 * k;
    Model m("mt_reg_" + std::to_string(k), {8});
    m.Emplace<Dense>(8, hidden, Activation::kRelu).InitParams(rng);
    m.Emplace<Dense>(hidden, 1, Activation::kTanh).InitParams(rng);
    trio.push_back(std::move(m));
  }
  std::vector<Model*> ptrs;
  for (Model& m : trio) {
    ptrs.push_back(&m);
  }
  std::vector<Tensor> seeds;
  Rng rng(65);
  for (int i = 0; i < 30; ++i) {
    seeds.push_back(Tensor::RandUniform({8}, rng));
  }
  SessionConfig config;
  config.engine.steering_eps = 0.3f;
  config.engine.step = 0.05f;
  config.engine.rng_seed = 23;
  config.sync_interval = 8;
  UnconstrainedImage constraint;
  Session session(ptrs, &constraint, config);
  const std::string dir = TempCorpusDir("src");
  {
    Corpus corpus(dir);
    ASSERT_GT(session.Run(seeds, RunOptions{}, &corpus).tests.size(), 0u);
  }

  Corpus source(dir);
  MinimizeOptions minimize;
  minimize.out_dir = TempCorpusDir("minimized");
  const MaintenanceReport report = MinimizeCorpus(session, source, minimize);
  ASSERT_GT(report.modified_entries, 0u);

  // The deviator rule, restated: the model farthest from the outputs' mean.
  const auto farthest_from_mean = [](const std::vector<float>& outputs) {
    double mean = 0.0;
    for (const float v : outputs) {
      mean += v;
    }
    mean /= static_cast<double>(outputs.size());
    int farthest = 0;
    for (size_t k = 1; k < outputs.size(); ++k) {
      if (std::abs(outputs[k] - static_cast<float>(mean)) >
          std::abs(outputs[static_cast<size_t>(farthest)] - static_cast<float>(mean))) {
        farthest = static_cast<int>(k);
      }
    }
    return farthest;
  };
  Corpus minimized(minimize.out_dir);
  ASSERT_EQ(minimized.entries().size(), source.entries().size());
  int moved = 0;
  for (size_t i = 0; i < minimized.entries().size(); ++i) {
    const GeneratedTest& entry = minimized.entries()[i];
    EXPECT_EQ(session.Predict({&entry.input})[0].outputs, entry.outputs) << "entry " << i;
    EXPECT_EQ(entry.deviating_model, farthest_from_mean(entry.outputs)) << "entry " << i;
    moved += entry.deviating_model != source.entries()[i].deviating_model ? 1 : 0;
  }
  // The corpus exercises the re-stamp: some reverts moved the deviator.
  EXPECT_GT(moved, 0);
  const ReplayResult result = session.Replay(minimized);
  EXPECT_TRUE(result.ok) << result.mismatch;
}

TEST_F(MaintenanceTest, DedupIsDeterministic) {
  const std::string dir = TempCorpusDir("src");
  ASSERT_GT(Record(dir).tests.size(), 0u);

  UnconstrainedImage constraint;
  Session session(ModelPtrs(), &constraint, BaseConfig());
  Corpus source(dir);
  DedupOptions a;
  a.out_dir = TempCorpusDir("a");
  DedupOptions b;
  b.out_dir = TempCorpusDir("b");
  const MaintenanceReport ra = DedupCorpus(session, source, a);
  const MaintenanceReport rb = DedupCorpus(session, source, b);
  EXPECT_EQ(ra.retained_entries, rb.retained_entries);

  Corpus ca(a.out_dir);
  Corpus cb(b.out_dir);
  ASSERT_EQ(ca.entries().size(), cb.entries().size());
  for (size_t i = 0; i < ca.entries().size(); ++i) {
    EXPECT_EQ(ca.entries()[i].input.values(), cb.entries()[i].input.values()) << i;
    EXPECT_EQ(ca.entries()[i].seed_index, cb.entries()[i].seed_index) << i;
    EXPECT_EQ(ca.entries()[i].task_ordinal, cb.entries()[i].task_ordinal) << i;
    EXPECT_EQ(ca.entries()[i].labels, cb.entries()[i].labels) << i;
  }
  // Identical retained sets merge to byte-identical coverage state.
  EXPECT_EQ(ca.checkpoint().metric_blobs, cb.checkpoint().metric_blobs);
}

// Every entry recorded twice: dedup must drop exactly the second copies,
// keeping the originals in order, and the retained set's coverage is the
// doubled corpus' coverage. The originals are a distilled k-multisection
// recording: the raw one repeats some inputs exactly, and each distilled
// entry adds coverage over the ones before it, so dedup keeps all of them.
TEST_F(MaintenanceTest, DedupDropsEveryCopyOfADoubledCorpus) {
  const std::string dir = TempCorpusDir("src");
  ASSERT_GT(Record(dir, "kmultisection").tests.size(), 3u);
  UnconstrainedImage constraint;
  Session session(ModelPtrs(), &constraint, BaseConfig("kmultisection"));
  DistillOptions distill;
  distill.out_dir = TempCorpusDir("distilled");
  DistillCorpus(session, Corpus(dir), distill);
  Corpus source(distill.out_dir);
  const std::vector<GeneratedTest>& originals = source.entries();
  ASSERT_GT(originals.size(), 3u);

  session.ResetForCorpus(source);
  std::vector<GeneratedTest> doubled = originals;
  doubled.insert(doubled.end(), originals.begin(), originals.end());
  CoverageFootprint merged = EmptyFootprint(session);
  for (const CoverageFootprint& fp : ComputeFootprints(session, TestInputs(doubled))) {
    MergeFootprint(merged, fp);
  }
  const std::string doubled_dir = TempCorpusDir("doubled");
  WriteDerivedCorpus(source, "double", doubled, merged, doubled_dir);
  Corpus twice(doubled_dir);
  ASSERT_EQ(twice.entries().size(), 2 * originals.size());

  DedupOptions dedup;
  dedup.out_dir = TempCorpusDir("deduped");
  const MaintenanceReport report = DedupCorpus(session, twice, dedup);
  EXPECT_EQ(report.input_entries, 2 * originals.size());
  EXPECT_EQ(report.retained_entries, originals.size());
  for (const ModelCoverageDelta& delta : report.coverage) {
    EXPECT_EQ(delta.covered_before, delta.covered_after) << delta.model;
  }

  Corpus deduped(dedup.out_dir);
  ASSERT_EQ(deduped.entries().size(), originals.size());
  for (size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(deduped.entries()[i].input.values(), originals[i].input.values()) << i;
    EXPECT_EQ(deduped.entries()[i].labels, originals[i].labels) << i;
    EXPECT_EQ(deduped.entries()[i].seed_index, originals[i].seed_index) << i;
    EXPECT_EQ(deduped.entries()[i].task_ordinal, originals[i].task_ordinal) << i;
  }
  EXPECT_EQ(deduped.checkpoint().metric_blobs, twice.checkpoint().metric_blobs);
  const ReplayResult result = session.Replay(deduped);
  EXPECT_TRUE(result.ok) << result.mismatch;
}

// CompactCorpus is the chain both the CLI verbs and the daemon run: a
// distill+dedup+minimize compaction lands on exactly what the three pass
// functions produce one after another, verifies, and leaves no staging
// directory behind.
TEST_F(MaintenanceTest, CompactChainMatchesThePassesRunInTurn) {
  const std::string dir = TempCorpusDir("src");
  ASSERT_GT(Record(dir).tests.size(), 3u);
  Corpus source(dir);
  UnconstrainedImage constraint;
  Session session(ModelPtrs(), &constraint, BaseConfig());

  DistillOptions distill;
  distill.out_dir = TempCorpusDir("distilled");
  DistillCorpus(session, source, distill);
  DedupOptions dedup;
  dedup.out_dir = TempCorpusDir("deduped");
  DedupCorpus(session, Corpus(distill.out_dir), dedup);
  MinimizeOptions minimize;
  minimize.out_dir = TempCorpusDir("minimized");
  MinimizeCorpus(session, Corpus(dedup.out_dir), minimize);
  const Corpus by_hand(minimize.out_dir);

  CompactOptions options;
  options.out_dir = TempCorpusDir("compacted");
  options.minimize = true;
  const CompactResult result = CompactCorpus(session, source, options);
  EXPECT_TRUE(result.verified) << result.mismatch;
  ASSERT_EQ(result.reports.size(), 3u);
  EXPECT_EQ(result.reports[0].transform, "distill");
  EXPECT_EQ(result.reports[1].transform, "dedup");
  EXPECT_EQ(result.reports[2].transform, "minimize");
  EXPECT_EQ(result.entries_before, source.entries().size());
  EXPECT_EQ(result.entries_after, by_hand.entries().size());

  const Corpus chained(options.out_dir);
  ASSERT_EQ(chained.entries().size(), by_hand.entries().size());
  for (size_t i = 0; i < by_hand.entries().size(); ++i) {
    const GeneratedTest& a = chained.entries()[i];
    const GeneratedTest& b = by_hand.entries()[i];
    EXPECT_EQ(a.input.values(), b.input.values()) << i;
    EXPECT_EQ(a.labels, b.labels) << i;
    EXPECT_EQ(a.seed_index, b.seed_index) << i;
    EXPECT_EQ(a.task_ordinal, b.task_ordinal) << i;
    EXPECT_EQ(a.deviating_model, b.deviating_model) << i;
  }
  EXPECT_EQ(chained.checkpoint().metric_blobs, by_hand.checkpoint().metric_blobs);
  const std::string* transform = chained.meta().FindMetadata("transform");
  ASSERT_NE(transform, nullptr);
  EXPECT_EQ(*transform, "distill+dedup+minimize");

  const auto expect_no_stage_left = [](const std::string& out_dir) {
    const std::filesystem::path out(out_dir);
    const std::string stage_prefix = out.filename().string() + ".stage-";
    for (const auto& item : std::filesystem::directory_iterator(out.parent_path())) {
      EXPECT_NE(item.path().filename().string().rfind(stage_prefix, 0), 0u)
          << item.path() << " was left behind";
    }
  };
  expect_no_stage_left(options.out_dir);

  // A pass that fails after an earlier one has written its stage removes
  // that stage too, so a retry into the same out_dir is not blocked.
  options.out_dir = TempCorpusDir("failed");
  options.deduper = "no-such-deduper";
  EXPECT_THROW(CompactCorpus(session, source, options), std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(options.out_dir));
  expect_no_stage_left(options.out_dir);
}

// ---- Deduper selection -------------------------------------------------------------------

TEST(CorpusDeduperRegistry, AutoResolvesByShapeAndRejectsUnknownNames) {
  EXPECT_EQ(CorpusDeduperNames(),
            (std::vector<std::string>{"auto", "feature-box", "l2", "ssim"}));

  // Flat (1-D) seed inputs: "auto" is the per-dimension feature-box notion.
  CorpusMeta flat;
  flat.seeds.push_back(Tensor({4}, {0.0f, 1.0f, -2.0f, 3.0f}));
  flat.seeds.push_back(Tensor({4}, {1.0f, 0.0f, 2.0f, -3.0f}));
  DeduperContext flat_ctx;
  flat_ctx.meta = &flat;
  EXPECT_EQ(MakeCorpusDeduper("auto", flat_ctx)->name(), "feature-box");

  // "auto" is perceptual SSIM only for images whose planes hold its 8x8
  // window; smaller planes, and speech waveforms shaped {1, 1, T}, get the
  // feature box, and an explicit "ssim" on them fails naming the shape.
  const std::vector<std::pair<Shape, std::string>> cases = {
      {{8, 8}, "ssim"},
      {{3, 8, 9}, "ssim"},
      {{3, 3}, "feature-box"},
      {{1, 1, 128}, "feature-box"},
  };
  for (const auto& [shape, expected] : cases) {
    CorpusMeta meta;
    meta.seeds.push_back(Tensor(shape, 0.5f));
    meta.seeds.push_back(Tensor(shape, 0.25f));
    DeduperContext ctx;
    ctx.meta = &meta;
    EXPECT_EQ(MakeCorpusDeduper("auto", ctx)->name(), expected) << ShapeToString(shape);
    if (expected != "ssim") {
      try {
        MakeCorpusDeduper("ssim", ctx);
        ADD_FAILURE() << "ssim accepted " << ShapeToString(shape);
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(ShapeToString(shape)), std::string::npos)
            << e.what();
      }
    }
  }

  EXPECT_THROW(MakeCorpusDeduper("no-such-deduper", flat_ctx), std::invalid_argument);
}

TEST(CorpusDeduperRegistry, L2AndFeatureBoxClassifyNearAndFarInputs) {
  CorpusMeta meta;
  meta.seeds.push_back(Tensor({4}, {0.0f, 10.0f, 0.0f, 10.0f}));
  meta.seeds.push_back(Tensor({4}, {10.0f, 0.0f, 10.0f, 0.0f}));
  DeduperContext ctx;
  ctx.meta = &meta;

  const Tensor base({4}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor near = base;
  near[0] += 0.01f;
  Tensor far = base;
  far[0] += 5.0f;

  for (const char* name : {"l2", "feature-box"}) {
    auto deduper = MakeCorpusDeduper(name, ctx);
    EXPECT_TRUE(deduper->NearDuplicate(base, base)) << name;
    EXPECT_TRUE(deduper->NearDuplicate(near, base)) << name;
    EXPECT_FALSE(deduper->NearDuplicate(far, base)) << name;
  }
}

// ---- Segmented checkpoints ---------------------------------------------------------------

TEST_F(MaintenanceTest, ResumeEveryBatchIsBitIdentical) {
  RunStats reference;
  {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, BaseConfig());
    reference = session.Run(*seeds_, Bounds());
    ASSERT_GT(reference.tests.size(), 0u);
  }

  // Interrupt after every sync batch, resuming each leg with a different
  // worker count and batch size.
  const std::string dir = TempCorpusDir("legs");
  RunStats final_stats;
  for (int legs = 0;; ++legs) {
    ASSERT_LT(legs, 64) << "campaign did not converge";
    SessionConfig config = BaseConfig();
    config.workers = (legs % 2 == 0) ? 1 : 4;
    config.batch_size = (legs % 3) + 1;
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, config);
    Corpus corpus(dir);
    RunOptions options = Bounds();
    options.max_sync_batches = 1;
    final_stats = session.Run(*seeds_, options, &corpus);
    if (corpus.checkpoint().complete) {
      break;
    }
  }
  ExpectSameResults(final_stats, reference);

  // checkpoints.bin holds one snapshot after the final Sync.
  const CorpusStats stats = Corpus(dir).Stats();
  EXPECT_EQ(stats.chain_snapshots, 1u);
  EXPECT_EQ(stats.chain_deltas, 0u);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.num_entries, reference.tests.size());
}

TEST_F(MaintenanceTest, TruncatedChainTrimsToLastSnapshotAndResumesBitIdentically) {
  RunStats reference;
  {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, BaseConfig());
    reference = session.Run(*seeds_, Bounds());
    ASSERT_GT(reference.tests.size(), 0u);
  }

  // Capture the chain file as it exists mid-campaign: the snapshot of batch
  // 1, with the later checkpoints still held in memory (the final Sync would
  // otherwise snapshot the complete campaign).
  const std::string dir = TempCorpusDir("crash");
  const std::string chain_path = dir + "/checkpoints.bin";
  std::string mid_chain;
  {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, BaseConfig());
    Corpus corpus(dir);
    RunOptions options = Bounds();
    options.on_batch = [&](const RunProgress& progress) {
      if (progress.batches == 5) {
        std::ifstream in(chain_path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        mid_chain = buffer.str();
      }
    };
    session.Run(*seeds_, options, &corpus);
  }
  ASSERT_FALSE(mid_chain.empty()) << "campaign too short for the crash window";

  // Simulate a crash that cut a record appended after the snapshot short:
  // restore the mid-run chain followed by a torn copy of its own record (the
  // 8-byte file header skipped, the last 3 bytes cut). entries.bin /
  // journal.bin still hold the rest of the campaign, their last appends torn
  // too — exactly the append-ahead crash model.
  {
    std::ofstream out(chain_path, std::ios::binary | std::ios::trunc);
    ASSERT_GT(mid_chain.size(), 11u);
    out.write(mid_chain.data(), static_cast<std::streamsize>(mid_chain.size()));
    out.write(mid_chain.data() + 8, static_cast<std::streamsize>(mid_chain.size() - 11));
  }
  for (const std::string& path : {dir + "/entries.bin", dir + "/journal.bin"}) {
    std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
  }

  const auto on_disk = testing::DirectoryBytes(dir);
  Corpus reopened(dir);
  EXPECT_TRUE(testing::DirectoryBytes(dir) == on_disk) << "opening wrote to the corpus";
  ASSERT_TRUE(reopened.has_checkpoint());
  EXPECT_FALSE(reopened.checkpoint().complete);
  const uint64_t resume_batch = reopened.checkpoint().num_batches;
  EXPECT_GE(resume_batch, 1u);
  EXPECT_LT(resume_batch, 5u);  // Back at the last valid snapshot.
  // Entries and journal are read up to the snapshot's high-water marks.
  EXPECT_EQ(reopened.journal().size(), resume_batch);
  EXPECT_EQ(reopened.entries().size(), reopened.checkpoint().num_tests);

  // Resume with a different worker count / batch size: the dropped batches
  // re-execute deterministically and the campaign lands bit-identical.
  UnconstrainedImage constraint;
  SessionConfig config = BaseConfig();
  config.workers = 2;
  config.batch_size = 3;
  Session session(ModelPtrs(), &constraint, config);
  const RunStats resumed = session.Run(*seeds_, Bounds(), &reopened);
  EXPECT_TRUE(reopened.checkpoint().complete);
  ExpectSameResults(resumed, reference);

  // The writer cut the uncovered, torn tails before appending, so the
  // finished corpus reopens to exactly the uninterrupted campaign.
  const Corpus finished(dir);
  ASSERT_EQ(finished.entries().size(), reference.tests.size());
  for (size_t i = 0; i < reference.tests.size(); ++i) {
    EXPECT_EQ(finished.entries()[i].input.values(), reference.tests[i].input.values())
        << "entry " << i;
  }
}

TEST_F(MaintenanceTest, ChainTruncatedThroughTheSnapshotOpensEmpty) {
  const std::string dir = TempCorpusDir("headless");
  ASSERT_GT(Record(dir).tests.size(), 0u);

  // Cut into the (single, post-Sync) snapshot record itself: no restorable
  // checkpoint remains, so the corpus opens cleanly as a fresh campaign.
  const std::string chain_path = dir + "/checkpoints.bin";
  const auto size = std::filesystem::file_size(chain_path);
  ASSERT_GT(size, 16u);
  std::filesystem::resize_file(chain_path, 16);

  const auto on_disk = testing::DirectoryBytes(dir);
  Corpus reopened(dir);
  EXPECT_TRUE(testing::DirectoryBytes(dir) == on_disk) << "opening wrote to the corpus";
  EXPECT_TRUE(reopened.initialized());
  EXPECT_FALSE(reopened.has_checkpoint());
  EXPECT_TRUE(reopened.entries().empty());
  EXPECT_TRUE(reopened.journal().empty());
}

// ---- Stats -------------------------------------------------------------------------------

TEST_F(MaintenanceTest, StatsSummarizeEntriesChainAndManifest) {
  const std::string dir = TempCorpusDir("stats");
  RunStats recorded;
  {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, BaseConfig());
    Corpus corpus(dir);
    corpus.SetMetadata("domain", "toy-domain");
    recorded = session.Run(*seeds_, Bounds(), &corpus);
    ASSERT_GT(recorded.tests.size(), 0u);
  }

  const Corpus corpus(dir);
  const CorpusStats stats = corpus.Stats();
  EXPECT_EQ(stats.domain, "toy-domain");
  EXPECT_EQ(stats.metric, "neuron");
  EXPECT_EQ(stats.objective, "joint");
  EXPECT_EQ(stats.scheduler, "roundrobin");
  EXPECT_EQ(stats.num_entries, recorded.tests.size());
  EXPECT_EQ(stats.num_seeds, seeds_->size());
  EXPECT_EQ(stats.journal_batches, corpus.journal().size());
  EXPECT_EQ(stats.chain_snapshots, 1u);
  EXPECT_TRUE(stats.complete);
  EXPECT_FLOAT_EQ(stats.mean_coverage, recorded.mean_coverage);
  ASSERT_EQ(stats.entries_per_model.size(), 3u);
  uint64_t attributed = 0;
  for (const uint64_t n : stats.entries_per_model) {
    attributed += n;
  }
  EXPECT_EQ(attributed, stats.num_entries);
  EXPECT_GT(stats.manifest_bytes, 0u);
  EXPECT_GT(stats.entries_bytes, 0u);
  EXPECT_GT(stats.journal_bytes, 0u);
  EXPECT_GT(stats.checkpoint_bytes, 0u);
  EXPECT_EQ(stats.total_bytes, stats.manifest_bytes + stats.entries_bytes +
                                   stats.journal_bytes + stats.checkpoint_bytes);
}

}  // namespace
}  // namespace dx
