// Durable corpus + replay subsystem: a recorded campaign must survive
// process boundaries (reopen), replay bit-identically, resume from an
// interruption to results identical to an uninterrupted run (at any worker
// count / batch size, under every built-in scheduler, with no double-counted
// forward passes or coverage), tolerate readers opening it mid-campaign
// without writing a byte, and reject mismatched configs and tampered
// artifacts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/constraints/image_constraints.h"
#include "src/core/session.h"
#include "src/corpus/corpus.h"
#include "src/coverage/coverage_metric.h"
#include "src/data/dataset.h"
#include "src/models/trainer.h"
#include "src/nn/dense.h"
#include "src/nn/model.h"
#include "src/nn/softmax_layer.h"
#include "src/util/rng.h"
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

class CorpusTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Dataset train = MakeToyTask(500, 2);
    models_ = new std::vector<Model>();
    models_->push_back(MakeToyClassifier("cp_a", 16, 41));
    models_->push_back(MakeToyClassifier("cp_b", 24, 42));
    models_->push_back(MakeToyClassifier("cp_c", 12, 43));
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

  // A fresh (cleared) per-test directory: corpora deliberately persist on
  // disk, so leftovers from a previous test run must be wiped.
  std::string TempCorpusDir(const std::string& name) {
    const std::string dir =
        ::testing::TempDir() + "corpus_test_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" + name;
    std::filesystem::remove_all(dir);
    return dir;
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

std::vector<Model>* CorpusTest::models_ = nullptr;
std::vector<Tensor>* CorpusTest::seeds_ = nullptr;

// ---- Record + reopen ---------------------------------------------------------------------

TEST_F(CorpusTest, RecordedCampaignSurvivesReopen) {
  const std::string dir = TempCorpusDir("store");
  RunStats recorded;
  {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, BaseConfig());
    Corpus corpus(dir);
    corpus.SetMetadata("flavor", "toy");
    recorded = session.Run(*seeds_, Bounds(), &corpus);
    ASSERT_GT(recorded.tests.size(), 0u);
  }

  Corpus reopened(dir);
  ASSERT_TRUE(reopened.initialized());
  ASSERT_TRUE(reopened.has_checkpoint());
  EXPECT_TRUE(reopened.checkpoint().complete);
  EXPECT_EQ(reopened.entries().size(), recorded.tests.size());
  EXPECT_EQ(reopened.checkpoint().forward_passes, recorded.forward_passes);
  EXPECT_EQ(reopened.meta().seeds.size(), seeds_->size());
  EXPECT_EQ(reopened.meta().model_names,
            (std::vector<std::string>{"cp_a", "cp_b", "cp_c"}));
  const std::string* flavor = reopened.meta().FindMetadata("flavor");
  ASSERT_NE(flavor, nullptr);
  EXPECT_EQ(*flavor, "toy");
  for (size_t i = 0; i < recorded.tests.size(); ++i) {
    EXPECT_EQ(reopened.entries()[i].input.values(), recorded.tests[i].input.values());
    EXPECT_EQ(reopened.entries()[i].task_ordinal, recorded.tests[i].task_ordinal);
    EXPECT_EQ(reopened.entries()[i].labels, recorded.tests[i].labels);
  }
}

// A reader may open the corpus of a running campaign at any batch boundary:
// it sees the last snapshot, writes nothing, and the campaign still records
// a corpus that reopens and replays bit for bit.
TEST_F(CorpusTest, ReaderBetweenEveryBatchLeavesTheCorpusUntouched) {
  const std::string dir = TempCorpusDir("reader");
  SessionConfig config = BaseConfig();
  config.sync_interval = 2;
  RunStats recorded;
  uint64_t opens = 0;
  {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, config);
    Corpus corpus(dir);
    RunOptions options = Bounds();
    options.on_batch = [&](const RunProgress& progress) {
      const auto on_disk = testing::DirectoryBytes(dir);
      const Corpus reader(dir);
      ++opens;
      EXPECT_TRUE(testing::DirectoryBytes(dir) == on_disk)
          << "opening after batch " << progress.batches << " wrote to the corpus";
      ASSERT_TRUE(reader.has_checkpoint());
      EXPECT_LE(reader.journal().size(), progress.batches);
      EXPECT_EQ(reader.entries().size(), reader.checkpoint().num_tests);
    };
    recorded = session.Run(*seeds_, options, &corpus);
    ASSERT_GT(recorded.tests.size(), 0u);
    EXPECT_GE(opens, corpus.journal().size());
  }

  Corpus corpus(dir);
  ASSERT_TRUE(corpus.has_checkpoint());
  EXPECT_TRUE(corpus.checkpoint().complete);
  EXPECT_EQ(corpus.entries().size(), recorded.tests.size());
  UnconstrainedImage constraint;
  Session session(ModelPtrs(), &constraint, config);
  const ReplayResult result = session.Replay(corpus);
  EXPECT_TRUE(result.ok) << result.mismatch;
  ExpectSameResults(result.stats, recorded);
}

// ---- Replay ------------------------------------------------------------------------------

class CorpusMetricTest : public CorpusTest,
                         public ::testing::WithParamInterface<const char*> {};

TEST_P(CorpusMetricTest, RecordedCampaignReplaysBitIdentically) {
  const std::string dir = TempCorpusDir(GetParam());
  RunStats recorded;
  {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, BaseConfig(GetParam()));
    Corpus corpus(dir);
    recorded = session.Run(*seeds_, Bounds(), &corpus);
    ASSERT_GT(recorded.tests.size(), 0u);
  }

  // A different process would do exactly this: reopen + fresh session. The
  // replay session also uses a different batch size (results are invariant).
  Corpus corpus(dir);
  SessionConfig config = BaseConfig(GetParam());
  config.batch_size = 3;
  UnconstrainedImage constraint;
  Session session(ModelPtrs(), &constraint, config);
  const ReplayResult result = session.Replay(corpus);
  EXPECT_TRUE(result.ok) << result.mismatch;
  ExpectSameResults(result.stats, recorded);
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, CorpusMetricTest,
                         ::testing::Values("neuron", "kmultisection", "topk"));

// A regression trio records float outputs rather than argmax labels, so the
// replay's re-prediction of every stored input must run on the kernels that
// generated it: any last-ULP difference in a stored output is a divergence.
TEST_F(CorpusTest, RegressionCampaignReplaysBitIdentically) {
  std::vector<Model> trio;
  for (int k = 0; k < 3; ++k) {
    Rng rng(60 + static_cast<uint64_t>(k));
    const int hidden = 12 + 4 * k;
    Model m("cp_reg_" + std::to_string(k), {8});
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

  const std::string dir = TempCorpusDir("regression");
  RunStats recorded;
  {
    UnconstrainedImage constraint;
    Session session(ptrs, &constraint, config);
    ASSERT_TRUE(session.regression());
    Corpus corpus(dir);
    recorded = session.Run(seeds, RunOptions{}, &corpus);
    ASSERT_GT(recorded.tests.size(), 0u);
  }

  Corpus corpus(dir);
  config.batch_size = 3;
  UnconstrainedImage constraint;
  Session session(ptrs, &constraint, config);
  const ReplayResult result = session.Replay(corpus);
  EXPECT_TRUE(result.ok) << result.mismatch;
  ExpectSameResults(result.stats, recorded);
  for (size_t i = 0; i < recorded.tests.size(); ++i) {
    EXPECT_EQ(result.stats.tests[i].outputs, recorded.tests[i].outputs) << "test " << i;
  }
}

TEST_F(CorpusTest, ReplayDetectsTamperedEntries) {
  const std::string dir = TempCorpusDir("tamper");
  {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, BaseConfig());
    Corpus corpus(dir);
    const RunStats recorded = session.Run(*seeds_, Bounds(), &corpus);
    ASSERT_GT(recorded.tests.size(), 0u);
  }
  // Flip bits in the last entry's input tensor (the final floats of the
  // append-only entry stream).
  const std::string entries_path = dir + "/entries.bin";
  std::fstream file(entries_path,
                    std::ios::binary | std::ios::in | std::ios::out | std::ios::ate);
  ASSERT_TRUE(file.good());
  const std::streamoff size = file.tellg();
  ASSERT_GT(size, 4);
  file.seekg(size - 4);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  file.seekp(size - 4);
  file.write(&byte, 1);
  file.close();

  Corpus corpus(dir);
  UnconstrainedImage constraint;
  Session session(ModelPtrs(), &constraint, BaseConfig());
  const ReplayResult result = session.Replay(corpus);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.mismatch.empty());
}

// ---- Resume ------------------------------------------------------------------------------

class CorpusSchedulerTest : public CorpusTest,
                            public ::testing::WithParamInterface<const char*> {};

// A resume restores the scheduler by replaying the journal through it, which
// must hold for coverage-gain too: its later passes are ordered by the
// Report() stream.
TEST_P(CorpusSchedulerTest, InterruptedThenResumedMatchesUninterrupted) {
  SessionConfig base = BaseConfig();
  base.scheduler = GetParam();
  RunStats reference;
  {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, base);
    reference = session.Run(*seeds_, Bounds());
    ASSERT_GT(reference.tests.size(), 0u);
  }

  // Interrupt after every single sync batch, resuming each leg in a fresh
  // session with a different worker count and batch size.
  const std::string dir = TempCorpusDir("legs");
  RunStats final_stats;
  int legs = 0;
  for (;; ++legs) {
    ASSERT_LT(legs, 64) << "campaign did not converge";
    SessionConfig config = base;
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
  EXPECT_GT(legs, 2) << "interruption never split the campaign";
  ExpectSameResults(final_stats, reference);
}

INSTANTIATE_TEST_SUITE_P(BuiltInSchedulers, CorpusSchedulerTest,
                         ::testing::Values("roundrobin", "coverage-gain"));

TEST_F(CorpusTest, ResumeDoesNotDoubleCountForwardPassesOrCoverage) {
  // k-multisection profiles the seed pool at campaign start; a resume that
  // re-profiled would inflate forward_passes and could widen the ranges.
  RunStats reference;
  {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, BaseConfig("kmultisection"));
    reference = session.Run(*seeds_, Bounds());
    ASSERT_GT(reference.tests.size(), 0u);
  }

  const std::string dir = TempCorpusDir("noprofile");
  {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, BaseConfig("kmultisection"));
    Corpus corpus(dir);
    RunOptions options = Bounds();
    options.max_sync_batches = 2;
    session.Run(*seeds_, options, &corpus);
    ASSERT_FALSE(corpus.checkpoint().complete);
  }
  RunStats resumed;
  {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, BaseConfig("kmultisection"));
    Corpus corpus(dir);
    resumed = session.Run(*seeds_, Bounds(), &corpus);
  }
  ExpectSameResults(resumed, reference);
}

TEST_F(CorpusTest, ResumingACompleteCampaignRunsNothing) {
  const std::string dir = TempCorpusDir("complete");
  RunStats recorded;
  {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, BaseConfig());
    Corpus corpus(dir);
    recorded = session.Run(*seeds_, Bounds(), &corpus);
  }

  UnconstrainedImage constraint;
  Session session(ModelPtrs(), &constraint, BaseConfig());
  Corpus corpus(dir);
  std::vector<int64_t> passes_before;
  for (const Model* m : ModelPtrs()) {
    passes_before.push_back(m->forward_passes());
  }
  const RunStats resumed = session.Run(*seeds_, Bounds(), &corpus);
  size_t k = 0;
  for (const Model* m : ModelPtrs()) {
    EXPECT_EQ(m->forward_passes(), passes_before[k++]) << "resume re-executed models";
  }
  ExpectSameResults(resumed, recorded);
  // The session's restored coverage state matches the recorded end state.
  EXPECT_FLOAT_EQ(session.MeanCoverage(), recorded.mean_coverage);
}

// ---- Validation --------------------------------------------------------------------------

// A resume refuses a change to any field the manifest records. Each row
// changes one; the resuming Run must throw before it executes anything.
TEST_F(CorpusTest, MismatchedConfigIsRejected) {
  const std::string dir = TempCorpusDir("reject");
  {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, BaseConfig());
    Corpus corpus(dir);
    RunOptions options = Bounds();
    options.max_sync_batches = 1;
    session.Run(*seeds_, options, &corpus);
    ASSERT_FALSE(corpus.checkpoint().complete);
  }

  // What a resuming caller supplies beside the corpus.
  struct Leg {
    SessionConfig config = BaseConfig();
    bool lighting = false;       // LightingConstraint instead of none.
    bool rename_model = false;   // Another name for model 0.
    std::vector<Tensor> seeds;
    RunOptions options = Bounds();
  };
  const std::vector<std::pair<std::string, std::function<void(Leg&)>>> changes = {
      {"metric", [](Leg& l) { l.config.metric = "topk"; }},
      {"objective", [](Leg& l) { l.config.objective = "differential"; }},
      {"scheduler", [](Leg& l) { l.config.scheduler = "coverage-gain"; }},
      {"constraint", [](Leg& l) { l.lighting = true; }},
      {"lambda1", [](Leg& l) { l.config.engine.lambda1 += 1.0f; }},
      {"lambda2", [](Leg& l) { l.config.engine.lambda2 += 0.1f; }},
      {"step", [](Leg& l) { l.config.engine.step *= 2.0f; }},
      {"max_iterations_per_seed", [](Leg& l) { ++l.config.engine.max_iterations_per_seed; }},
      {"steering_eps", [](Leg& l) { l.config.engine.steering_eps += 0.1f; }},
      {"normalize_gradient",
       [](Leg& l) { l.config.engine.normalize_gradient = !l.config.engine.normalize_gradient; }},
      {"forced_target_model", [](Leg& l) { l.config.engine.forced_target_model = 1; }},
      {"rng_seed", [](Leg& l) { l.config.engine.rng_seed = 20; }},
      {"coverage.threshold", [](Leg& l) { l.config.engine.coverage.threshold = 0.75f; }},
      {"coverage.scale_per_layer",
       [](Leg& l) {
         l.config.engine.coverage.scale_per_layer = !l.config.engine.coverage.scale_per_layer;
       }},
      {"coverage.exclude_dense",
       [](Leg& l) {
         l.config.engine.coverage.exclude_dense = !l.config.engine.coverage.exclude_dense;
       }},
      {"coverage.exclude_output_layer",
       [](Leg& l) {
         l.config.engine.coverage.exclude_output_layer =
             !l.config.engine.coverage.exclude_output_layer;
       }},
      {"coverage.kmc_sections", [](Leg& l) { ++l.config.engine.coverage.kmc_sections; }},
      {"coverage.top_k", [](Leg& l) { ++l.config.engine.coverage.top_k; }},
      {"sync_interval", [](Leg& l) { l.config.sync_interval = 4; }},
      {"max_tests", [](Leg& l) { l.options.max_tests = 5; }},
      {"max_seed_passes", [](Leg& l) { l.options.max_seed_passes = 3; }},
      {"coverage_goal", [](Leg& l) { l.options.coverage_goal = 0.9f; }},
      {"model name", [](Leg& l) { l.rename_model = true; }},
      {"seed pool size", [](Leg& l) { l.seeds.pop_back(); }},
      {"seed value", [](Leg& l) { l.seeds[3][0] += 0.01f; }},
  };
  for (const auto& [field, change] : changes) {
    SCOPED_TRACE(field);
    Leg leg;
    leg.seeds = *seeds_;
    change(leg);
    UnconstrainedImage unconstrained;
    LightingConstraint lighting;
    Model renamed = MakeToyClassifier("cp_renamed", 16, 41);
    std::vector<Model*> ptrs = ModelPtrs();
    if (leg.rename_model) {
      ptrs[0] = &renamed;
    }
    Session session(ptrs, leg.lighting ? static_cast<const Constraint*>(&lighting)
                                       : &unconstrained,
                    leg.config);
    Corpus corpus(dir);
    EXPECT_THROW(session.Run(leg.seeds, leg.options, &corpus), std::invalid_argument);
  }

  // The unchanged leg resumes, so each refusal above came from its one change.
  UnconstrainedImage constraint;
  Session session(ModelPtrs(), &constraint, BaseConfig());
  Corpus corpus(dir);
  EXPECT_NO_THROW(session.Run(*seeds_, Bounds(), &corpus));
}

// Every session profiles the seeds its metric asks for, so a manifest whose
// seed-profiling byte is 0 (a campaign run without profiling) must fail to
// open rather than resume with profiling on and diverge.
TEST_F(CorpusTest, ManifestWithoutSeedProfilingIsRejected) {
  const std::string dir = TempCorpusDir("unprofiled");
  UnconstrainedImage constraint;
  const SessionConfig config = BaseConfig("kmultisection");
  {
    Session session(ModelPtrs(), &constraint, config);
    Corpus corpus(dir);
    session.Run(*seeds_, Bounds(), &corpus);
  }
  // manifest.bin: magic and version, four length-prefixed strings (metric,
  // objective, scheduler, constraint), the 68-byte EngineConfig and the i64
  // sync_interval; then the u32 profiling byte.
  size_t offset = 8;
  for (const std::string& key :
       {config.metric, config.objective, config.scheduler, constraint.name()}) {
    offset += 8 + key.size();
  }
  offset += 68 + 8;
  const std::string path = dir + "/manifest.bin";
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good());
  char word[4] = {};
  file.seekg(static_cast<std::streamoff>(offset));
  file.read(word, 4);
  ASSERT_EQ(std::string(word, 4), std::string("\x01\x00\x00\x00", 4));
  const char zero = 0;
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&zero, 1);
  file.close();

  try {
    Corpus corpus(dir);
    FAIL() << "a manifest without seed profiling opened";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("manifest.bin"), std::string::npos) << e.what();
  }
}

TEST_F(CorpusTest, PreChainCheckpointIsRejected) {
  // A corpus whose resume point is a pre-chain checkpoint.bin must fail to
  // open rather than silently drop its entries as checkpoint-less.
  const std::string dir = TempCorpusDir("prechain");
  {
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, BaseConfig());
    Corpus corpus(dir);
    session.Run(*seeds_, Bounds(), &corpus);
  }
  std::ofstream(dir + "/checkpoint.bin") << "v1";
  EXPECT_THROW(Corpus{dir}, std::runtime_error);
}

// ---- Coverage snapshot round trip --------------------------------------------------------

TEST_F(CorpusTest, CheckpointCoverageSnapshotsAreBitExact) {
  const std::string dir = TempCorpusDir("snapshot");
  UnconstrainedImage constraint;
  const SessionConfig config = BaseConfig("kmultisection");
  Session session(ModelPtrs(), &constraint, config);
  Corpus corpus(dir);
  session.Run(*seeds_, Bounds(), &corpus);

  // Deserializing a stored snapshot into a fresh tracker and re-serializing
  // it must reproduce the blob byte for byte (state, ranges, and coverage).
  const CorpusCheckpoint& cp = corpus.checkpoint();
  ASSERT_EQ(cp.metric_blobs.size(), 3u);
  for (size_t k = 0; k < cp.metric_blobs.size(); ++k) {
    auto fresh = MakeCoverageMetric("kmultisection", (*models_)[k], config.engine.coverage);
    std::istringstream in(cp.metric_blobs[k]);
    BinaryReader reader(in);
    fresh->Deserialize(reader);
    EXPECT_EQ(fresh->covered_items(), session.metric(static_cast<int>(k)).covered_items());
    std::ostringstream out;
    BinaryWriter writer(out);
    fresh->Serialize(writer);
    EXPECT_EQ(out.str(), cp.metric_blobs[k]) << "model " << k;
  }

  // A snapshot for the wrong metric type is rejected.
  auto wrong = MakeCoverageMetric("neuron", (*models_)[0], config.engine.coverage);
  std::istringstream in(cp.metric_blobs[0]);
  BinaryReader reader(in);
  EXPECT_THROW(wrong->Deserialize(reader), std::runtime_error);
}

}  // namespace
}  // namespace dx
