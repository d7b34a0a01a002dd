// Session engine tests: parallel worker determinism (workers=4 must equal
// workers=1 exactly for a fixed seed) and metric/objective/scheduler plug-in
// wiring.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>

#include "src/baselines/adversarial.h"
#include "src/baselines/random_testing.h"
#include "src/constraints/constraint.h"
#include "src/core/session.h"
#include "src/coverage/kmultisection_coverage.h"
#include "src/data/dataset.h"
#include "src/models/trainer.h"
#include "src/nn/dense.h"
#include "src/nn/execution_plan.h"
#include "src/nn/model.h"
#include "src/nn/softmax_layer.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "src/util/serialize.h"
#include "tests/test_util.h"

namespace dx {
namespace {

// Same toy setup as core_test: 2-D, 2-class task with a margin band removed.
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
  m.Emplace<Dense>(hidden, hidden, Activation::kRelu).InitParams(rng);
  m.Emplace<Dense>(hidden, 2).InitParams(rng);
  m.Emplace<SoftmaxLayer>();
  return m;
}

class SessionToyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    train_ = new Dataset(MakeToyTask(600, 1));
    models_ = new std::vector<Model>();
    models_->push_back(MakeToyClassifier("toy_a", 16, 11));
    models_->push_back(MakeToyClassifier("toy_b", 24, 22));
    models_->push_back(MakeToyClassifier("toy_c", 12, 33));
    for (Model& m : *models_) {
      TrainConfig cfg;
      cfg.epochs = 8;
      cfg.learning_rate = 5e-3f;
      cfg.seed = 7;
      Trainer::Fit(&m, *train_, cfg);
      ASSERT_GT(Trainer::Accuracy(m, *train_), 0.95f);
    }
    // Seeds near (but not on) the shared decision boundary.
    seeds_ = new std::vector<Tensor>();
    Rng rng(10);
    while (seeds_->size() < 40) {
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
    delete train_;
    seeds_ = nullptr;
    models_ = nullptr;
    train_ = nullptr;
  }

  static std::vector<Model*> ModelPtrs() {
    std::vector<Model*> ptrs;
    for (Model& m : *models_) {
      ptrs.push_back(&m);
    }
    return ptrs;
  }

  static SessionConfig ToyConfig() {
    SessionConfig config;
    config.engine.lambda1 = 2.5f;
    config.engine.step = 0.05f;
    config.engine.max_iterations_per_seed = 150;
    config.engine.rng_seed = 9;
    return config;
  }

  static Dataset* train_;
  static std::vector<Model>* models_;
  static std::vector<Tensor>* seeds_;
  UnconstrainedImage constraint_;
};

Dataset* SessionToyTest::train_ = nullptr;
std::vector<Model>* SessionToyTest::models_ = nullptr;
std::vector<Tensor>* SessionToyTest::seeds_ = nullptr;

RunStats RunWithWorkers(const std::vector<Model*>& models, const Constraint* constraint,
                        SessionConfig config, const std::vector<Tensor>& seeds,
                        int workers, const RunOptions& options = RunOptions{}) {
  config.workers = workers;
  Session session(models, constraint, config);
  return session.Run(seeds, options);
}

TEST_F(SessionToyTest, WorkerCountDoesNotChangeResults) {
  const RunStats serial =
      RunWithWorkers(ModelPtrs(), &constraint_, ToyConfig(), *seeds_, 1);
  ASSERT_GT(serial.tests.size(), 0u);
  for (const int workers : {2, 4}) {
    const RunStats parallel =
        RunWithWorkers(ModelPtrs(), &constraint_, ToyConfig(), *seeds_, workers);
    ASSERT_EQ(parallel.tests.size(), serial.tests.size()) << "workers=" << workers;
    EXPECT_EQ(parallel.seeds_tried, serial.seeds_tried);
    EXPECT_EQ(parallel.seeds_skipped, serial.seeds_skipped);
    EXPECT_EQ(parallel.total_iterations, serial.total_iterations);
    EXPECT_FLOAT_EQ(parallel.mean_coverage, serial.mean_coverage);
    for (size_t i = 0; i < serial.tests.size(); ++i) {
      EXPECT_FLOAT_EQ(L1Distance(parallel.tests[i].input, serial.tests[i].input), 0.0f);
      EXPECT_EQ(parallel.tests[i].seed_index, serial.tests[i].seed_index);
      EXPECT_EQ(parallel.tests[i].deviating_model, serial.tests[i].deviating_model);
      EXPECT_EQ(parallel.tests[i].iterations, serial.tests[i].iterations);
    }
  }
}

TEST_F(SessionToyTest, MaxTestsBudgetIsExactForAnyWorkerCount) {
  RunOptions options;
  options.max_tests = 3;
  const RunStats serial =
      RunWithWorkers(ModelPtrs(), &constraint_, ToyConfig(), *seeds_, 1, options);
  const RunStats parallel =
      RunWithWorkers(ModelPtrs(), &constraint_, ToyConfig(), *seeds_, 4, options);
  EXPECT_EQ(static_cast<int>(serial.tests.size()), 3);
  EXPECT_EQ(static_cast<int>(parallel.tests.size()), 3);
  EXPECT_EQ(parallel.seeds_tried, serial.seeds_tried);
}

TEST_F(SessionToyTest, RepeatedParallelRunsAreIdentical) {
  const RunStats a = RunWithWorkers(ModelPtrs(), &constraint_, ToyConfig(), *seeds_, 4);
  const RunStats b = RunWithWorkers(ModelPtrs(), &constraint_, ToyConfig(), *seeds_, 4);
  ASSERT_EQ(a.tests.size(), b.tests.size());
  for (size_t i = 0; i < a.tests.size(); ++i) {
    EXPECT_FLOAT_EQ(L1Distance(a.tests[i].input, b.tests[i].input), 0.0f);
  }
}

TEST_F(SessionToyTest, AllMetricsRunEndToEnd) {
  for (const std::string& metric : {"neuron", "kmultisection", "topk"}) {
    SessionConfig config = ToyConfig();
    config.metric = metric;
    Session session(ModelPtrs(), &constraint_, config);
    const RunStats stats = session.Run(*seeds_, RunOptions{});
    EXPECT_GT(stats.tests.size(), 0u) << metric;
    EXPECT_GT(session.MeanCoverage(), 0.0f) << metric;
    EXPECT_EQ(session.metric(0).name(), metric);
  }
}

TEST_F(SessionToyTest, KMultisectionProfilesFromTheSeedPool) {
  SessionConfig config = ToyConfig();
  config.metric = "kmultisection";
  Session session(ModelPtrs(), &constraint_, config);
  session.Run(*seeds_, RunOptions{});
  const auto& metric = dynamic_cast<const KMultisectionCoverage&>(session.metric(0));
  EXPECT_TRUE(metric.profiled());
}

// Profiled ranges come from the plan path the executor buckets with: every
// seed's plan-path neuron values lie inside [low, high], and the serialized
// profile is byte-identical at any batch width.
TEST_F(SessionToyTest, KMultisectionProfilesComeFromThePlanPath) {
  std::string reference;
  for (const int batch_size : {1, 3, 8}) {
    SessionConfig config = ToyConfig();
    config.metric = "kmultisection";
    config.batch_size = batch_size;
    Session session(ModelPtrs(), &constraint_, config);
    session.ProfileSeeds(*seeds_);
    std::ostringstream blob(std::ios::binary);
    BinaryWriter writer(blob);
    for (int k = 0; k < session.num_models(); ++k) {
      const auto& metric = dynamic_cast<const KMultisectionCoverage&>(session.metric(k));
      ASSERT_TRUE(metric.profiled());
      const Model& model = session.model(k);
      ExecutionPlan plan = model.Compile(1);
      for (const Tensor& seed : *seeds_) {
        const std::vector<float> values =
            metric.NeuronValues(model, plan.ForwardBatch(seed, 1), 0);
        for (size_t i = 0; i < values.size(); ++i) {
          EXPECT_GE(values[i], metric.low()[i]) << model.name() << " neuron " << i;
          EXPECT_LE(values[i], metric.high()[i]) << model.name() << " neuron " << i;
        }
      }
      metric.Serialize(writer);
    }
    if (reference.empty()) {
      reference = blob.str();
    } else {
      EXPECT_EQ(blob.str(), reference) << "batch_size " << batch_size;
    }
  }
}

TEST_F(SessionToyTest, BaselineObjectivesRunThroughTheEngineLoop) {
  for (const std::string& objective : {"differential", "fgsm", "random"}) {
    SessionConfig config = ToyConfig();
    config.objective = objective;
    Session session(ModelPtrs(), &constraint_, config);
    EXPECT_EQ(session.objective().name(), objective);
    const RunStats stats = session.Run(*seeds_, RunOptions{});
    EXPECT_EQ(stats.seeds_tried, 40);
    for (const GeneratedTest& t : stats.tests) {
      EXPECT_TRUE(testing::Disagrees(session, t.input)) << objective;
    }
  }
}

TEST_F(SessionToyTest, CoverageGainSchedulerRecyclesProductiveSeeds) {
  SessionConfig config = ToyConfig();
  config.scheduler = "coverage-gain";
  Session session(ModelPtrs(), &constraint_, config);
  RunOptions options;
  options.max_seed_passes = 2;
  const RunStats stats = session.Run(*seeds_, options);
  EXPECT_EQ(stats.seeds_tried, 80);
  EXPECT_GT(stats.tests.size(), 0u);
  // Determinism holds for the prioritized scheduler too.
  Session again(ModelPtrs(), &constraint_, config);
  const RunStats repeat = again.Run(*seeds_, options);
  EXPECT_EQ(repeat.tests.size(), stats.tests.size());
}

// The executor calls Objective::Plan for every model on every iteration, so
// each plug-in decides there which models get terms and what it draws.
TEST_F(SessionToyTest, ObjectivesContributeOnlyWhereTheyApply) {
  const Tensor& x = (*seeds_)[0];
  std::vector<ExecutionPlan> plans;
  std::vector<std::unique_ptr<CoverageMetric>> metrics;
  for (const Model& m : *models_) {
    plans.push_back(m.Compile(1));
    plans.back().ForwardBatch(x, 1);
    metrics.push_back(MakeCoverageMetric("neuron", m, CoverageOptions{}));
  }
  Rng rng(5);
  ObjectiveContext ctx;
  ctx.metrics = &metrics;
  ctx.target_model = 1;
  ctx.consensus = plans[0].trace().SampleLabel(0);
  ctx.rng = &rng;
  // Model k's contribution added to a nonzero gradient: how many terms did
  // it plan, did it change the gradient, and did it draw from the task's RNG?
  struct Effect {
    size_t terms;
    bool changed;
    bool drew;
  };
  const auto contribute = [&](const Objective& objective, int k) {
    Rng grad_rng(100 + static_cast<uint64_t>(k));
    Tensor grad = Tensor::RandUniform(x.shape(), grad_rng, -1.0f, 1.0f);
    const Tensor before = grad;
    Rng untouched = rng;
    const size_t terms = testing::AddObjectiveGradient(objective, ctx, k,
                                                       plans[static_cast<size_t>(k)], &grad);
    Rng after = rng;
    return Effect{terms, grad.values() != before.values(),
                  after.NextU64() != untouched.NextU64()};
  };

  const FgsmObjective fgsm;
  const RandomPerturbationObjective random;
  const auto joint = MakeJointObjective();
  for (int k = 0; k < 3; ++k) {
    SCOPED_TRACE("model " + std::to_string(k));
    const Effect f = contribute(fgsm, k);
    EXPECT_EQ(f.terms, k == ctx.target_model ? 1u : 0u);
    EXPECT_EQ(f.changed, k == ctx.target_model);
    EXPECT_FALSE(f.drew);
    // Random plans no term: its direction is a direct input-space term.
    const Effect r = contribute(random, k);
    EXPECT_EQ(r.terms, 0u);
    EXPECT_EQ(r.changed, k == 0);
    EXPECT_EQ(r.drew, k == 0);
    ctx.lambda2 = 0.0f;
    const Effect j = contribute(*joint, k);
    EXPECT_EQ(j.terms, 1u);
    EXPECT_TRUE(j.changed);
    EXPECT_FALSE(j.drew);
    // With λ2 > 0 the coverage half nominates a neuron, which draws.
    ctx.lambda2 = 0.1f;
    const Effect jc = contribute(*joint, k);
    EXPECT_EQ(jc.terms, 2u);
    EXPECT_TRUE(jc.drew);
  }
}

TEST_F(SessionToyTest, InvalidPluginNamesThrow) {
  auto ptrs = ModelPtrs();
  SessionConfig config = ToyConfig();
  config.metric = "no-such-metric";
  EXPECT_THROW(Session(ptrs, &constraint_, config), std::invalid_argument);
  config = ToyConfig();
  config.objective = "no-such-objective";
  EXPECT_THROW(Session(ptrs, &constraint_, config), std::invalid_argument);
  config = ToyConfig();
  config.scheduler = "no-such-scheduler";
  EXPECT_THROW(Session(ptrs, &constraint_, config), std::invalid_argument);
}

TEST_F(SessionToyTest, NegativeWorkersAreRejected) {
  auto ptrs = ModelPtrs();
  SessionConfig config = ToyConfig();
  for (const int workers : {-1, -3}) {
    config.workers = workers;
    EXPECT_THROW(Session(ptrs, &constraint_, config), std::invalid_argument) << workers;
  }
  config.workers = 0;  // Hardware concurrency.
  EXPECT_NO_THROW(Session(ptrs, &constraint_, config));
}

}  // namespace
}  // namespace dx
