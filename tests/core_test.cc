// Engine tests on small, quickly trained models: objective gradients,
// Algorithm 1's inner loop, difference predicates, coverage updates,
// Session::Run, and agreement with the Algorithm 1 reference loop
// (tests/reference/algorithm1.h).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/constraints/constraint.h"
#include "src/core/objective.h"
#include "src/core/session.h"
#include "src/data/dataset.h"
#include "src/models/trainer.h"
#include "src/nn/dense.h"
#include "src/nn/execution_plan.h"
#include "src/nn/model.h"
#include "src/nn/softmax_layer.h"
#include "src/util/rng.h"
#include "tests/reference/algorithm1.h"
#include "tests/test_util.h"

namespace dx {
namespace {

// 2-D, 2-class toy task: class = (x0 > x1), with a margin band removed.
Dataset MakeToyTask(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset ds{"toy", {2}, 2, {}, {}};
  while (ds.size() < n) {
    Tensor x({2});
    x[0] = rng.NextFloat();
    x[1] = rng.NextFloat();
    if (std::abs(x[0] - x[1]) < 0.08f) {
      continue;  // Margin keeps the task cleanly separable.
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

// Seeds near (but not on) the shared decision boundary, where gradient
// ascent has room to separate the three models.
std::vector<Tensor> BoundarySeeds(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> seeds;
  while (static_cast<int>(seeds.size()) < n) {
    Tensor x({2});
    x[0] = rng.NextFloat();
    x[1] = rng.NextFloat();
    const float margin = std::abs(x[0] - x[1]);
    if (margin > 0.1f && margin < 0.3f) {
      seeds.push_back(std::move(x));
    }
  }
  return seeds;
}

// In 2-D with three near-identical decision boundaries, the keep-consensus
// terms of Equation 2 dominate at lambda1 = 1 (they outnumber the push term
// 2:1), so the toy setting needs lambda1 > n - 1; the paper likewise tunes
// lambda1 per dataset (Table 10).
SessionConfig ToyConfig(uint64_t rng_seed) {
  SessionConfig config;
  config.engine.lambda1 = 2.5f;
  config.engine.step = 0.05f;
  config.engine.max_iterations_per_seed = 150;
  config.engine.rng_seed = rng_seed;
  return config;
}

reference::Metrics FreshMetrics(std::vector<Model>& models, const CoverageOptions& options) {
  reference::Metrics metrics;
  for (Model& m : models) {
    metrics.push_back(MakeCoverageMetric("neuron", m, options));
  }
  return metrics;
}

class DeepXploreToyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    train_ = new Dataset(MakeToyTask(600, 1));
    models_ = new std::vector<Model>();
    // Three architecturally different classifiers, independently seeded.
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
  }
  static void TearDownTestSuite() {
    delete models_;
    delete train_;
    models_ = nullptr;
    train_ = nullptr;
  }

  std::vector<Model*> ModelPtrs() {
    std::vector<Model*> ptrs;
    for (Model& m : *models_) {
      ptrs.push_back(&m);
    }
    return ptrs;
  }

  // The oracle's view of a session over the toy trio.
  reference::Setup ReferenceSetup(const EngineConfig& engine) {
    reference::Setup setup;
    setup.models = ModelPtrs();
    setup.constraint = &constraint_;
    setup.engine = engine;
    return setup;
  }

  // ∇x of the `joint` plug-in at x for deviator j and consensus c, through
  // the entry point the executor runs: Objective::Accumulate on each
  // model's width-1 plan.
  static Tensor JointGradient(const EngineConfig& cfg, const Tensor& x, int target,
                              int consensus, Rng& rng, const reference::Metrics& metrics) {
    const auto joint = MakeObjective("joint");
    ObjectiveContext ctx;
    ctx.metrics = &metrics;
    ctx.target_model = target;
    ctx.consensus = consensus;
    ctx.lambda1 = cfg.lambda1;
    ctx.lambda2 = cfg.lambda2;
    ctx.rng = &rng;
    Tensor grad(x.shape());
    for (size_t k = 0; k < models_->size(); ++k) {
      ExecutionPlan plan = (*models_)[k].Compile(1);
      plan.ForwardBatch(x, 1);
      joint->Accumulate(ctx, static_cast<int>(k), plan, 0, &grad);
    }
    return grad;
  }

  static Dataset* train_;
  static std::vector<Model>* models_;
  UnconstrainedImage constraint_;
};

Dataset* DeepXploreToyTest::train_ = nullptr;
std::vector<Model>* DeepXploreToyTest::models_ = nullptr;

TEST_F(DeepXploreToyTest, ConstructorValidation) {
  const SessionConfig cfg;
  auto ptrs = ModelPtrs();
  EXPECT_THROW(Session({ptrs[0]}, &constraint_, cfg), std::invalid_argument);
  EXPECT_THROW(Session(ptrs, nullptr, cfg), std::invalid_argument);
  Model other("odd", {3});
  Rng rng(1);
  other.Emplace<Dense>(3, 2).InitParams(rng);
  other.Emplace<SoftmaxLayer>();
  EXPECT_THROW(Session({ptrs[0], &other}, &constraint_, cfg), std::invalid_argument);
  SessionConfig no_sync = cfg;
  no_sync.sync_interval = 0;
  EXPECT_THROW(Session(ptrs, &constraint_, no_sync), std::invalid_argument);
  SessionConfig no_batch = cfg;
  no_batch.batch_size = 0;
  EXPECT_THROW(Session(ptrs, &constraint_, no_batch), std::invalid_argument);
}

TEST_F(DeepXploreToyTest, ClassifiersAreNotRegression) {
  const Session session(ModelPtrs(), &constraint_, SessionConfig{});
  EXPECT_FALSE(session.regression());
  EXPECT_EQ(session.num_models(), 3);
}

TEST_F(DeepXploreToyTest, PredictionsAndDifferencePredicate) {
  const Session session(ModelPtrs(), &constraint_, SessionConfig{});
  // A point deep inside class 0 territory: everyone agrees.
  Tensor easy({2}, std::vector<float>{0.9f, 0.1f});
  const auto labels = session.PredictLabels(easy);
  EXPECT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], 0);
  EXPECT_FALSE(session.IsDifference(easy));
}

TEST_F(DeepXploreToyTest, JointGradientIncreasesObjective) {
  EngineConfig cfg;
  cfg.lambda2 = 0.0f;  // Isolate obj1.
  Tensor x({2}, std::vector<float>{0.7f, 0.3f});
  const int c = (*models_)[0].PredictClass(x);
  const int j = 1;

  const auto obj1 = [&](const Tensor& xx) {
    double v = 0.0;
    for (size_t k = 0; k < models_->size(); ++k) {
      const float conf = (*models_)[k].Predict(xx)[c];
      v += static_cast<int>(k) == j ? -cfg.lambda1 * conf : conf;
    }
    return v;
  };

  const double before = obj1(x);
  Rng rng(1);
  const reference::Metrics metrics = FreshMetrics(*models_, cfg.coverage);
  Tensor grad = JointGradient(cfg, x, j, c, rng, metrics);
  ASSERT_GT(grad.L2Norm(), 0.0f);
  Tensor stepped = x;
  stepped.Axpy(0.01f / grad.L2Norm(), grad);
  EXPECT_GT(obj1(stepped), before);
}

TEST_F(DeepXploreToyTest, SingleSeedFindsDifference) {
  SessionConfig cfg = ToyConfig(2);
  cfg.engine.max_iterations_per_seed = 200;
  Session session(ModelPtrs(), &constraint_, cfg);
  // A seed near the decision boundary but with consensus.
  const std::vector<Tensor> seeds = {Tensor({2}, std::vector<float>{0.60f, 0.40f})};
  ASSERT_FALSE(session.IsDifference(seeds[0]));
  const RunStats stats = session.Run(seeds, RunOptions{});
  ASSERT_EQ(stats.tests.size(), 1u);
  const GeneratedTest& test = stats.tests[0];
  EXPECT_TRUE(session.IsDifference(test.input));
  EXPECT_GE(test.iterations, 1);
  EXPECT_EQ(test.labels.size(), 3u);
  // Deviating model really is in the minority.
  int agree = 0;
  for (const int l : test.labels) {
    agree += l == test.labels[static_cast<size_t>(test.deviating_model)] ? 1 : 0;
  }
  EXPECT_EQ(agree, 1);
  // Inputs stay in the valid domain.
  EXPECT_GE(test.input.Min(), 0.0f);
  EXPECT_LE(test.input.Max(), 1.0f);
  // Coverage updated.
  EXPECT_GT(session.MeanCoverage(), 0.0f);
}

TEST_F(DeepXploreToyTest, RunGeneratesManyTestsAndRespectsBudget) {
  Session session(ModelPtrs(), &constraint_, ToyConfig(2));
  RunOptions opts;
  opts.max_tests = 5;
  const RunStats stats = session.Run(BoundarySeeds(40, 10), opts);
  EXPECT_EQ(static_cast<int>(stats.tests.size()), 5);
  EXPECT_GT(stats.total_iterations, 0);
  EXPECT_LE(stats.seeds_tried, 40);
  for (const GeneratedTest& t : stats.tests) {
    EXPECT_TRUE(session.IsDifference(t.input));
  }
}

TEST_F(DeepXploreToyTest, LambdaTwoZeroDisablesCoverageObjective) {
  EngineConfig cfg;
  cfg.lambda2 = 0.0f;
  const reference::Metrics metrics = FreshMetrics(*models_, cfg.coverage);
  // Gradient must be identical on repeated calls (no stochastic neuron pick).
  Rng rng(3);
  Tensor x({2}, std::vector<float>{0.55f, 0.45f});
  const Tensor g1 = JointGradient(cfg, x, 0, 0, rng, metrics);
  const Tensor g2 = JointGradient(cfg, x, 0, 0, rng, metrics);
  for (int64_t i = 0; i < g1.numel(); ++i) {
    EXPECT_FLOAT_EQ(g1[i], g2[i]);
  }
}

// The engine must agree with the paper's Algorithm 1 run seed by seed: the
// same seeds yield tests after the same iteration counts, with the same
// predictions, and the final coverage matches. Only the kernels' float
// accumulation order differs, so inputs match within kernel tolerance.
void ExpectMatchesReference(const RunStats& got, const RunStats& want) {
  ASSERT_GT(want.tests.size(), 0u);
  ASSERT_EQ(got.tests.size(), want.tests.size());
  EXPECT_EQ(got.seeds_tried, want.seeds_tried);
  EXPECT_EQ(got.seeds_skipped, want.seeds_skipped);
  EXPECT_EQ(got.total_iterations, want.total_iterations);
  EXPECT_FLOAT_EQ(got.mean_coverage, want.mean_coverage);
  for (size_t i = 0; i < want.tests.size(); ++i) {
    const GeneratedTest& g = got.tests[i];
    const GeneratedTest& w = want.tests[i];
    EXPECT_EQ(g.seed_index, w.seed_index) << "test " << i;
    EXPECT_EQ(g.task_ordinal, w.task_ordinal) << "test " << i;
    EXPECT_EQ(g.iterations, w.iterations) << "test " << i;
    EXPECT_EQ(g.deviating_model, w.deviating_model) << "test " << i;
    EXPECT_EQ(g.labels, w.labels) << "test " << i;
    EXPECT_EQ(g.outputs.size(), w.outputs.size()) << "test " << i;
    testing::ExpectTensorsNear(g.input, w.input, testing::kKernelBackwardTolerance,
                               "test " + std::to_string(i) + " input");
  }
}

TEST_F(DeepXploreToyTest, SessionAgreesWithAlgorithm1Reference) {
  const std::vector<Tensor> seeds = BoundarySeeds(24, 10);
  for (const int sync_interval : {1, 8}) {
    SCOPED_TRACE("sync_interval=" + std::to_string(sync_interval));
    SessionConfig config = ToyConfig(9);
    config.sync_interval = sync_interval;
    config.batch_size = 4;
    Session session(ModelPtrs(), &constraint_, config);
    const RunStats got = session.Run(seeds, RunOptions{});

    reference::Metrics metrics = FreshMetrics(*models_, config.engine.coverage);
    const RunStats want =
        reference::Run(ReferenceSetup(config.engine), seeds, sync_interval, metrics);
    ExpectMatchesReference(got, want);
  }
}

// ---- Regression (driving-style) engine ---------------------------------------------------

Model MakeToyRegressor(const std::string& name, int hidden, uint64_t seed) {
  Rng rng(seed);
  Model m(name, {2});
  m.Emplace<Dense>(2, hidden, Activation::kTanh).InitParams(rng);
  m.Emplace<Dense>(hidden, 1, Activation::kTanh).InitParams(rng);
  return m;
}

TEST(DeepXploreRegressionTest, FindsSteeringDisagreements) {
  // Target: y = x0 - x1 (in [-1,1]); two regressors trained differently.
  Dataset train{"reg", {2}, 0, {}, {}};
  Rng data_rng(20);
  for (int i = 0; i < 500; ++i) {
    Tensor x({2});
    x[0] = data_rng.NextFloat();
    x[1] = data_rng.NextFloat();
    const float y = x[0] - x[1];
    train.Add(std::move(x), y);
  }
  std::vector<Model> models;
  models.push_back(MakeToyRegressor("reg_a", 8, 1));
  models.push_back(MakeToyRegressor("reg_b", 16, 2));
  {
    TrainConfig cfg;
    cfg.epochs = 6;
    cfg.learning_rate = 5e-3f;
    Trainer::Fit(&models[0], train, cfg);
    ASSERT_LT(Trainer::MseOf(models[0], train), 0.02f);
  }
  {
    // The second regressor is deliberately undertrained (small subset, few
    // epochs) so the pair has real disagreement regions to discover — the
    // paper's Table 12 shows DeepXplore times out on near-identical models.
    Rng sample_rng(3);
    const Dataset small = train.Sample(80, sample_rng);
    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.learning_rate = 5e-3f;
    Trainer::Fit(&models[1], small, cfg);
  }

  UnconstrainedImage constraint;
  SessionConfig cfg;
  cfg.engine.step = 0.03f;
  cfg.engine.steering_eps = 0.1f;
  cfg.engine.max_iterations_per_seed = 300;
  cfg.engine.rng_seed = 21;
  Session session({&models[0], &models[1]}, &constraint, cfg);
  EXPECT_TRUE(session.regression());

  const std::vector<Tensor> seeds(train.inputs.begin(), train.inputs.begin() + 20);
  const RunStats stats = session.Run(seeds, RunOptions{});
  ASSERT_GT(stats.tests.size(), 0u) << "no steering disagreement found in 20 seeds";
  for (const GeneratedTest& test : stats.tests) {
    ASSERT_EQ(test.outputs.size(), 2u);
    EXPECT_GT(std::abs(test.outputs[0] - test.outputs[1]), cfg.engine.steering_eps);
  }

  // The regression predicate agrees with the reference. (With two models
  // both sit equally far from their mean, so the deviator is decided by
  // rounding and is not compared.)
  reference::Setup setup;
  setup.models = {&models[0], &models[1]};
  setup.constraint = &constraint;
  setup.engine = cfg.engine;
  setup.regression = true;
  reference::Metrics metrics = FreshMetrics(models, cfg.engine.coverage);
  const RunStats want = reference::Run(setup, seeds, cfg.sync_interval, metrics);
  ASSERT_EQ(stats.tests.size(), want.tests.size());
  EXPECT_EQ(stats.total_iterations, want.total_iterations);
  for (size_t i = 0; i < want.tests.size(); ++i) {
    EXPECT_EQ(stats.tests[i].seed_index, want.tests[i].seed_index);
    EXPECT_EQ(stats.tests[i].iterations, want.tests[i].iterations);
    testing::ExpectTensorsNear(stats.tests[i].input, want.tests[i].input,
                               testing::kKernelBackwardTolerance, "regression input");
  }
}

}  // namespace
}  // namespace dx
