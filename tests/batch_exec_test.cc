// Batched execution tests: every layer's batch kernels must be bit-identical
// across batch widths and match the per-sample oracle (exactly, or within the
// kernel tolerances for the GEMM-backed layers), the compiled plan must
// reproduce the scalar trace and gradients, Session results must be
// invariant to batch size and worker count, and the executor must forward
// each (seed, model, iteration) exactly once (the single-pass guarantee).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/baselines/random_testing.h"
#include "src/constraints/constraint.h"
#include "src/constraints/image_constraints.h"
#include "src/data/dataset.h"
#include "src/core/objective.h"
#include "src/core/seed_scheduler.h"
#include "src/core/session.h"
#include "src/coverage/coverage_metric.h"
#include "src/models/trainer.h"
#include "src/nn/batchnorm.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/dropout.h"
#include "src/nn/execution_plan.h"
#include "src/nn/flatten.h"
#include "src/nn/model.h"
#include "src/nn/pool2d.h"
#include "src/nn/residual.h"
#include "src/nn/softmax_layer.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "src/util/serialize.h"
#include "tests/test_util.h"

namespace dx {
namespace {

// Not a multiple of any GEMM tile width, so edge tiles run too.
constexpr int kBatch = 13;

// Hand-picked-shape instantiation of the shared harness; the randomized
// shape/batch sweep lives in tests/batch_property_test.cc.
void ExpectBatchMatchesScalar(const Layer& layer, const Shape& in_shape, uint64_t seed) {
  testing::ExpectBatchMatchesScalar(layer, in_shape, kBatch, seed);
}

TEST(BatchKernelTest, Dense) {
  for (const Activation act : {Activation::kNone, Activation::kRelu, Activation::kTanh}) {
    Rng rng(11);
    Dense layer(13, 7, act);
    layer.InitParams(rng);
    ExpectBatchMatchesScalar(layer, {13}, 100 + static_cast<uint64_t>(act));
  }
}

TEST(BatchKernelTest, Conv2D) {
  Rng rng(12);
  Conv2D layer(2, 4, 3, 3, 2, 1, Activation::kRelu);
  layer.InitParams(rng);
  ExpectBatchMatchesScalar(layer, {2, 9, 9}, 101);
}

TEST(BatchKernelTest, Pool2DMaxAndAvg) {
  ExpectBatchMatchesScalar(Pool2D(PoolMode::kMax, 2), {3, 8, 8}, 102);
  ExpectBatchMatchesScalar(Pool2D(PoolMode::kAvg, 2), {3, 8, 8}, 103);
}

TEST(BatchKernelTest, Flatten) { ExpectBatchMatchesScalar(Flatten(), {2, 4, 4}, 104); }

TEST(BatchKernelTest, Softmax) { ExpectBatchMatchesScalar(SoftmaxLayer(), {9}, 105); }

TEST(BatchKernelTest, BatchNormFlatAndChw) {
  BatchNorm flat(6);
  flat.SetStatistics({0.1f, -0.2f, 0.3f, 0.0f, 1.0f, -1.0f},
                     {1.0f, 0.5f, 2.0f, 1.5f, 0.25f, 1.0f});
  ExpectBatchMatchesScalar(flat, {6}, 106);
  BatchNorm chw(3);
  chw.SetStatistics({0.5f, -0.5f, 0.0f}, {1.0f, 2.0f, 0.5f});
  ExpectBatchMatchesScalar(chw, {3, 5, 5}, 107);
}

TEST(BatchKernelTest, DropoutInference) {
  // Inference-mode dropout is the identity.
  ExpectBatchMatchesScalar(Dropout(0.4f), {10}, 108);
}

TEST(BatchKernelTest, ResidualBlockWithProjection) {
  Rng rng(13);
  ResidualBlock layer(2, 4, 2);
  layer.InitParams(rng);
  ExpectBatchMatchesScalar(layer, {2, 8, 8}, 109);
}

// ---- Model level -------------------------------------------------------------------------

Model MakeConvNet(uint64_t seed) {
  Rng rng(seed);
  Model m("convnet", {1, 12, 12});
  m.Emplace<Conv2D>(1, 4, 3, 3, 1, 1, Activation::kRelu).InitParams(rng);
  m.Emplace<Pool2D>(PoolMode::kMax, 2);
  m.Emplace<Flatten>();
  m.Emplace<Dense>(4 * 6 * 6, 16, Activation::kTanh).InitParams(rng);
  m.Emplace<Dense>(16, 3).InitParams(rng);
  m.Emplace<SoftmaxLayer>();
  return m;
}

std::vector<Tensor> RandomInputs(const Model& m, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> inputs;
  for (int b = 0; b < kBatch; ++b) {
    inputs.push_back(Tensor::RandUniform(m.input_shape(), rng));
  }
  return inputs;
}

Tensor Stack(const std::vector<Tensor>& samples) {
  std::vector<const Tensor*> ptrs;
  for (const Tensor& t : samples) {
    ptrs.push_back(&t);
  }
  return StackSamples(ptrs);
}

TEST(BatchModelTest, PlanForwardMatchesScalarTrace) {
  const Model m = MakeConvNet(21);
  const std::vector<Tensor> inputs = RandomInputs(m, 22);
  ExecutionPlan plan = m.Compile(kBatch);
  const BatchTrace& batched = plan.ForwardBatch(Stack(inputs), kBatch);
  ASSERT_EQ(batched.batch, kBatch);
  for (int b = 0; b < kBatch; ++b) {
    const ForwardTrace scalar = m.Forward(inputs[static_cast<size_t>(b)]);
    ASSERT_EQ(batched.outputs.size(), scalar.outputs.size());
    for (size_t l = 0; l < scalar.outputs.size(); ++l) {
      testing::ExpectTensorsNear(batched.SampleOutput(static_cast<int>(l), b),
                                 scalar.outputs[l], testing::kKernelForwardTolerance,
                                 "sample " + std::to_string(b) + " layer " + std::to_string(l));
    }
  }
}

TEST(BatchModelTest, PlanBackwardMatchesScalar) {
  const Model m = MakeConvNet(23);
  const std::vector<Tensor> inputs = RandomInputs(m, 24);
  Rng rng(25);
  std::vector<Tensor> seeds;
  for (int b = 0; b < kBatch; ++b) {
    seeds.push_back(Tensor::RandUniform(m.output_shape(), rng, -1.0f, 1.0f));
  }
  ExecutionPlan plan = m.Compile(kBatch);
  plan.ForwardBatch(Stack(inputs), kBatch);
  const int last = m.num_layers() - 1;
  const Tensor& batched_grad = plan.BackwardInputBatch(last, Stack(seeds));
  for (int b = 0; b < kBatch; ++b) {
    const ForwardTrace scalar = m.Forward(inputs[static_cast<size_t>(b)]);
    const Tensor scalar_grad =
        m.BackwardInput(scalar, last, seeds[static_cast<size_t>(b)]);
    testing::ExpectTensorsNear(SliceSample(batched_grad, b), scalar_grad,
                               testing::kKernelBackwardTolerance,
                               "sample " + std::to_string(b));
  }
}

TEST(BatchModelTest, ForwardPassCounterCountsSamples) {
  const Model m = MakeConvNet(25);
  m.ResetForwardPasses();
  Rng rng(26);
  const Tensor x = Tensor::RandUniform(m.input_shape(), rng);
  m.Forward(x);
  EXPECT_EQ(m.forward_passes(), 1);
  ExecutionPlan plan = m.Compile(3);
  plan.ForwardBatch(Stack({x, x, x}), 3);
  EXPECT_EQ(m.forward_passes(), 4);
}

// ---- Coverage metric batch entry point ---------------------------------------------------

std::string StateBlob(const CoverageMetric& metric) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  metric.Serialize(writer);
  return out.str();
}

// One width-B UpdateBatch must leave every registered metric byte-identical
// to B updates on the plan's width-1 sample traces. The conv net's
// per-sample activation planes make a wrong row offset visible, and the
// metrics are profiled first so k-multisection has ranges to bucket into.
TEST(BatchMetricTest, UpdateBatchMatchesPerSampleUpdates) {
  const Model m = MakeConvNet(27);
  ExecutionPlan plan = m.Compile(kBatch);
  CoverageOptions options;
  options.threshold = 0.2f;
  for (const std::string& name : CoverageMetricNames()) {
    auto via_batch = MakeCoverageMetric(name, m, options);
    const BatchTrace& profile = plan.ForwardBatch(Stack(RandomInputs(m, 29)), kBatch);
    for (int b = 0; b < kBatch; ++b) {
      via_batch->ProfileSeed(m, profile, b);
    }
    auto via_samples = via_batch->Clone();
    const BatchTrace& batched = plan.ForwardBatch(Stack(RandomInputs(m, 28)), kBatch);
    via_batch->UpdateBatch(m, batched);
    for (int b = 0; b < kBatch; ++b) {
      via_samples->UpdateBatch(m, plan.SampleTrace(b));
    }
    EXPECT_GT(via_batch->covered_items(), 0) << name;
    EXPECT_EQ(StateBlob(*via_batch), StateBlob(*via_samples)) << name;
  }
}

// ---- Session invariance ------------------------------------------------------------------

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

class BatchSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Dataset train = MakeToyTask(500, 2);
    models_ = new std::vector<Model>();
    models_->push_back(MakeToyClassifier("bt_a", 16, 41));
    models_->push_back(MakeToyClassifier("bt_b", 24, 42));
    models_->push_back(MakeToyClassifier("bt_c", 12, 43));
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

  static SessionConfig BaseConfig() {
    SessionConfig config;
    config.engine.lambda1 = 2.5f;
    config.engine.step = 0.05f;
    config.engine.max_iterations_per_seed = 120;
    config.engine.rng_seed = 19;
    return config;
  }

  static RunStats RunWith(int batch_size, int workers) {
    SessionConfig config = BaseConfig();
    config.batch_size = batch_size;
    config.workers = workers;
    UnconstrainedImage constraint;
    Session session(ModelPtrs(), &constraint, config);
    return session.Run(*seeds_, RunOptions{});
  }

  static std::vector<Model>* models_;
  static std::vector<Tensor>* seeds_;
};

std::vector<Model>* BatchSessionTest::models_ = nullptr;
std::vector<Tensor>* BatchSessionTest::seeds_ = nullptr;

TEST_F(BatchSessionTest, ResultsAreBitIdenticalAcrossBatchSizesAndWorkers) {
  const RunStats reference = RunWith(/*batch_size=*/1, /*workers=*/1);
  ASSERT_GT(reference.tests.size(), 0u);
  for (const int batch_size : {3, 8}) {
    for (const int workers : {1, 4}) {
      const RunStats other = RunWith(batch_size, workers);
      ASSERT_EQ(other.tests.size(), reference.tests.size())
          << "batch=" << batch_size << " workers=" << workers;
      EXPECT_EQ(other.seeds_tried, reference.seeds_tried);
      EXPECT_EQ(other.seeds_skipped, reference.seeds_skipped);
      EXPECT_EQ(other.total_iterations, reference.total_iterations);
      EXPECT_EQ(other.forward_passes, reference.forward_passes);
      EXPECT_FLOAT_EQ(other.mean_coverage, reference.mean_coverage);
      for (size_t i = 0; i < reference.tests.size(); ++i) {
        EXPECT_EQ(other.tests[i].input.values(), reference.tests[i].input.values())
            << "batch=" << batch_size << " workers=" << workers << " test " << i;
        EXPECT_EQ(other.tests[i].seed_index, reference.tests[i].seed_index);
        EXPECT_EQ(other.tests[i].iterations, reference.tests[i].iterations);
        EXPECT_EQ(other.tests[i].deviating_model, reference.tests[i].deviating_model);
      }
    }
  }
}

TEST_F(BatchSessionTest, EachSeedModelIterationForwardsExactlyOnce) {
  SessionConfig config = BaseConfig();
  UnconstrainedImage constraint;
  Session session(ModelPtrs(), &constraint, config);
  int checked = 0;
  for (size_t i = 0; i < seeds_->size() && checked < 5; ++i) {
    for (Model* m : ModelPtrs()) {
      m->ResetForwardPasses();
    }
    const RunStats stats = session.Run({(*seeds_)[i]}, RunOptions{});
    if (stats.tests.empty()) {
      continue;
    }
    ++checked;
    // One consensus pass over the seed plus exactly one pass per iteration:
    // the objective gradient, the difference check, and the coverage update
    // all consumed the same shared trace.
    for (Model* m : ModelPtrs()) {
      EXPECT_EQ(m->forward_passes(), stats.tests[0].iterations + 1)
          << m->name() << " seed " << i;
    }
  }
  ASSERT_GT(checked, 0);
}

TEST_F(BatchSessionTest, RunStatsForwardPassesAccountsAllModels) {
  const RunStats stats = RunWith(/*batch_size=*/4, /*workers=*/1);
  // 3 models, each forwarding (iterations + 1) per productive seed and at
  // least one consensus pass per tried seed.
  EXPECT_GE(stats.forward_passes,
            3 * (stats.total_iterations + static_cast<int64_t>(stats.seeds_tried)));
}

// ---- Plug-in registries ------------------------------------------------------------------

TEST(RegistryTest, CustomObjectiveIsDiscoverable) {
  RegisterObjective("test-null-objective", []() -> std::unique_ptr<Objective> {
    return std::make_unique<RandomPerturbationObjective>();
  });
  const auto names = ObjectiveNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "test-null-objective"), names.end());
  EXPECT_NE(MakeObjective("test-null-objective"), nullptr);
  EXPECT_THROW(MakeObjective("no-such-objective"), std::invalid_argument);
}

TEST(RegistryTest, CustomSchedulerIsDiscoverable) {
  RegisterSeedScheduler("test-rr", []() -> std::unique_ptr<SeedScheduler> {
    return std::make_unique<RoundRobinScheduler>();
  });
  const auto names = SeedSchedulerNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "test-rr"), names.end());
  EXPECT_NE(MakeSeedScheduler("test-rr"), nullptr);
  // Historical aliases still resolve but stay out of the canonical listing.
  EXPECT_NE(MakeSeedScheduler("round-robin"), nullptr);
  EXPECT_EQ(std::find(names.begin(), names.end(), "round-robin"), names.end());
}

}  // namespace
}  // namespace dx
