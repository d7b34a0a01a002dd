// Batched execution tests: every layer's batch kernels must be bit-identical
// across batch widths and match the per-sample oracle (exactly, or within the
// kernel tolerances for the GEMM-backed layers), the compiled plan must
// reproduce the scalar trace and gradients, Session results must be
// invariant to batch size, worker count and drainer count (rows that change
// drainers mid-ascent included), and the executor must forward each (seed,
// model, iteration) exactly once (the single-pass guarantee).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/constraints/image_constraints.h"
#include "src/data/dataset.h"
#include "src/core/executor.h"
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
#include "src/util/thread_pool.h"
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

// A pool of rows that finish at very different steps: the fixture's
// near-boundary seeds (most find a test within a few steps), far seeds that
// exhaust a short budget, and seeds on the boundary the models may already
// disagree on.
std::vector<Tensor> MixedSeeds(const std::vector<Tensor>& near) {
  std::vector<Tensor> seeds;
  Rng rng(45);
  for (size_t i = 0; i < near.size(); ++i) {
    seeds.push_back(near[i]);
    if (i % 3 == 0) {
      Tensor far({2});
      far[0] = 0.9f * rng.NextFloat();
      far[1] = std::min(1.0f, far[0] + 0.7f * rng.NextFloat() + 0.1f);
      seeds.push_back(std::move(far));
    }
    if (i % 5 == 0) {
      Tensor edge({2});
      edge[0] = rng.NextFloat();
      edge[1] = edge[0] + 0.01f;
      seeds.push_back(std::move(edge));
    }
  }
  return seeds;
}

// Notes which threads step each row, keyed by the row's RNG (task-private,
// so one per row), and spins a few microseconds per step so that the
// drainers of a Run overlap and trade rows even on toy models. Armed, it
// throws from its Nth call on.
class RowTracker : public UnconstrainedImage {
 public:
  void ApplyInto(const Tensor& grad, const Tensor& x, Rng& rng,
                 Tensor* direction) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads_[&rng].insert(std::this_thread::get_id());
      if (throw_at > 0 && ++calls_ >= throw_at) {
        throw std::runtime_error("constraint failure");
      }
    }
    const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(20);
    while (std::chrono::steady_clock::now() < until) {
      std::this_thread::yield();
    }
    UnconstrainedImage::ApplyInto(grad, x, rng, direction);
  }
  // Whether some row was stepped on two threads since the last call (a row
  // that changed drainers); forgets the rows seen.
  bool TakeMoved() const {
    std::lock_guard<std::mutex> lock(mu_);
    const bool moved = std::any_of(threads_.begin(), threads_.end(),
                                   [](const auto& entry) { return entry.second.size() > 1; });
    threads_.clear();
    return moved;
  }
  int throw_at = 0;  // 0: never throw.

 private:
  mutable std::mutex mu_;
  mutable std::map<const Rng*, std::set<std::thread::id>> threads_;
  mutable int calls_ = 0;
};

TEST_F(BatchSessionTest, RowsThatChangeDrainersStayBitIdentical) {
  const std::vector<Tensor> seeds = MixedSeeds(*seeds_);
  struct Outcome {
    RunStats stats;
    std::vector<std::string> blobs;
    bool moved = false;
  };
  const auto run = [&](int workers, int batch_size) {
    SessionConfig config = BaseConfig();
    config.metric = "kmultisection";  // Clones share ranges across threads.
    config.engine.max_iterations_per_seed = 40;
    config.sync_interval = 24;
    config.workers = workers;
    config.batch_size = batch_size;
    RowTracker constraint;
    Session session(ModelPtrs(), &constraint, config);
    Outcome out;
    RunOptions options;
    // Task RNGs live for one sync batch, so rows are told apart per batch.
    options.on_batch = [&](const RunProgress&) { out.moved = constraint.TakeMoved() || out.moved; };
    out.stats = session.Run(seeds, options);
    for (int k = 0; k < session.num_models(); ++k) {
      out.blobs.push_back(StateBlob(session.metric(k)));
    }
    return out;
  };
  const Outcome reference = run(/*workers=*/1, /*batch_size=*/1);
  const std::vector<GeneratedTest>& want = reference.stats.tests;
  ASSERT_GT(want.size(), 0u);
  ASSERT_GT(reference.stats.seeds_skipped, 0);
  const auto [fewest, most] = std::minmax_element(
      want.begin(), want.end(),
      [](const GeneratedTest& a, const GeneratedTest& b) { return a.iterations < b.iterations; });
  EXPECT_LE(fewest->iterations, 5) << "no row finishes within a few steps";
  EXPECT_GE(most->iterations, 10) << "no row ascends for long";
  int runs_with_moves = 0;
  for (const int workers : {1, 2, 3, 4}) {
    for (const int batch_size : {1, 3, 8}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " batch_size=" + std::to_string(batch_size));
      const Outcome other = run(workers, batch_size);
      const std::vector<GeneratedTest>& got = other.stats.tests;
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(other.stats.seeds_tried, reference.stats.seeds_tried);
      EXPECT_EQ(other.stats.seeds_skipped, reference.stats.seeds_skipped);
      EXPECT_EQ(other.stats.total_iterations, reference.stats.total_iterations);
      EXPECT_EQ(other.stats.forward_passes, reference.stats.forward_passes);
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].input.values(), want[i].input.values()) << "test " << i;
        EXPECT_EQ(got[i].labels, want[i].labels) << "test " << i;
        EXPECT_EQ(got[i].iterations, want[i].iterations) << "test " << i;
        EXPECT_EQ(got[i].task_ordinal, want[i].task_ordinal) << "test " << i;
        EXPECT_EQ(got[i].deviating_model, want[i].deviating_model) << "test " << i;
      }
      EXPECT_EQ(other.blobs, reference.blobs);
      runs_with_moves += other.moved ? 1 : 0;
    }
  }
  EXPECT_GT(runs_with_moves, 0) << "no row ever changed drainers";
}

// Executor level: three drainers on a two-thread pool trade 24 rows and
// must match one drainer stepping them all; a row that throws ends the Run
// (no hang), and the pooled state it borrowed still runs the next Run.
TEST_F(BatchSessionTest, DrainersMatchOneDrainerAndSurviveAThrow) {
  const std::vector<Tensor> pool_seeds = MixedSeeds(*seeds_);
  ASSERT_GE(pool_seeds.size(), 24u);
  const std::vector<Model*> models = ModelPtrs();
  RowTracker constraint;
  EngineConfig engine = BaseConfig().engine;
  engine.max_iterations_per_seed = 40;
  const Executor executor(models, &constraint, /*regression=*/false, &engine);
  const auto objective = MakeObjective("joint");
  ThreadPool pool(2);

  struct Setup {
    std::vector<Rng> rngs;
    std::vector<std::vector<std::unique_ptr<CoverageMetric>>> metrics;
    std::vector<Executor::SeedTask> tasks;
  };
  const auto make_setup = [&] {
    Setup setup;
    setup.rngs.reserve(24);
    setup.metrics.resize(24);
    for (int t = 0; t < 24; ++t) {
      setup.rngs.emplace_back(700 + static_cast<uint64_t>(t));
      for (const Model* m : models) {
        setup.metrics[static_cast<size_t>(t)].push_back(
            MakeCoverageMetric("neuron", *m, engine.coverage));
      }
    }
    for (int t = 0; t < 24; ++t) {
      Executor::SeedTask task;
      task.seed = &pool_seeds[static_cast<size_t>(t)];
      task.seed_index = t;
      task.ordinal = static_cast<uint64_t>(t);
      task.rng = &setup.rngs[static_cast<size_t>(t)];
      task.metrics = &setup.metrics[static_cast<size_t>(t)];
      setup.tasks.push_back(task);
    }
    return setup;
  };
  const auto expect_same = [&](const std::vector<std::optional<GeneratedTest>>& got,
                               const Setup& got_setup,
                               const std::vector<std::optional<GeneratedTest>>& want,
                               const Setup& want_setup) {
    int found = 0;
    for (size_t t = 0; t < 24; ++t) {
      SCOPED_TRACE("task " + std::to_string(t));
      ASSERT_EQ(got[t].has_value(), want[t].has_value());
      if (got[t].has_value()) {
        ++found;
        EXPECT_EQ(got[t]->input.values(), want[t]->input.values());
        EXPECT_EQ(got[t]->iterations, want[t]->iterations);
        EXPECT_EQ(got[t]->labels, want[t]->labels);
        EXPECT_EQ(got[t]->deviating_model, want[t]->deviating_model);
      }
      Rng got_rng = got_setup.rngs[t];
      Rng want_rng = want_setup.rngs[t];
      EXPECT_EQ(got_rng.NextU64(), want_rng.NextU64());
      for (size_t k = 0; k < models.size(); ++k) {
        EXPECT_EQ(StateBlob(*got_setup.metrics[t][k]), StateBlob(*want_setup.metrics[t][k]));
      }
    }
    EXPECT_GT(found, 0);
    EXPECT_LT(found, 24);
  };

  const Setup one = make_setup();
  const auto alone = executor.Run(one.tasks, *objective);
  // Whether rows change drainers depends on timing: within a few Runs some do.
  bool moved = false;
  for (int attempt = 0; attempt < 5 && !moved; ++attempt) {
    constraint.TakeMoved();
    const Setup three = make_setup();
    const auto drained =
        executor.Run(three.tasks, *objective, /*width=*/8, /*drainers=*/3, &pool);
    moved = constraint.TakeMoved();
    expect_same(drained, three, alone, one);
  }
  EXPECT_TRUE(moved) << "no row changed drainers in five Runs";

  Setup failing = make_setup();
  constraint.throw_at = 150;
  EXPECT_THROW(executor.Run(failing.tasks, *objective, 8, 3, &pool), std::runtime_error);
  constraint.throw_at = 0;

  const Setup again = make_setup();
  const auto after = executor.Run(again.tasks, *objective, 8, 3, &pool);
  expect_same(after, again, alone, one);
}

// ---- Executor: the batched gradient half ---------------------------------------------------

// Conv, conv, flatten, dense, dense, softmax: the second conv sits directly
// under the flat run that BackwardRows batches, so coverage terms land on
// both sides of the batched/per-row boundary and on the first per-row layer.
Model MakeBoundaryNet(uint64_t seed) {
  Rng rng(seed);
  Model m("boundary", {1, 8, 8});
  m.Emplace<Conv2D>(1, 3, 3, 3, 1, 0, Activation::kRelu).InitParams(rng);
  m.Emplace<Conv2D>(3, 4, 3, 3, 1, 0, Activation::kRelu).InitParams(rng);
  m.Emplace<Flatten>();
  m.Emplace<Dense>(4 * 4 * 4, 12, Activation::kTanh).InitParams(rng);
  m.Emplace<Dense>(12, 3).InitParams(rng);
  m.Emplace<SoftmaxLayer>();
  return m;
}

// `joint`, recording the layers its coverage terms seed. Plan runs on the
// calling thread only, so the mutable record is safe here.
class RecordingJoint : public Objective {
 public:
  std::string name() const override { return "recording-joint"; }
  void Plan(const ObjectiveContext& ctx, int k, const Model& model,
            std::vector<LayerSeed>* terms, Tensor* grad) const override {
    const size_t before = terms->size();
    joint_->Plan(ctx, k, model, terms, grad);
    for (size_t i = before; i < terms->size(); ++i) {
      if ((*terms)[i].neuron) {
        neuron_layers.push_back((*terms)[i].layer);
      }
    }
  }
  mutable std::vector<int> neuron_layers;

 private:
  std::unique_ptr<Objective> joint_ = MakeJointObjective();
};

// One chunk where task 0's metrics are saturated (no coverage term) while
// the other tasks pick neurons on both sides of the batched/per-row
// boundary: every outcome, RNG stream and metric must equal what width-1
// chunks produce.
TEST(ExecutorBatchTest, MixedTermChunkMatchesWidthOneChunks) {
  Model a = MakeBoundaryNet(61);
  Model b = MakeBoundaryNet(61);
  Rng noise(62);
  for (Tensor* param : b.MutableParams()) {
    for (int64_t i = 0; i < param->numel(); ++i) {
      (*param)[i] += 0.05f * noise.NextFloat() - 0.025f;
    }
  }
  std::vector<Model*> models = {&a, &b};
  const UnconstrainedImage constraint;
  EngineConfig engine;
  engine.step = 0.05f;
  engine.lambda2 = 0.5f;
  engine.max_iterations_per_seed = 25;
  const Executor executor(models, &constraint, /*regression=*/false, &engine);
  constexpr int kTasks = 7;
  std::vector<Tensor> seeds;
  Rng seed_rng(63);
  for (int t = 0; t < kTasks; ++t) {
    seeds.push_back(Tensor::RandUniform(a.input_shape(), seed_rng));
  }

  struct Setup {
    std::vector<Rng> rngs;
    std::vector<std::vector<std::unique_ptr<CoverageMetric>>> metrics;
  };
  const auto make_setup = [&] {
    Setup setup;
    setup.metrics.resize(kTasks);
    for (int t = 0; t < kTasks; ++t) {
      setup.rngs.emplace_back(500 + static_cast<uint64_t>(t));
      CoverageOptions options;
      if (t == 0) {
        options.threshold = -1.0f;  // Every neuron covers on its first update.
      }
      for (const Model* m : models) {
        auto metric = MakeCoverageMetric("neuron", *m, options);
        if (t == 0) {
          ExecutionPlan plan = m->Compile(1);
          metric->UpdateBatch(*m, plan.ForwardBatch(seeds[0], 1));
          NeuronId id;
          EXPECT_FALSE(metric->PickUncovered(setup.rngs[0], &id)) << "not saturated";
        }
        setup.metrics[static_cast<size_t>(t)].push_back(std::move(metric));
      }
    }
    return setup;
  };
  const auto task = [&](Setup& setup, int t) {
    Executor::SeedTask task;
    task.seed = &seeds[static_cast<size_t>(t)];
    task.seed_index = t;
    task.ordinal = static_cast<uint64_t>(t);
    task.rng = &setup.rngs[static_cast<size_t>(t)];
    task.metrics = &setup.metrics[static_cast<size_t>(t)];
    return task;
  };

  RecordingJoint objective;
  Setup chunk = make_setup();
  std::vector<Executor::SeedTask> tasks;
  for (int t = 0; t < kTasks; ++t) {
    tasks.push_back(task(chunk, t));
  }
  const auto batched = executor.Run(tasks, objective);
  const std::vector<int> picked = objective.neuron_layers;
  EXPECT_TRUE(std::any_of(picked.begin(), picked.end(), [](int l) { return l < 2; }));
  EXPECT_TRUE(std::any_of(picked.begin(), picked.end(), [](int l) { return l == 1; }));
  EXPECT_TRUE(std::any_of(picked.begin(), picked.end(), [](int l) { return l >= 2; }));

  Setup single = make_setup();
  int found = 0;
  for (int t = 0; t < kTasks; ++t) {
    SCOPED_TRACE("task " + std::to_string(t));
    const auto alone = executor.Run({task(single, t)}, objective);
    const auto& got = batched[static_cast<size_t>(t)];
    ASSERT_EQ(got.has_value(), alone[0].has_value());
    if (got.has_value()) {
      ++found;
      EXPECT_EQ(got->input.values(), alone[0]->input.values());
      EXPECT_EQ(got->iterations, alone[0]->iterations);
      EXPECT_EQ(got->deviating_model, alone[0]->deviating_model);
      EXPECT_EQ(got->labels, alone[0]->labels);
    }
    EXPECT_EQ(chunk.rngs[static_cast<size_t>(t)].NextU64(),
              single.rngs[static_cast<size_t>(t)].NextU64());
    for (size_t k = 0; k < models.size(); ++k) {
      EXPECT_EQ(StateBlob(*chunk.metrics[static_cast<size_t>(t)][k]),
                StateBlob(*single.metrics[static_cast<size_t>(t)][k]));
    }
  }
  EXPECT_GT(found, 0);
}

// ---- Plug-in registries ------------------------------------------------------------------

// An out-of-tree objective through the one entry point: it plans nothing.
class NullObjective : public Objective {
 public:
  std::string name() const override { return "test-null-objective"; }
  void Plan(const ObjectiveContext& /*ctx*/, int /*k*/, const Model& /*model*/,
            std::vector<LayerSeed>* /*terms*/, Tensor* /*grad*/) const override {}
};

TEST(RegistryTest, CustomObjectiveIsDiscoverable) {
  RegisterObjective("test-null-objective", []() -> std::unique_ptr<Objective> {
    return std::make_unique<NullObjective>();
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
