// Allocation-regression test for the zero-allocation execution stack: after
// warm-up, the batched executor's gradient-ascent loop must perform ZERO
// per-iteration heap allocations. The global operator new replacements below
// count allocations while a scoped flag is set; the test measures two warm
// runs that differ only in their iteration budget and asserts the counts are
// EQUAL — any per-iteration allocation would make the longer run count more.
//
// The models in each pair are identical, so no difference-inducing input is
// ever found and every iteration takes the steady-state (no-find) path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/constraints/image_constraints.h"
#include "src/core/executor.h"
#include "src/core/objective.h"
#include "src/core/session.h"
#include "src/coverage/coverage_metric.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/flatten.h"
#include "src/nn/model.h"
#include "src/nn/pool2d.h"
#include "src/nn/softmax_layer.h"
#include "src/util/rng.h"

// ---- Scoped allocation counting ----------------------------------------------------------

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace dx {
namespace {

// Two bit-identical models: every seed keeps its consensus forever, so runs
// exhaust the full iteration budget on the steady-state path.
Model MakeModel() {
  Model m("twin", {1, 8, 8});
  Rng rng(4242);
  auto& conv = m.Emplace<Conv2D>(1, 3, 3, 3, 1, 0, Activation::kRelu);
  conv.InitParams(rng);
  m.Emplace<Pool2D>(PoolMode::kMax, 2);
  m.Emplace<Flatten>();
  auto& dense = m.Emplace<Dense>(3 * 3 * 3, 4, Activation::kNone);
  dense.InitParams(rng);
  m.Emplace<SoftmaxLayer>();
  return m;
}

std::vector<Tensor> MakeSeeds(const Model& model, int n) {
  Rng rng(99);
  std::vector<Tensor> seeds;
  for (int i = 0; i < n; ++i) {
    seeds.push_back(Tensor::RandUniform(model.input_shape(), rng));
  }
  return seeds;
}

struct TaskSetup {
  std::vector<Rng> rngs;
  std::vector<std::vector<std::unique_ptr<CoverageMetric>>> metrics;
  std::vector<Executor::SeedTask> tasks;
};

TaskSetup MakeSetup(const std::vector<Tensor>& seeds, const std::vector<Model*>& models,
                    const CoverageOptions& options) {
  TaskSetup setup;
  const int n = static_cast<int>(seeds.size());
  setup.rngs.reserve(static_cast<size_t>(n));
  setup.metrics.resize(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    setup.rngs.emplace_back(1000 + static_cast<uint64_t>(t));
    for (const Model* m : models) {
      setup.metrics[static_cast<size_t>(t)].push_back(
          MakeCoverageMetric("neuron", *m, options));
    }
  }
  for (int t = 0; t < n; ++t) {
    Executor::SeedTask task;
    task.seed = &seeds[static_cast<size_t>(t)];
    task.seed_index = t;
    task.ordinal = static_cast<uint64_t>(t);
    task.rng = &setup.rngs[static_cast<size_t>(t)];
    task.metrics = &setup.metrics[static_cast<size_t>(t)];
    setup.tasks.push_back(task);
  }
  return setup;
}

TEST(AllocTest, ExecutorSteadyStateIsAllocationFree) {
  Model a = MakeModel();
  Model b = MakeModel();
  std::vector<Model*> models = {&a, &b};
  const LightingConstraint constraint;
  EngineConfig engine;
  engine.step = 10.0f / 255.0f;
  engine.lambda2 = 0.1f;  // Coverage objective ON: PickUncovered runs hot.
  const Executor executor(models, &constraint, /*regression=*/false, &engine);
  const auto objective = MakeObjective("joint");
  const std::vector<Tensor> seeds = MakeSeeds(a, 4);

  const auto measure = [&](int iterations) {
    engine.max_iterations_per_seed = iterations;
    TaskSetup setup = MakeSetup(seeds, models, engine.coverage);
    g_allocs.store(0);
    g_counting.store(true);
    auto results = executor.Run(setup.tasks, *objective);
    g_counting.store(false);
    for (const auto& r : results) {
      EXPECT_FALSE(r.has_value()) << "identical models must never disagree";
    }
    return g_allocs.load();
  };

  // Warm-up: compiles plans, fills the state pool and workspace arenas.
  engine.max_iterations_per_seed = 2;
  {
    TaskSetup warm = MakeSetup(seeds, models, engine.coverage);
    (void)executor.Run(warm.tasks, *objective);
  }

  const int64_t short_run = measure(3);
  const int64_t long_run = measure(9);
  // Identical counts <=> zero allocations per additional iteration. (The
  // fixed per-Run cost — the results vector — is present in both.)
  EXPECT_EQ(short_run, long_run)
      << "per-iteration allocations: " << (long_run - short_run) << " over 6 iterations";
}

TEST(AllocTest, SessionRunSteadyStateIsAllocationFree) {
  Model a = MakeModel();
  Model b = MakeModel();
  std::vector<Model*> models = {&a, &b};
  const LightingConstraint constraint;

  const auto measure = [&](int iterations) {
    SessionConfig config;
    config.engine.step = 10.0f / 255.0f;
    config.engine.max_iterations_per_seed = iterations;
    Session session(models, &constraint, config);
    const std::vector<Tensor> seeds = MakeSeeds(a, 1);
    // Warm-up run for this session's executor state.
    (void)session.Run(seeds, RunOptions{});
    g_allocs.store(0);
    g_counting.store(true);
    const RunStats stats = session.Run(seeds, RunOptions{});
    g_counting.store(false);
    EXPECT_TRUE(stats.tests.empty());
    return g_allocs.load();
  };

  const int64_t short_run = measure(3);
  const int64_t long_run = measure(9);
  EXPECT_EQ(short_run, long_run)
      << "per-iteration allocations: " << (long_run - short_run) << " over 6 iterations";
}

}  // namespace
}  // namespace dx
