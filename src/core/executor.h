// Executor: the batched execution engine underneath Session.
//
// Runs Algorithm 1's gradient-ascent inner loop for a batch of seeds, with
// the *row* (one seed's ascent) as the unit of work. A Run hands its rows to
// one or more drainers. A drainer holds up to `width` rows and runs one
// forward-first step over all of them at a time:
//
//   1. stack the rows' current inputs into one [B, ...] tensor and push it
//      through all K models (one pass per model);
//   2. check every row against the resulting traces: a row's first step is
//      its seed's consensus check and target draw (Algorithm 1 line 4);
//      later steps are the difference check (the session-wide oracle,
//      ModelsDisagree and DeviatingModel, over per-model argmax / scalar
//      outputs), the coverage update of a row that found a test
//      (CoverageMetric::UpdateBatch) and the iteration-budget check;
//   3. for the rows still ascending, the objective gradient from the same
//      traces: every row plans its terms (Objective::Plan), then each model
//      backpropagates each term slot once over all rows
//      (ExecutionPlan::BackwardRows) and each row adds its row into its own
//      gradient; then the constrained step moves each row's input.
//
// Between steps a row carries only its input and counters, so the rows that
// survive a step go back to whichever drainer has room: drainers share one
// queue, each keeps at most its fair share of the rows still live and tops
// up from the queue, so a batch never waits for one drainer's longest rows
// while another sits idle (iteration-level scheduling). A drainer never
// waits for rows another drainer holds; it exits when it holds none and the
// queue is empty.
//
// Every (seed, model, iteration) is forwarded exactly once — the trace of
// step i serves both its checks and the gradient that moves the input to
// step i+1. Model counts this via Model::forward_passes(), and tests assert
// it.
//
// Zero-allocation steady state: all per-drainer storage — one compiled
// ExecutionPlan per model (src/nn/execution_plan.h), the stacked-input
// buffer, per-position gradient, term and direction buffers — lives in a
// pooled ChunkState that a drainer borrows and returns, and the per-task
// inputs and the row queue live in a pooled RowState. After warm-up (first
// Run at a given width per concurrent drainer), a step that finds no test
// performs no heap allocation at all: layer kernels write into plan slabs,
// objective backprop reuses plan scratch, the constraint writes into a
// reused direction buffer, and the checks read the final trace rows in
// place (tests/alloc_test.cc enforces this).
//
// Batch invariance: per-task state (RNG stream, coverage trackers) stays
// isolated per task, and every plan kernel computes each sample exactly as
// it would in a width-1 step, so results are independent of which rows
// share a step, of the drainer count and of which drainer runs a row — any
// width reproduces a one-seed Run bit for bit. The batched backward keeps
// it: a BackwardRows row equals that sample's width-1 backward, and each
// task's RNG draws and gradient adds keep the order a one-seed Run has (the
// contract in src/core/objective.h).
#ifndef DX_SRC_CORE_EXECUTOR_H_
#define DX_SRC_CORE_EXECUTOR_H_

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/core/objective.h"
#include "src/core/session.h"
#include "src/coverage/coverage_metric.h"
#include "src/nn/model.h"
#include "src/util/thread_pool.h"

namespace dx {

// Wall time spent in each phase of Executor::Run, summed over drainers and
// threads (collected only while profiling is enabled — see
// Executor::EnableProfiling and the CLI's --profile report).
struct ExecutorProfile {
  double stack_seconds = 0.0;     // Stacking inputs into the batch buffer.
  double forward_seconds = 0.0;   // Batched forward passes (all models).
  // The old `gradient` phase, split so kernel-level backward optimizations
  // are visible: time inside the plans' backward calls (layer chains and
  // seed writes) vs everything else in the objective step (term planning,
  // neuron picks, gradient accumulation, RMS normalization).
  double backward_layers_seconds = 0.0;
  double objective_accumulate_seconds = 0.0;
  double constraint_seconds = 0.0;  // Constraint apply + step + projection.
  double coverage_seconds = 0.0;    // Difference checks + coverage updates.
  // Drainer steps measured (one batched forward plus its checks and
  // gradient half); the phase seconds divided by this are per-step costs.
  int64_t iterations = 0;
  // Rows stacked by those steps: rows / iterations is the mean width a step
  // runs at.
  int64_t rows = 0;

  ExecutorProfile& operator+=(const ExecutorProfile& other);
  double TotalSeconds() const {
    return stack_seconds + forward_seconds + backward_layers_seconds +
           objective_accumulate_seconds + constraint_seconds + coverage_seconds;
  }
};

class Executor {
 public:
  // One seed's unit of work. All pointers are non-owning and must outlive
  // the Run call; `rng` and `metrics` are task-private (the session hands
  // every task its own RNG stream and coverage clones).
  struct SeedTask {
    const Tensor* seed = nullptr;
    int seed_index = 0;
    // Global schedule position; stamped into GeneratedTest::task_ordinal as
    // RNG-stream provenance for corpus replay.
    uint64_t ordinal = 0;
    Rng* rng = nullptr;
    std::vector<std::unique_ptr<CoverageMetric>>* metrics = nullptr;
  };

  // `engine` is borrowed (it lives in the session's config) and read on
  // every Run call, so config edits between runs take effect.
  Executor(std::vector<Model*> models, const Constraint* constraint, bool regression,
           const EngineConfig* engine);
  ~Executor();  // Out of line: ChunkState is an incomplete type here.

  // Gradient ascent over every task (Algorithm 1's inner loop per task).
  // result[i] corresponds to tasks[i]: nullopt when the seed has no
  // consensus or the iteration budget runs out; on success tasks[i].metrics
  // has been updated with the generated input's activations.
  //
  // `drainers` drainers (at most ceil(tasks / width)) each step up to
  // `width` rows at a time; more than one run as one ParallelFor on `pool`,
  // on its threads plus the caller. Results are the same for any width and
  // drainer count. An exception thrown for one row stops every drainer at
  // its next step and is rethrown here. Thread-safe: concurrent Run calls
  // borrow their own pooled state.
  std::vector<std::optional<GeneratedTest>> Run(const std::vector<SeedTask>& tasks,
                                                const Objective& objective, int width,
                                                int drainers, ThreadPool* pool) const;
  // One drainer stepping every task at once on the calling thread.
  std::vector<std::optional<GeneratedTest>> Run(const std::vector<SeedTask>& tasks,
                                                const Objective& objective) const;

  // Per-phase wall-time collection (off by default; ~no overhead when off).
  void EnableProfiling(bool enabled) { profiling_ = enabled; }
  bool profiling_enabled() const { return profiling_; }
  ExecutorProfile profile() const;

 private:
  struct ChunkState;  // Pooled per-drainer buffers + plans (executor.cc).
  struct RowState;    // Pooled per-Run rows: task inputs + the queue.
  struct Drain;       // One Run's shared arguments (executor.cc).

  int num_models() const { return static_cast<int>(models_.size()); }
  // Borrows a ChunkState able to step `width` rows (recompiling its plans
  // only when it has never seen a step this wide).
  std::unique_ptr<ChunkState> AcquireState(int width) const;
  void ReleaseState(std::unique_ptr<ChunkState> state) const;
  // One drainer: steps rows from the Run's queue until none are left.
  void DrainRows(Drain& drain) const;
  // One forward-first step over the rows `cs` holds; keeps the survivors
  // in `cs` and returns how many rows finished.
  int StepRows(Drain& drain, ChunkState& cs, ExecutorProfile& prof) const;

  std::vector<Model*> models_;
  const Constraint* constraint_;
  bool regression_;
  const EngineConfig* engine_;

  mutable std::mutex pool_mu_;
  mutable std::vector<std::unique_ptr<ChunkState>> state_pool_;
  mutable std::vector<std::unique_ptr<RowState>> row_pool_;

  bool profiling_ = false;
  mutable std::mutex profile_mu_;
  mutable ExecutorProfile profile_;
};

}  // namespace dx

#endif  // DX_SRC_CORE_EXECUTOR_H_
