// Executor: the batched execution engine underneath Session.
//
// Runs Algorithm 1's gradient-ascent inner loop for a *chunk* of seeds in
// lockstep. Each iteration stacks the chunk's current inputs into one
// [B, ...] tensor, pushes it through all K models (one pass per model), and
// shares the resulting traces between the three consumers that historically
// each re-forwarded the same input:
//
//   1. the objective gradient: every task plans its terms
//      (Objective::Plan), then each model backpropagates each term slot
//      once over all rows of the chunk (ExecutionPlan::BackwardRows) and
//      each task adds its row into its own gradient,
//   2. the difference check (the session-wide oracle, ModelsDisagree and
//      DeviatingModel, over per-model argmax / scalar outputs), and
//   3. the coverage update of a finished seed (CoverageMetric::UpdateBatch).
//
// Consequently every (seed, model, iteration) is forwarded exactly once —
// the trace computed after stepping input x serves both iteration i's
// difference check and iteration i+1's objective gradient. Model counts
// this via Model::forward_passes(), and tests assert it.
//
// Zero-allocation steady state: all per-chunk storage — one compiled
// ExecutionPlan per model (src/nn/execution_plan.h), the stacked-input
// buffer, per-task gradient, term and direction buffers — lives in a pooled
// ChunkState that Run borrows and returns. After warm-up (first Run at a
// given chunk width per concurrent caller), an iteration that finds no test
// performs no heap allocation at all: layer kernels write into plan slabs,
// objective backprop reuses plan scratch, the constraint writes into a
// reused direction buffer, and the difference check reads the final trace
// rows in place (tests/alloc_test.cc enforces this).
//
// Batch invariance: per-task state (RNG stream, coverage trackers) stays
// isolated per task, and every plan kernel computes each sample exactly as
// it would in a width-1 chunk, so results are independent of the chunk
// composition — any batch size reproduces a one-seed chunk bit for bit. The
// batched backward keeps it: a BackwardRows row equals that sample's
// width-1 backward, and each task's RNG draws and gradient adds keep the
// order a one-seed chunk has (the contract in src/core/objective.h).
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

namespace dx {

// Wall time spent in each phase of Executor::Run, summed over chunks and
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
  int64_t iterations = 0;           // Batched lockstep iterations measured.
  // Rows in the gradient half, summed over iterations: rows / iterations is
  // the mean chunk width the batched backward runs at.
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

  // Lockstep gradient ascent over the chunk (Algorithm 1's inner loop per
  // task). result[i] corresponds to tasks[i]: nullopt when the seed has no
  // consensus or the iteration budget runs out; on success tasks[i].metrics
  // has been updated with the generated input's activations. Thread-safe:
  // concurrent Run calls each borrow their own pooled ChunkState.
  std::vector<std::optional<GeneratedTest>> Run(const std::vector<SeedTask>& tasks,
                                                const Objective& objective) const;

  // Per-phase wall-time collection (off by default; ~no overhead when off).
  void EnableProfiling(bool enabled) { profiling_ = enabled; }
  bool profiling_enabled() const { return profiling_; }
  ExecutorProfile profile() const;
  void ResetProfile();

 private:
  struct ChunkState;  // Pooled per-chunk buffers + plans (executor.cc).

  int num_models() const { return static_cast<int>(models_.size()); }
  // Borrows a ChunkState able to run `width`-wide chunks (recompiling its
  // plans only when it has never seen a chunk this wide).
  std::unique_ptr<ChunkState> AcquireState(int width) const;
  void ReleaseState(std::unique_ptr<ChunkState> state) const;

  std::vector<Model*> models_;
  const Constraint* constraint_;
  bool regression_;
  const EngineConfig* engine_;

  mutable std::mutex pool_mu_;
  mutable std::vector<std::unique_ptr<ChunkState>> state_pool_;

  bool profiling_ = false;
  mutable std::mutex profile_mu_;
  mutable ExecutorProfile profile_;
};

}  // namespace dx

#endif  // DX_SRC_CORE_EXECUTOR_H_
