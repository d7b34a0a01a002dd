#include "src/core/executor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/nn/execution_plan.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace dx {

ExecutorProfile& ExecutorProfile::operator+=(const ExecutorProfile& other) {
  stack_seconds += other.stack_seconds;
  forward_seconds += other.forward_seconds;
  backward_layers_seconds += other.backward_layers_seconds;
  objective_accumulate_seconds += other.objective_accumulate_seconds;
  constraint_seconds += other.constraint_seconds;
  coverage_seconds += other.coverage_seconds;
  iterations += other.iterations;
  rows += other.rows;
  return *this;
}

// Pooled per-drainer execution buffers: one compiled plan per model plus
// every tensor a step writes. A state is borrowed by exactly one drainer at a
// time; after the first step at a given width all of this storage is warm
// and steps allocate nothing.
struct Executor::ChunkState {
  int capacity = 0;
  std::vector<ExecutionPlan> plans;  // One per model.
  Tensor stacked;                    // [width, ...input_shape] batch buffer.
  // Per survivor of a step (indexed like `pos`): its objective gradient and,
  // per model, the objective's terms.
  std::vector<Tensor> grads;
  std::vector<std::vector<std::vector<LayerSeed>>> terms;
  Tensor direction;                  // Constraint output (reused across rows).
  std::vector<int> held;             // Task indices of the rows held, in stack order.
  std::vector<int> pos;              // Per survivor: its sample index in the traces.
  std::vector<LayerSeed> rows;       // One term's seed per trace row.
  Prediction prediction;             // Per model, current sample.
};

// One Run's rows: what a row carries between steps, and the queue of rows no
// drainer holds. Pooled across Runs so the per-task inputs keep their
// storage.
struct Executor::RowState {
  struct Row {
    int iteration = 0;  // Gradient steps taken; 0 = the seed's first step is next.
    int consensus = 0;  // Seed-time consensus class (classification).
    int target = 0;     // j: the model pushed away from the consensus.
  };

  void Reset(int n) {
    rows.assign(static_cast<size_t>(n), Row{});
    if (inputs.size() < static_cast<size_t>(n)) {
      inputs.resize(static_cast<size_t>(n));
    }
    queue.resize(static_cast<size_t>(n));
    for (int t = 0; t < n; ++t) {
      queue[static_cast<size_t>(t)] = t;
    }
    head = 0;
    queued = n;
    live = n;
    running = 0;
    aborted = false;
  }
  // FIFO over the ring `queue`; it never holds more than the Run's tasks.
  void Push(int t) {
    queue[(head + static_cast<size_t>(queued++)) % queue.size()] = t;
  }
  int Pop() {
    const int t = queue[head];
    head = (head + 1) % queue.size();
    --queued;
    return t;
  }

  std::vector<Row> rows;       // Per task.
  std::vector<Tensor> inputs;  // Per task: current input of the ascent.
  // Guarded by `mu`: the queue, and the counts drainers size their share by.
  std::mutex mu;
  std::vector<int> queue;
  size_t head = 0;
  int queued = 0;
  int live = 0;     // Rows not finished: queued or held by a drainer.
  int running = 0;  // Drainers that have started and not exited.
  bool aborted = false;
};

struct Executor::Drain {
  const std::vector<SeedTask>& tasks;
  const Objective& objective;
  int width;
  RowState& row_state;
  std::vector<std::optional<GeneratedTest>>& results;
  const Timer& timer;  // Started with the Run: GeneratedTest::seconds.
};

Executor::Executor(std::vector<Model*> models, const Constraint* constraint,
                   bool regression, const EngineConfig* engine)
    : models_(std::move(models)),
      constraint_(constraint),
      regression_(regression),
      engine_(engine) {
  if (models_.empty() || constraint_ == nullptr || engine_ == nullptr) {
    throw std::invalid_argument("Executor: models/constraint/engine must be set");
  }
}

Executor::~Executor() = default;

std::unique_ptr<Executor::ChunkState> Executor::AcquireState(int width) const {
  std::unique_ptr<ChunkState> state;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (!state_pool_.empty()) {
      state = std::move(state_pool_.back());
      state_pool_.pop_back();
    }
  }
  if (state == nullptr) {
    state = std::make_unique<ChunkState>();
  }
  if (state->capacity < width) {
    // First step this wide for this state: (re)compile the plans and size
    // every buffer. This is the warm-up allocation site; the pool stabilizes
    // once every concurrent drainer has seen its maximum width.
    state->plans.clear();
    state->plans.reserve(models_.size());
    for (const Model* m : models_) {
      state->plans.push_back(m->Compile(width));
    }
    const Shape& in_shape = models_[0]->input_shape();
    state->stacked = Tensor(BatchedShape(width, in_shape));
    state->grads.assign(static_cast<size_t>(width), Tensor(in_shape));
    state->terms.resize(static_cast<size_t>(width));
    for (std::vector<std::vector<LayerSeed>>& terms : state->terms) {
      terms.resize(models_.size());
    }
    state->direction = Tensor(in_shape);
    state->held.reserve(static_cast<size_t>(width));
    state->pos.resize(static_cast<size_t>(width));
    state->rows.reserve(static_cast<size_t>(width));
    if (regression_) {
      state->prediction.outputs.resize(models_.size());
    } else {
      state->prediction.labels.resize(models_.size());
    }
    state->capacity = width;
  }
  return state;
}

void Executor::ReleaseState(std::unique_ptr<ChunkState> state) const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  state_pool_.push_back(std::move(state));
}

ExecutorProfile Executor::profile() const {
  std::lock_guard<std::mutex> lock(profile_mu_);
  return profile_;
}

std::vector<std::optional<GeneratedTest>> Executor::Run(
    const std::vector<SeedTask>& tasks, const Objective& objective) const {
  return Run(tasks, objective, std::max(1, static_cast<int>(tasks.size())), 1, nullptr);
}

std::vector<std::optional<GeneratedTest>> Executor::Run(const std::vector<SeedTask>& tasks,
                                                        const Objective& objective, int width,
                                                        int drainers, ThreadPool* pool) const {
  const int n = static_cast<int>(tasks.size());
  std::vector<std::optional<GeneratedTest>> results(static_cast<size_t>(n));
  if (n == 0) {
    return results;
  }
  if (width < 1) {
    throw std::invalid_argument("Executor::Run: width must be >= 1");
  }
  const Shape& in_shape = models_[0]->input_shape();
  for (const SeedTask& task : tasks) {
    if (task.seed->shape() != in_shape) {
      throw std::invalid_argument("Executor::Run: seed shape mismatch");
    }
  }
  const Timer timer;

  std::unique_ptr<RowState> rows;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (!row_pool_.empty()) {
      rows = std::move(row_pool_.back());
      row_pool_.pop_back();
    }
  }
  if (rows == nullptr) {
    rows = std::make_unique<RowState>();
  }
  // Back to the pool even when a row throws.
  struct RowsReturner {
    const Executor* executor;
    std::unique_ptr<RowState>* rows;
    ~RowsReturner() {
      std::lock_guard<std::mutex> lock(executor->pool_mu_);
      executor->row_pool_.push_back(std::move(*rows));
    }
  } rows_returner{this, &rows};
  rows->Reset(n);

  width = std::min(width, n);
  Drain drain{tasks, objective, width, *rows, results, timer};
  drainers = std::clamp(drainers, 1, (n + width - 1) / width);
  if (drainers > 1 && pool != nullptr) {
    pool->ParallelFor(drainers, [&](int64_t) { DrainRows(drain); });
  } else {
    DrainRows(drain);
  }
  return results;
}

void Executor::DrainRows(Drain& drain) const {
  RowState& rs = drain.row_state;
  std::unique_ptr<ChunkState> holder = AcquireState(drain.width);
  // Scope guard: the warm state (compiled plans, slabs, arenas) goes back to
  // the pool even when a row throws mid-step — destroying it would force a
  // full recompile/warm-up on every subsequent Run.
  struct StateReturner {
    const Executor* executor;
    std::unique_ptr<ChunkState>* holder;
    ~StateReturner() { executor->ReleaseState(std::move(*holder)); }
  } state_returner{this, &holder};
  ChunkState& cs = *holder;
  // Plans are pooled across runs; (re)arm their backward timers to this
  // run's profiling mode and drain any counter a previous run left behind.
  for (ExecutionPlan& plan : cs.plans) {
    plan.set_profiling(profiling_);
    plan.ConsumeBackwardSeconds();
  }
  cs.held.clear();
  ExecutorProfile prof;
  {
    std::lock_guard<std::mutex> lock(rs.mu);
    ++rs.running;
  }
  int finished = 0;
  try {
    for (;;) {
      {
        // Keep at most a fair share of the live rows, hand the excess to
        // the queue and top up from it. Never wait: rows other drainers
        // hold come back through the queue only when they have too many.
        std::lock_guard<std::mutex> lock(rs.mu);
        rs.live -= finished;
        if (rs.aborted) {
          break;
        }
        const int share = std::min(drain.width, (rs.live + rs.running - 1) / rs.running);
        while (static_cast<int>(cs.held.size()) > share) {
          rs.Push(cs.held.back());
          cs.held.pop_back();
        }
        while (static_cast<int>(cs.held.size()) < share && rs.queued > 0) {
          cs.held.push_back(rs.Pop());
        }
        if (cs.held.empty()) {
          --rs.running;
          break;
        }
      }
      finished = StepRows(drain, cs, prof);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(rs.mu);
    rs.aborted = true;  // The other drainers stop at their next step.
    throw;
  }
  if (profiling_) {
    std::lock_guard<std::mutex> lock(profile_mu_);
    profile_ += prof;
  }
}

int Executor::StepRows(Drain& drain, ChunkState& cs, ExecutorProfile& prof) const {
  const std::vector<SeedTask>& tasks = drain.tasks;
  RowState& rs = drain.row_state;
  const int num_k = num_models();
  const bool profiling = profiling_;
  const int width = static_cast<int>(cs.held.size());
  const int64_t in_stride = NumElements(models_[0]->input_shape());
  Timer phase;

  // 1. Stack the rows' current inputs (a row's seed on its first step) and
  //    run the step's one batched forward per model through the persistent
  //    plans. The per-model forwards are independent (each writes only its
  //    own plan's slabs), so when cores are idle — a lone drainer outside
  //    any parallel region — they fan out over the global pool. A drainer
  //    running inside a ParallelFor region keeps them serial instead of
  //    oversubscribing; either way each model's forward is the same
  //    operation sequence, so results don't depend on the choice. Layer
  //    kernels apply the same gate one level down (GEMM row blocks, conv
  //    batch samples) via the re-entrancy-safe ParallelFor.
  if (profiling) phase.Reset();
  cs.stacked.SetBatchDim(width);
  float* dst = cs.stacked.data();
  for (int i = 0; i < width; ++i) {
    const int t = cs.held[static_cast<size_t>(i)];
    const Tensor& x = rs.rows[static_cast<size_t>(t)].iteration == 0
                          ? *tasks[static_cast<size_t>(t)].seed
                          : rs.inputs[static_cast<size_t>(t)];
    std::copy(x.data(), x.data() + in_stride, dst + static_cast<int64_t>(i) * in_stride);
  }
  if (profiling) prof.stack_seconds += phase.ElapsedSeconds();
  if (profiling) phase.Reset();
  if (num_k > 1 && IntraOpParallelismAvailable()) {
    ParallelFor(num_k, [&](int64_t k) {
      cs.plans[static_cast<size_t>(k)].ForwardBatch(cs.stacked, width);
    });
  } else {
    for (ExecutionPlan& plan : cs.plans) {
      plan.ForwardBatch(cs.stacked, width);
    }
  }
  if (profiling) prof.forward_seconds += phase.ElapsedSeconds();
  ++prof.iterations;
  prof.rows += width;

  // 2. The checks, read in place from the final rows of the traces. A row
  //    that found a test also reuses them for its labels and coverage
  //    update (Algorithm 1 line 18). Survivors move to the front of `held`.
  if (profiling) phase.Reset();
  int survivors = 0;
  for (int i = 0; i < width; ++i) {
    const int t = cs.held[static_cast<size_t>(i)];
    const SeedTask& task = tasks[static_cast<size_t>(t)];
    RowState::Row& row = rs.rows[static_cast<size_t>(t)];
    for (int k = 0; k < num_k; ++k) {
      const BatchTrace& trace = cs.plans[static_cast<size_t>(k)].trace();
      if (regression_) {
        cs.prediction.outputs[static_cast<size_t>(k)] = trace.SampleScalar(i);
      } else {
        cs.prediction.labels[static_cast<size_t>(k)] = trace.SampleLabel(i);
      }
    }
    const bool disagree = ModelsDisagree(cs.prediction, engine_->steering_eps);
    if (row.iteration == 0) {
      // The seed must not already be a difference (Algorithm 1 line 4): all
      // models agree on its class, or their outputs lie within steering_eps.
      if (disagree) {
        continue;  // results[t] stays nullopt.
      }
      if (!regression_) {
        row.consensus = cs.prediction.labels[0];
      }
      rs.inputs[static_cast<size_t>(t)] = *task.seed;  // Reuses the slot's storage.
      row.target = engine_->forced_target_model >= 0
                       ? engine_->forced_target_model
                       : static_cast<int>(task.rng->UniformInt(0, num_k - 1));
    } else if (disagree) {
      GeneratedTest test;
      test.deviating_model = DeviatingModel(cs.prediction);
      test.labels = cs.prediction.labels;
      test.outputs = cs.prediction.outputs;
      test.input = rs.inputs[static_cast<size_t>(t)];
      test.seed_index = task.seed_index;
      test.task_ordinal = task.ordinal;
      test.iterations = row.iteration;
      test.seconds = drain.timer.ElapsedSeconds();
      // The metric reads the row's sample through the plan's reused width-1
      // sample trace (the other samples of the step are not its own).
      for (int k = 0; k < num_k; ++k) {
        (*task.metrics)[static_cast<size_t>(k)]->UpdateBatch(
            *models_[static_cast<size_t>(k)], cs.plans[static_cast<size_t>(k)].SampleTrace(i));
      }
      drain.results[static_cast<size_t>(t)] = std::move(test);
      continue;
    }
    if (row.iteration >= engine_->max_iterations_per_seed) {
      continue;  // Budget exhausted: results[t] stays nullopt.
    }
    cs.held[static_cast<size_t>(survivors)] = t;
    cs.pos[static_cast<size_t>(survivors)] = i;
    ++survivors;
  }
  cs.held.resize(static_cast<size_t>(survivors));
  if (profiling) prof.coverage_seconds += phase.ElapsedSeconds();
  if (survivors == 0) {
    return width;
  }

  // 3. The survivors' objective gradients against the same traces, then the
  //    constrained ascent step (Algorithm 1 l. 8-16). Everything writes
  //    into reused buffers.
  //
  //    a. Every row plans its terms (and draws its picks) model by model.
  if (profiling) phase.Reset();
  for (int s = 0; s < survivors; ++s) {
    const int t = cs.held[static_cast<size_t>(s)];
    const SeedTask& task = tasks[static_cast<size_t>(t)];
    const RowState::Row& row = rs.rows[static_cast<size_t>(t)];
    Tensor& grad = cs.grads[static_cast<size_t>(s)];
    grad.Fill(0.0f);
    ObjectiveContext ctx;
    ctx.metrics = task.metrics;
    ctx.target_model = row.target;
    ctx.consensus = row.consensus;
    ctx.regression = regression_;
    ctx.lambda1 = engine_->lambda1;
    ctx.lambda2 = engine_->lambda2;
    ctx.rng = task.rng;
    for (int k = 0; k < num_k; ++k) {
      std::vector<LayerSeed>& terms = cs.terms[static_cast<size_t>(s)][static_cast<size_t>(k)];
      terms.clear();
      drain.objective.Plan(ctx, k, *models_[static_cast<size_t>(k)], &terms, &grad);
    }
  }
  //    b. One batched backward per (model, term slot) over every row; each
  //       row adds its own gradient row in (model, term) order.
  for (int k = 0; k < num_k; ++k) {
    ExecutionPlan& plan = cs.plans[static_cast<size_t>(k)];
    size_t slots = 0;
    for (int s = 0; s < survivors; ++s) {
      slots = std::max(slots, cs.terms[static_cast<size_t>(s)][static_cast<size_t>(k)].size());
    }
    for (size_t j = 0; j < slots; ++j) {
      cs.rows.assign(static_cast<size_t>(plan.width()), LayerSeed{});
      for (int s = 0; s < survivors; ++s) {
        const std::vector<LayerSeed>& terms =
            cs.terms[static_cast<size_t>(s)][static_cast<size_t>(k)];
        if (j < terms.size()) {
          cs.rows[static_cast<size_t>(cs.pos[static_cast<size_t>(s)])] = terms[j];
        }
      }
      const Tensor& rows_grad = plan.BackwardRows(cs.rows);
      for (int s = 0; s < survivors; ++s) {
        const int pos = cs.pos[static_cast<size_t>(s)];
        if (cs.rows[static_cast<size_t>(pos)].layer == LayerSeed::kNone) {
          continue;  // No term in this slot.
        }
        const float* src = rows_grad.data() + static_cast<int64_t>(pos) * in_stride;
        float* grad = cs.grads[static_cast<size_t>(s)].data();
        for (int64_t e = 0; e < in_stride; ++e) {
          grad[e] += src[e];
        }
      }
    }
  }
  if (engine_->normalize_gradient) {
    // RMS-normalize (as in the reference implementation) so the step size
    // s is meaningful regardless of softmax saturation.
    for (int s = 0; s < survivors; ++s) {
      Tensor& grad = cs.grads[static_cast<size_t>(s)];
      const float rms = grad.L2Norm() /
                        std::sqrt(static_cast<float>(std::max<int64_t>(1, grad.numel())));
      grad.Scale(1.0f / (rms + 1e-5f));
    }
  }
  if (profiling) {
    // The plans timed their backward calls from the inside; what remains
    // of the phase is the objective's own work (planning, neuron picks,
    // gradient accumulation, RMS normalization).
    const double elapsed = phase.ElapsedSeconds();
    double backward = 0.0;
    for (ExecutionPlan& plan : cs.plans) {
      backward += plan.ConsumeBackwardSeconds();
    }
    prof.backward_layers_seconds += backward;
    prof.objective_accumulate_seconds += std::max(0.0, elapsed - backward);
  }
  //    c. The constrained step per row.
  if (profiling) phase.Reset();
  for (int s = 0; s < survivors; ++s) {
    const int t = cs.held[static_cast<size_t>(s)];
    Tensor& x = rs.inputs[static_cast<size_t>(t)];
    constraint_->ApplyInto(cs.grads[static_cast<size_t>(s)], x,
                           *tasks[static_cast<size_t>(t)].rng, &cs.direction);
    x.Axpy(engine_->step, cs.direction);
    constraint_->ProjectInput(&x);
    ++rs.rows[static_cast<size_t>(t)].iteration;
  }
  if (profiling) prof.constraint_seconds += phase.ElapsedSeconds();
  return width - survivors;
}

}  // namespace dx
