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
  return *this;
}

namespace {

bool ScalarsDiffer(const std::vector<float>& outs, float eps) {
  const auto [lo, hi] = std::minmax_element(outs.begin(), outs.end());
  return *hi - *lo > eps;
}

bool LabelsDiffer(const std::vector<int>& labels) {
  return std::any_of(labels.begin(), labels.end(),
                     [&](int l) { return l != labels[0]; });
}

// The model farthest from the ensemble mean is the deviator (regression).
int DeviatorFromScalars(const std::vector<float>& outs) {
  double mean = 0.0;
  for (const float v : outs) {
    mean += v;
  }
  mean /= static_cast<double>(outs.size());
  int deviator = 0;
  float worst = -1.0f;
  for (size_t k = 0; k < outs.size(); ++k) {
    const float dev = std::abs(outs[k] - static_cast<float>(mean));
    if (dev > worst) {
      worst = dev;
      deviator = static_cast<int>(k);
    }
  }
  return deviator;
}

// The minority label's model is the deviator (classification).
int DeviatorFromLabels(const std::vector<int>& labels) {
  for (size_t k = 0; k < labels.size(); ++k) {
    int agreement = 0;
    for (size_t other = 0; other < labels.size(); ++other) {
      if (labels[other] == labels[k]) {
        ++agreement;
      }
    }
    if (agreement == 1) {
      return static_cast<int>(k);
    }
  }
  return 0;
}

}  // namespace

// Pooled per-chunk execution buffers: one compiled plan per model plus every
// tensor the lockstep loop writes. A state is borrowed by exactly one Run at
// a time; after the first Run at a given width all of this storage is warm
// and iterations allocate nothing.
struct Executor::ChunkState {
  struct TaskState {
    Tensor x;           // Current input of the ascent (storage reused).
    int consensus = 0;  // Seed-time consensus class (classification).
    int target = 0;     // j: the model pushed away from the consensus.
    int pos = 0;        // This task's sample index within the plan traces.
  };

  int capacity = 0;
  std::vector<ExecutionPlan> plans;  // One per model.
  Tensor stacked;                    // [width, ...input_shape] batch buffer.
  std::vector<Tensor> grads;         // Per task: objective gradient.
  Tensor direction;                  // Constraint output (reused across tasks).
  std::vector<TaskState> states;
  std::vector<int> active;
  std::vector<int> still_active;
  std::vector<int> labels;           // Per model, current sample.
  std::vector<float> scalars;        // Per model, current sample.
  std::vector<Shape> out_shapes;     // Per model output sample shape (for views).
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
    // First chunk this wide for this state: (re)compile the plans and size
    // every buffer. This is the warm-up allocation site; the pool stabilizes
    // once every concurrent caller has seen its maximum chunk width.
    state->plans.clear();
    state->plans.reserve(models_.size());
    state->out_shapes.clear();
    state->out_shapes.reserve(models_.size());
    for (const Model* m : models_) {
      state->plans.push_back(m->Compile(width));
      state->out_shapes.push_back(m->output_shape());
    }
    const Shape& in_shape = models_[0]->input_shape();
    state->stacked = Tensor(BatchedShape(width, in_shape));
    state->grads.assign(static_cast<size_t>(width), Tensor(in_shape));
    state->direction = Tensor(in_shape);
    state->states.resize(static_cast<size_t>(width));
    state->labels.resize(models_.size());
    state->scalars.resize(models_.size());
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

void Executor::ResetProfile() {
  std::lock_guard<std::mutex> lock(profile_mu_);
  profile_ = ExecutorProfile{};
}

std::vector<std::optional<GeneratedTest>> Executor::Run(
    const std::vector<SeedTask>& tasks, const Objective& objective) const {
  const int n = static_cast<int>(tasks.size());
  std::vector<std::optional<GeneratedTest>> results(static_cast<size_t>(n));
  if (n == 0) {
    return results;
  }
  Timer timer;
  const int num_k = num_models();
  const bool profiling = profiling_;
  ExecutorProfile prof;
  Timer phase;

  std::unique_ptr<ChunkState> holder = AcquireState(n);
  // Scope guard: the warm state (compiled plans, slabs, arenas) goes back to
  // the pool even when a task throws mid-run — destroying it would force a
  // full recompile/warm-up on every subsequent chunk.
  struct StateReturner {
    const Executor* executor;
    std::unique_ptr<ChunkState>* holder;
    ~StateReturner() {
      if (*holder != nullptr) {
        executor->ReleaseState(std::move(*holder));
      }
    }
  } state_returner{this, &holder};
  ChunkState& cs = *holder;
  // Plans are pooled across runs; (re)arm their backward timers to this
  // run's profiling mode and drain any counter a previous run left behind.
  for (ExecutionPlan& plan : cs.plans) {
    plan.set_profiling(profiling);
    plan.ConsumeBackwardSeconds();
  }
  const Shape& in_shape = models_[0]->input_shape();
  const int64_t in_stride = NumElements(in_shape);

  // Stacks the current inputs of `width` tasks into the reused batch buffer.
  const auto stack_into = [&](int width, const auto& input_of) {
    cs.stacked.SetBatchDim(width);
    float* dst = cs.stacked.data();
    for (int i = 0; i < width; ++i) {
      const Tensor& x = input_of(i);
      std::copy(x.data(), x.data() + in_stride, dst + static_cast<int64_t>(i) * in_stride);
    }
  };
  // One batched forward per model through the persistent plans. The per-model
  // forwards are independent (each writes only its own plan's slabs), so when
  // cores are idle — a single-worker Session on a multicore host — they fan
  // out over the global pool. Inside a multi-worker Session the chunk already
  // runs on a pool thread, so IntraOpParallelismAvailable() is false and the
  // loop stays serial instead of oversubscribing; either way each model's
  // forward is the same operation sequence, so results don't depend on the
  // choice. Layer kernels apply the same gate one level down (GEMM row
  // blocks, conv batch samples) via the re-entrancy-safe ParallelFor.
  const auto forward_all = [&](int width) {
    if (num_k > 1 && IntraOpParallelismAvailable()) {
      ParallelFor(num_k, [&](int64_t k) { cs.plans[k].ForwardBatch(cs.stacked, width); });
    } else {
      for (int k = 0; k < num_k; ++k) {
        cs.plans[k].ForwardBatch(cs.stacked, width);
      }
    }
  };
  // Final-layer outputs of sample `pos`, read through non-owning views of
  // the plan traces (no per-sample tensor copies).
  const auto read_labels = [&](int pos) {
    for (int k = 0; k < num_k; ++k) {
      const BatchTrace& trace = cs.plans[k].trace();
      const Tensor& out = trace.outputs.back();
      const int64_t cols = out.numel() / trace.batch;
      const ConstTensorView row(out.data() + static_cast<int64_t>(pos) * cols,
                                &cs.out_shapes[static_cast<size_t>(k)], cols);
      cs.labels[static_cast<size_t>(k)] = static_cast<int>(row.Argmax());
    }
  };
  const auto read_scalars = [&](int pos) {
    for (int k = 0; k < num_k; ++k) {
      const BatchTrace& trace = cs.plans[k].trace();
      const Tensor& out = trace.outputs.back();
      const int64_t cols = out.numel() / trace.batch;
      cs.scalars[static_cast<size_t>(k)] = out.data()[static_cast<int64_t>(pos) * cols];
    }
  };

  // Forward pass #0 over the stacked seeds: consensus check now, iteration
  // 1's objective gradient next — one pass, two consumers.
  if (profiling) phase.Reset();
  for (int t = 0; t < n; ++t) {
    if (tasks[static_cast<size_t>(t)].seed->shape() != in_shape) {
      throw std::invalid_argument("Executor::Run: seed shape mismatch");
    }
  }
  stack_into(n, [&](int i) -> const Tensor& { return *tasks[static_cast<size_t>(i)].seed; });
  if (profiling) prof.stack_seconds += phase.ElapsedSeconds();
  if (profiling) phase.Reset();
  forward_all(n);
  if (profiling) prof.forward_seconds += phase.ElapsedSeconds();

  cs.active.clear();
  for (int t = 0; t < n; ++t) {
    ChunkState::TaskState& state = cs.states[static_cast<size_t>(t)];
    if (regression_) {
      // Seed must not already be a difference (Algorithm 1 line 4).
      read_scalars(t);
      if (ScalarsDiffer(cs.scalars, engine_->steering_eps)) {
        continue;  // results[t] stays nullopt.
      }
    } else {
      // All models must agree on the seed's class.
      read_labels(t);
      if (LabelsDiffer(cs.labels)) {
        continue;
      }
      state.consensus = cs.labels[0];
    }
    state.x = *tasks[static_cast<size_t>(t)].seed;  // Reuses the slot's storage.
    state.target = engine_->forced_target_model >= 0 &&
                           engine_->forced_target_model < num_k
                       ? engine_->forced_target_model
                       : static_cast<int>(
                             tasks[static_cast<size_t>(t)].rng->UniformInt(0, num_k - 1));
    state.pos = t;
    cs.active.push_back(t);
  }

  for (int iter = 1; iter <= engine_->max_iterations_per_seed && !cs.active.empty();
       ++iter) {
    // 1. Objective gradients against the shared plan traces — backward only,
    //    no re-forward — then the constrained ascent step (Algorithm 1
    //    l. 8-16). Everything writes into reused buffers.
    for (const int t : cs.active) {
      const SeedTask& task = tasks[static_cast<size_t>(t)];
      ChunkState::TaskState& state = cs.states[static_cast<size_t>(t)];
      if (profiling) phase.Reset();
      Tensor& grad = cs.grads[static_cast<size_t>(t)];
      grad.Fill(0.0f);
      ObjectiveContext ctx;
      ctx.metrics = task.metrics;
      ctx.target_model = state.target;
      ctx.consensus = state.consensus;
      ctx.regression = regression_;
      ctx.lambda1 = engine_->lambda1;
      ctx.lambda2 = engine_->lambda2;
      ctx.rng = task.rng;
      for (int k = 0; k < num_k; ++k) {
        objective.Accumulate(ctx, k, cs.plans[static_cast<size_t>(k)], state.pos, &grad);
      }
      if (engine_->normalize_gradient) {
        // RMS-normalize (as in the reference implementation) so the step
        // size s is meaningful regardless of softmax saturation.
        const float rms = grad.L2Norm() /
                          std::sqrt(static_cast<float>(std::max<int64_t>(1, grad.numel())));
        grad.Scale(1.0f / (rms + 1e-5f));
      }
      if (profiling) {
        // The plans timed their backward layer chains from the inside; what
        // remains of the phase is the objective's own work (seed setup,
        // gradient accumulation, RMS normalization).
        const double elapsed = phase.ElapsedSeconds();
        double backward = 0.0;
        for (int k = 0; k < num_k; ++k) {
          backward += cs.plans[static_cast<size_t>(k)].ConsumeBackwardSeconds();
        }
        prof.backward_layers_seconds += backward;
        prof.objective_accumulate_seconds += std::max(0.0, elapsed - backward);
      }
      if (profiling) phase.Reset();
      constraint_->ApplyInto(grad, state.x, *task.rng, &cs.direction);
      state.x.Axpy(engine_->step, cs.direction);
      constraint_->ProjectInput(&state.x);
      if (profiling) prof.constraint_seconds += phase.ElapsedSeconds();
    }

    // 2. The iteration's single shared forward pass at the stepped inputs.
    const int width = static_cast<int>(cs.active.size());
    if (profiling) phase.Reset();
    stack_into(width, [&](int i) -> const Tensor& {
      return cs.states[static_cast<size_t>(cs.active[static_cast<size_t>(i)])].x;
    });
    if (profiling) prof.stack_seconds += phase.ElapsedSeconds();
    if (profiling) phase.Reset();
    forward_all(width);
    if (profiling) prof.forward_seconds += phase.ElapsedSeconds();
    for (int i = 0; i < width; ++i) {
      cs.states[static_cast<size_t>(cs.active[static_cast<size_t>(i)])].pos = i;
    }

    // 3. Difference check from the same traces; finishers also reuse them
    //    for their labels and coverage update (Algorithm 1 line 18).
    if (profiling) phase.Reset();
    cs.still_active.clear();
    for (const int t : cs.active) {
      const SeedTask& task = tasks[static_cast<size_t>(t)];
      ChunkState::TaskState& state = cs.states[static_cast<size_t>(t)];
      GeneratedTest test;
      bool found = false;
      if (regression_) {
        read_scalars(state.pos);
        if (ScalarsDiffer(cs.scalars, engine_->steering_eps)) {
          found = true;
          test.deviating_model = DeviatorFromScalars(cs.scalars);
          test.outputs = cs.scalars;
        }
      } else {
        read_labels(state.pos);
        if (LabelsDiffer(cs.labels)) {
          found = true;
          test.deviating_model = DeviatorFromLabels(cs.labels);
          test.labels = cs.labels;
        }
      }
      if (!found) {
        cs.still_active.push_back(t);  // Budget exhaustion leaves nullopt.
        continue;
      }
      test.input = state.x;
      test.seed_index = task.seed_index;
      test.task_ordinal = task.ordinal;
      test.iterations = iter;
      test.seconds = timer.ElapsedSeconds();
      // The metric reads the finisher's sample through the plan's reused
      // width-1 sample trace (the other chunk samples are not its own).
      for (int k = 0; k < num_k; ++k) {
        (*task.metrics)[static_cast<size_t>(k)]->UpdateBatch(
            *models_[static_cast<size_t>(k)],
            cs.plans[static_cast<size_t>(k)].SampleTrace(state.pos));
      }
      results[static_cast<size_t>(t)] = std::move(test);
    }
    std::swap(cs.active, cs.still_active);
    if (profiling) prof.coverage_seconds += phase.ElapsedSeconds();
    ++prof.iterations;
  }

  if (profiling) {
    std::lock_guard<std::mutex> lock(profile_mu_);
    profile_ += prof;
  }
  return results;
}

}  // namespace dx
