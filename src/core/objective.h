// Objective: the pluggable per-iteration gradient contribution of the engine.
//
// Each gradient-ascent step the session forwards the current input through
// every model and asks the objective to accumulate d(objective)/d(input) into
// the joint gradient, one model at a time. The paper's joint objective
// (Equation 4) is the composition of two plug-ins:
//
//   DifferentialObjective   Σ_{k≠j} F_k(x)[c] − λ1 · F_j(x)[c]   (Equation 2)
//   CoverageObjective       λ2 · f_n(x), one uncovered neuron     (Equation 3)
//
// Baseline strategies (FGSM adversarial search, random perturbation search)
// implement the same interface — see src/baselines/ — so every strategy runs
// through the one Session loop instead of forked code paths. Objectives are
// selected by name through MakeObjective ("joint", "differential", "fgsm",
// "random") or injected directly via Session::SetObjective.
//
// Objectives must be stateless across calls (all mutable inputs arrive via
// ObjectiveContext): one instance is shared by all parallel workers.
#ifndef DX_SRC_CORE_OBJECTIVE_H_
#define DX_SRC_CORE_OBJECTIVE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/coverage/coverage_metric.h"

namespace dx {

class ExecutionPlan;
class Rng;

// Everything an objective may read for one gradient evaluation. Pointers are
// non-owning and valid only for the duration of the Accumulate call.
struct ObjectiveContext {
  // Per-model coverage trackers, indexed like the session's models (the
  // task-local clones under a parallel run).
  const std::vector<std::unique_ptr<CoverageMetric>>* metrics = nullptr;
  int target_model = 0;  // j: the model pushed away from the consensus.
  int consensus = 0;     // c: the seed-time consensus class (classification).
  bool regression = false;
  float lambda1 = 1.0f;
  float lambda2 = 0.1f;
  Rng* rng = nullptr;
};

class Objective {
 public:
  virtual ~Objective() = default;

  virtual std::string name() const = 0;

  // Adds this objective's gradient contribution for model `k` into `grad`
  // (per-sample, shaped like the model input), evaluated at sample `pos` of
  // `plan`'s current trace — model k's forward pass of the current input.
  // The executor calls it for every model on every iteration. Backprop runs
  // through the plan's reused buffers (ExecutionPlan::AcquireSeed /
  // BackwardSample), so the built-in objectives allocate nothing.
  virtual void Accumulate(const ObjectiveContext& ctx, int k, ExecutionPlan& plan, int pos,
                          Tensor* grad) const = 0;
};

// Equation 2: push every model's consensus confidence up except model j's,
// which is pushed down with weight λ1. For regression models the raw output
// takes the place of the consensus-class confidence.
class DifferentialObjective : public Objective {
 public:
  std::string name() const override { return "differential"; }
  void Accumulate(const ObjectiveContext& ctx, int k, ExecutionPlan& plan, int pos,
                  Tensor* grad) const override;
};

// Equation 3: λ2 · d(neuron)/d(input) for one currently-uncovered neuron of
// model k, nominated by the model's coverage metric. No-op when λ2 = 0 or
// the metric is saturated.
class CoverageObjective : public Objective {
 public:
  std::string name() const override { return "coverage"; }
  void Accumulate(const ObjectiveContext& ctx, int k, ExecutionPlan& plan, int pos,
                  Tensor* grad) const override;
};

// Sum of sub-objectives (the λ weights live inside the parts, via ctx).
class CompositeObjective : public Objective {
 public:
  CompositeObjective(std::string name, std::vector<std::unique_ptr<Objective>> parts);

  std::string name() const override { return name_; }
  void Accumulate(const ObjectiveContext& ctx, int k, ExecutionPlan& plan, int pos,
                  Tensor* grad) const override;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Objective>> parts_;
};

// The paper's joint objective: DifferentialObjective + CoverageObjective.
std::unique_ptr<Objective> MakeJointObjective();

// ---- Factory -----------------------------------------------------------------------------

using ObjectiveFactory = std::function<std::unique_ptr<Objective>()>;

// Registers (or replaces) an objective under `name` for MakeObjective, so
// plug-ins are selectable by string key from the CLI and SessionConfig.
void RegisterObjective(const std::string& name, ObjectiveFactory factory);

// Builds the objective registered under `name`. Built-ins: "joint",
// "differential", "fgsm" (adversarial baseline), "random"
// (random-perturbation baseline). Throws std::invalid_argument for unknown
// names.
std::unique_ptr<Objective> MakeObjective(const std::string& name);

// Registered objective names, sorted (for --list-objectives and validation).
std::vector<std::string> ObjectiveNames();

}  // namespace dx

#endif  // DX_SRC_CORE_OBJECTIVE_H_
