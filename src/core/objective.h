// Objective: the pluggable per-iteration gradient contribution of the engine.
//
// Each gradient-ascent step the executor needs d(objective)/d(input) of every
// active seed. An objective does not backpropagate itself: it *plans* terms.
// A term is a LayerSeed (src/nn/execution_plan.h) — a seed on one layer's
// output of one model — and the executor runs one batched
// ExecutionPlan::BackwardRows per (model, term) over every seed of the step,
// then adds each seed's row into that seed's gradient. The paper's joint
// objective (Equation 4) is the composition of two plug-ins:
//
//   DifferentialObjective   Σ_{k≠j} F_k(x)[c] − λ1 · F_j(x)[c]   (Equation 2)
//   CoverageObjective       λ2 · f_n(x), one uncovered neuron     (Equation 3)
//
// Baseline strategies (FGSM adversarial search, random perturbation search)
// implement the same interface — see src/baselines/ — so every strategy runs
// through the one Session loop instead of forked code paths. Objectives are
// selected by name through MakeObjective ("joint", "differential", "fgsm",
// "random"); a new one is added with RegisterObjective, so the key a corpus
// manifest records always names the objective that ran.
//
// Order contract (what keeps results bit-identical to per-seed evaluation):
//   * Plan is called once per (active seed, model), models in ascending k,
//     after the seed's gradient was zeroed. Draws from ctx.rng happen here,
//     in that order, before the constraint's draws for the same step.
//   * A seed's terms are added into its gradient in (model, term) order:
//     model 0's terms in the order Plan recorded them, then model 1's, ...
//   * A direct input-space term (a gradient-free objective's direction) is
//     added into `grad` by Plan itself, so it precedes every backward term
//     of the seed.
//
// Objectives must be stateless across calls (all mutable inputs arrive via
// ObjectiveContext and the Plan arguments): one instance is shared by all
// parallel workers.
#ifndef DX_SRC_CORE_OBJECTIVE_H_
#define DX_SRC_CORE_OBJECTIVE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/coverage/coverage_metric.h"
#include "src/nn/execution_plan.h"

namespace dx {

class Rng;

// Everything an objective may read for one gradient evaluation. Pointers are
// non-owning and valid only for the duration of the Plan call.
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

  // Plans this objective's contribution for model `k` of one seed: appends
  // its terms — seeds on `model`'s layer outputs, evaluated later at the
  // seed's current input — to `terms`, and adds any direct input-space term
  // into `grad` (the seed's gradient, shaped like the model input). See the
  // order contract above. The built-in objectives allocate nothing once
  // `terms` has its capacity.
  virtual void Plan(const ObjectiveContext& ctx, int k, const Model& model,
                    std::vector<LayerSeed>* terms, Tensor* grad) const = 0;
};

// Equation 2: push every model's consensus confidence up except model j's,
// which is pushed down with weight λ1. One term per model, on the last
// layer's consensus element; for regression models the raw output (element
// 0) takes the place of the consensus-class confidence.
class DifferentialObjective : public Objective {
 public:
  std::string name() const override { return "differential"; }
  void Plan(const ObjectiveContext& ctx, int k, const Model& model,
            std::vector<LayerSeed>* terms, Tensor* grad) const override;
};

// Equation 3: λ2 · d(neuron)/d(input) for one currently-uncovered neuron of
// model k, nominated by the model's coverage metric: one neuron term through
// Layer::AddNeuronSeed. No term when the metric is saturated; with λ2 = 0 no
// term and no pick, so no draw.
class CoverageObjective : public Objective {
 public:
  std::string name() const override { return "coverage"; }
  void Plan(const ObjectiveContext& ctx, int k, const Model& model,
            std::vector<LayerSeed>* terms, Tensor* grad) const override;
};

// Sum of sub-objectives (the λ weights live inside the parts, via ctx): the
// parts plan in order, so their terms are added in that order.
class CompositeObjective : public Objective {
 public:
  CompositeObjective(std::string name, std::vector<std::unique_ptr<Objective>> parts);

  std::string name() const override { return name_; }
  void Plan(const ObjectiveContext& ctx, int k, const Model& model,
            std::vector<LayerSeed>* terms, Tensor* grad) const override;

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
