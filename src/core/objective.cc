#include "src/core/objective.h"

#include <stdexcept>
#include <utility>

#include "src/baselines/adversarial.h"
#include "src/baselines/random_testing.h"
#include "src/nn/execution_plan.h"
#include "src/util/registry.h"
#include "src/util/rng.h"

namespace dx {

void DifferentialObjective::Accumulate(const ObjectiveContext& ctx, int k, ExecutionPlan& plan,
                                       int pos, Tensor* grad) const {
  const Model& model = plan.model();
  const float weight = k == ctx.target_model ? -ctx.lambda1 : 1.0f;
  const int last = model.num_layers() - 1;
  Tensor& seed = plan.AcquireSeed(last);
  if (ctx.regression) {
    seed[0] = weight;
  } else {
    seed[ctx.consensus] = weight;
  }
  grad->AddInPlace(plan.BackwardSample(pos, last, seed));
}

void CoverageObjective::Accumulate(const ObjectiveContext& ctx, int k, ExecutionPlan& plan,
                                   int pos, Tensor* grad) const {
  if (ctx.lambda2 == 0.0f) {
    return;  // Disabled: no gradient and, crucially, no rng draw.
  }
  const CoverageMetric& metric = *(*ctx.metrics)[static_cast<size_t>(k)];
  NeuronId id;
  if (!metric.PickUncovered(*ctx.rng, &id)) {
    return;  // Everything covered: nothing to add (Algorithm 1 line 33).
  }
  Tensor& seed = plan.AcquireSeed(id.layer);
  plan.model().layer(id.layer).AddNeuronSeed(&seed, id.index, ctx.lambda2);
  grad->AddInPlace(plan.BackwardSample(pos, id.layer, seed));
}

CompositeObjective::CompositeObjective(std::string name,
                                       std::vector<std::unique_ptr<Objective>> parts)
    : name_(std::move(name)), parts_(std::move(parts)) {}

void CompositeObjective::Accumulate(const ObjectiveContext& ctx, int k, ExecutionPlan& plan,
                                    int pos, Tensor* grad) const {
  for (const auto& part : parts_) {
    part->Accumulate(ctx, k, plan, pos, grad);
  }
}

std::unique_ptr<Objective> MakeJointObjective() {
  std::vector<std::unique_ptr<Objective>> parts;
  parts.push_back(std::make_unique<DifferentialObjective>());
  parts.push_back(std::make_unique<CoverageObjective>());
  return std::make_unique<CompositeObjective>("joint", std::move(parts));
}

namespace {

NamedRegistry<ObjectiveFactory>& ObjectiveRegistry() {
  static auto* registry = new NamedRegistry<ObjectiveFactory>({
      {"joint", [] { return MakeJointObjective(); }},
      {"differential",
       []() -> std::unique_ptr<Objective> { return std::make_unique<DifferentialObjective>(); }},
      {"fgsm", []() -> std::unique_ptr<Objective> { return std::make_unique<FgsmObjective>(); }},
      {"random",
       []() -> std::unique_ptr<Objective> {
         return std::make_unique<RandomPerturbationObjective>();
       }},
  });
  return *registry;
}

}  // namespace

void RegisterObjective(const std::string& name, ObjectiveFactory factory) {
  ObjectiveRegistry().Register(name, std::move(factory));
}

std::unique_ptr<Objective> MakeObjective(const std::string& name) {
  return ObjectiveRegistry().Get(name, "objective")();
}

std::vector<std::string> ObjectiveNames() { return ObjectiveRegistry().Names(); }

}  // namespace dx
