#include "src/core/objective.h"

#include <stdexcept>
#include <utility>

#include "src/baselines/adversarial.h"
#include "src/baselines/random_testing.h"
#include "src/util/registry.h"
#include "src/util/rng.h"

namespace dx {

void DifferentialObjective::Plan(const ObjectiveContext& ctx, int k, const Model& model,
                                 std::vector<LayerSeed>* terms, Tensor* /*grad*/) const {
  LayerSeed term;
  term.layer = model.num_layers() - 1;
  term.index = ctx.regression ? 0 : ctx.consensus;
  term.weight = k == ctx.target_model ? -ctx.lambda1 : 1.0f;
  terms->push_back(term);
}

void CoverageObjective::Plan(const ObjectiveContext& ctx, int k, const Model& /*model*/,
                             std::vector<LayerSeed>* terms, Tensor* /*grad*/) const {
  if (ctx.lambda2 == 0.0f) {
    return;  // Disabled: no term and, crucially, no rng draw.
  }
  const CoverageMetric& metric = *(*ctx.metrics)[static_cast<size_t>(k)];
  NeuronId id;
  if (!metric.PickUncovered(*ctx.rng, &id)) {
    return;  // Everything covered: nothing to add (Algorithm 1 line 33).
  }
  LayerSeed term;
  term.layer = id.layer;
  term.index = id.index;
  term.weight = ctx.lambda2;
  term.neuron = true;
  terms->push_back(term);
}

CompositeObjective::CompositeObjective(std::string name,
                                       std::vector<std::unique_ptr<Objective>> parts)
    : name_(std::move(name)), parts_(std::move(parts)) {}

void CompositeObjective::Plan(const ObjectiveContext& ctx, int k, const Model& model,
                              std::vector<LayerSeed>* terms, Tensor* grad) const {
  for (const auto& part : parts_) {
    part->Plan(ctx, k, model, terms, grad);
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
