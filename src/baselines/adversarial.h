// Adversarial-testing baseline: FGSM (Goodfellow et al., ICLR'15), the
// adversarial input generator the paper compares against in Figure 9 and
// Figure 10. Two forms:
//
//   - The classic standalone generator (Fgsm / AdversarialInputs), matching
//     the paper's comparison setup exactly.
//   - FgsmObjective, the same attack expressed as a Session Objective
//     plug-in: single-model loss ascent running through the engine loop
//     (constraints, schedulers, and coverage measurement included).
#ifndef DX_SRC_BASELINES_ADVERSARIAL_H_
#define DX_SRC_BASELINES_ADVERSARIAL_H_

#include <string>
#include <vector>

#include "src/core/objective.h"
#include "src/data/dataset.h"
#include "src/nn/model.h"

namespace dx {

class Rng;

// One FGSM step: x' = clamp(x + eps * sign(∇_x loss(F(x), label)), 0, 1).
// For classifiers `label` is the true class; for regressors the loss is MSE
// against `target` (pass the ground-truth steering angle via `target`).
Tensor Fgsm(const Model& model, const Tensor& x, int label, float target, float eps);

// Generates k adversarial inputs from random dataset samples against `model`.
std::vector<Tensor> AdversarialInputs(const Model& model, const Dataset& data, int k,
                                      float eps, Rng& rng);

// FGSM as an engine strategy: ascends the target model's loss against the
// seed-time consensus (classification: pushes down F_j(x)[c]; regression:
// pushes the output away from its seed value). The other models contribute
// nothing — a single-model attack, unlike the differential objective.
class FgsmObjective : public Objective {
 public:
  std::string name() const override { return "fgsm"; }
  void Accumulate(const ObjectiveContext& ctx, int k, ExecutionPlan& plan, int pos,
                  Tensor* grad) const override;
};

}  // namespace dx

#endif  // DX_SRC_BASELINES_ADVERSARIAL_H_
