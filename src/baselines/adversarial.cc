#include "src/baselines/adversarial.h"

#include <cmath>
#include <stdexcept>

#include "src/nn/execution_plan.h"
#include "src/nn/loss.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"

namespace dx {

Tensor Fgsm(const Model& model, const Tensor& x, int label, float target, float eps) {
  const ForwardTrace trace = model.Forward(x);
  const bool regression = NumElements(model.output_shape()) == 1 &&
                          model.layer(model.num_layers() - 1).Kind() != "softmax";
  LossResult loss_result;
  if (regression) {
    MeanSquaredError mse;
    Tensor t(model.output_shape());
    t[0] = target;
    loss_result = mse.Compute(model, trace, t);
  } else {
    SoftmaxCrossEntropy ce;
    loss_result = ce.Compute(model, trace, OneHot(label, model.output_shape()[0]));
  }
  const Tensor grad =
      model.BackwardInput(trace, loss_result.seed_layer, std::move(loss_result.grad));
  Tensor adv = x;
  for (int64_t i = 0; i < adv.numel(); ++i) {
    adv[i] += eps * (grad[i] > 0.0f ? 1.0f : (grad[i] < 0.0f ? -1.0f : 0.0f));
  }
  adv.ClampInPlace(0.0f, 1.0f);
  return adv;
}

std::vector<Tensor> AdversarialInputs(const Model& model, const Dataset& data, int k,
                                      float eps, Rng& rng) {
  if (k > data.size()) {
    throw std::invalid_argument("AdversarialInputs: k exceeds dataset size");
  }
  const std::vector<int> picks = rng.SampleWithoutReplacement(data.size(), k);
  std::vector<Tensor> out;
  out.reserve(static_cast<size_t>(k));
  for (const int i : picks) {
    const int label = data.regression() ? 0 : data.Label(i);
    const float target = data.regression() ? data.Target(i) : 0.0f;
    out.push_back(Fgsm(model, data.inputs[static_cast<size_t>(i)], label, target, eps));
  }
  return out;
}

void FgsmObjective::Accumulate(const ObjectiveContext& ctx, int k, ExecutionPlan& plan,
                               int pos, Tensor* grad) const {
  if (k != ctx.target_model) {
    return;
  }
  const int last = plan.model().num_layers() - 1;
  Tensor& seed = plan.AcquireSeed(last);
  if (ctx.regression) {
    // Push the output up; the engine's difference predicate fires as soon as
    // the target drifts steering_eps away from the (unmoved) other models.
    seed[0] = 1.0f;
  } else {
    // Ascend the loss on the consensus class == descend its confidence.
    seed[ctx.consensus] = -1.0f;
  }
  grad->AddInPlace(plan.BackwardSample(pos, last, seed));
}

}  // namespace dx
