#include "src/baselines/random_testing.h"

#include <stdexcept>

#include "src/util/rng.h"

namespace dx {

std::vector<Tensor> RandomInputs(const Dataset& data, int k, Rng& rng) {
  if (k > data.size()) {
    throw std::invalid_argument("RandomInputs: k exceeds dataset size");
  }
  const std::vector<int> picks = rng.SampleWithoutReplacement(data.size(), k);
  std::vector<Tensor> out;
  out.reserve(static_cast<size_t>(k));
  for (const int i : picks) {
    out.push_back(data.inputs[static_cast<size_t>(i)]);
  }
  return out;
}

void RandomPerturbationObjective::Accumulate(const ObjectiveContext& ctx, int k,
                                             ExecutionPlan& /*plan*/, int /*pos*/,
                                             Tensor* grad) const {
  if (k != 0) {
    return;  // One direction per iteration, whatever the model count.
  }
  for (int64_t i = 0; i < grad->numel(); ++i) {
    (*grad)[i] += static_cast<float>(ctx.rng->Uniform(-1.0, 1.0));
  }
}

}  // namespace dx
