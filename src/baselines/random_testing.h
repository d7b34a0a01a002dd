// Random-testing baselines, in two forms:
//
//   - RandomInputs: k inputs drawn uniformly (without replacement) from the
//     original test set — the paper's "random" comparator.
//   - RandomPerturbationObjective: gradient-free random-walk search expressed
//     as a Session Objective plug-in, so the random baseline runs through the
//     same engine loop (constraints, difference checks, coverage) as the
//     joint optimization.
#ifndef DX_SRC_BASELINES_RANDOM_TESTING_H_
#define DX_SRC_BASELINES_RANDOM_TESTING_H_

#include <string>
#include <vector>

#include "src/core/objective.h"
#include "src/data/dataset.h"
#include "src/tensor/tensor.h"

namespace dx {

class Rng;

std::vector<Tensor> RandomInputs(const Dataset& data, int k, Rng& rng);

// Emits one uniform random direction in [-1, 1]^d per iteration (for model
// k = 0 only, so the direction is independent of the model count). The
// engine's step/constraint machinery turns it into a random walk over the
// valid input domain.
class RandomPerturbationObjective : public Objective {
 public:
  std::string name() const override { return "random"; }
  // Gradient-free: plans no term and adds the direction into `grad`
  // directly (a direct input-space term).
  void Plan(const ObjectiveContext& ctx, int k, const Model& model,
            std::vector<LayerSeed>* terms, Tensor* grad) const override;
};

}  // namespace dx

#endif  // DX_SRC_BASELINES_RANDOM_TESTING_H_
