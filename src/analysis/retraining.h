// §7.3 "Augmenting training data to improve accuracy".
//
// Generated difference-inducing inputs are auto-labeled by majority vote over
// the model ensemble (no manual labeling — the paper's key advantage over
// adversarial augmentation) and appended to the training set; the model is
// then retrained for a few epochs and its test accuracy tracked per epoch.
#ifndef DX_SRC_ANALYSIS_RETRAINING_H_
#define DX_SRC_ANALYSIS_RETRAINING_H_

#include <vector>

#include "src/data/dataset.h"
#include "src/nn/model.h"

namespace dx {

class Rng;

// Majority-vote label of each input across models (run on the models'
// compiled ExecutionPlans); ties break toward the lowest label.
std::vector<int> MajorityVoteLabels(const std::vector<Model*>& voters,
                                    const std::vector<Tensor>& inputs);

// Appends `extra_inputs` (labeled by majority vote over `voters`) to a copy
// of `train`.
Dataset AugmentWithVotedLabels(const Dataset& train, const std::vector<Tensor>& extra_inputs,
                               const std::vector<Model*>& voters);

// Retrains `model` on `augmented` for `epochs`, recording test accuracy
// before retraining (index 0) and after each epoch (indices 1..epochs).
std::vector<float> RetrainAccuracyCurve(Model* model, const Dataset& augmented,
                                        const Dataset& test, int epochs, uint64_t seed,
                                        float learning_rate = 5e-4f);

}  // namespace dx

#endif  // DX_SRC_ANALYSIS_RETRAINING_H_
