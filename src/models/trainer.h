// Minibatch trainer for sequential models on in-memory datasets.
//
// Classification datasets train with fused softmax cross-entropy; regression
// datasets with MSE against a 1-element target. Training is deterministic
// given the config seed.
#ifndef DX_SRC_MODELS_TRAINER_H_
#define DX_SRC_MODELS_TRAINER_H_

#include <cstdint>

#include "src/data/dataset.h"
#include "src/nn/model.h"

namespace dx {

struct TrainConfig {
  int epochs = 4;
  int batch_size = 32;
  float learning_rate = 1e-3f;  // Adam.
  uint64_t seed = 1;
  // Shuffle the sample order each epoch. Disable for controlled-similarity
  // experiments (Table 12): with sequential batches, removing d trailing
  // samples perturbs only the tail of each epoch, so model divergence grows
  // smoothly with d instead of jumping with the reshuffled permutation.
  bool shuffle = true;
  bool verbose = false;
};

class Trainer {
 public:
  // Calibrates BatchNorm statistics (if any), then runs minibatch Adam.
  static void Fit(Model* model, const Dataset& train, const TrainConfig& config);

  // Fraction of correctly classified samples. Like every prediction in the
  // engine it runs on the model's compiled ExecutionPlan kernels; only
  // training (Fit, CalibrateNormLayers) uses the per-sample Model::Forward.
  static float Accuracy(const Model& model, const Dataset& data);
  // Mean squared error of the scalar output (regression models).
  static float MseOf(const Model& model, const Dataset& data);
  // The paper's Table 1 accuracy figure: accuracy for classifiers,
  // 1 - MSE for the driving regressors.
  static float PaperAccuracy(const Model& model, const Dataset& data);

  // Sets every BatchNorm layer's mu/var from per-channel statistics of its
  // input over (at most max_samples of) `data`.
  static void CalibrateNormLayers(Model* model, const Dataset& data, int max_samples = 256);
};

}  // namespace dx

#endif  // DX_SRC_MODELS_TRAINER_H_
