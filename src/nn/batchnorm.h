// Normalization layer with dataset-calibrated statistics.
//
// y = gamma * (x - mu) / sqrt(var + eps) + beta, per channel (CHW input) or
// per feature (1-D input). mu/var are *frozen running statistics* calibrated
// once from training data (Trainer::CalibrateNormLayers) rather than batch
// statistics — our training loop is per-example, so true batch statistics do
// not exist. gamma/beta remain trainable. This preserves what the paper's
// experiments need from DAVE-orig's leading BatchNormalization layer: an
// input-normalizing, input-differentiable affine stage that architecturally
// distinguishes DAVE-orig from DAVE-norminit.
#ifndef DX_SRC_NN_BATCHNORM_H_
#define DX_SRC_NN_BATCHNORM_H_

#include <string>
#include <vector>

#include "src/nn/layer.h"

namespace dx {

class BatchNorm : public Layer {
 public:
  // num_features: channel count (CHW input) or feature count (1-D input).
  explicit BatchNorm(int num_features, float eps = 1e-5f);

  // Sets mu/var from accumulated per-channel moments.
  void SetStatistics(const std::vector<float>& mean, const std::vector<float>& variance);
  bool calibrated() const { return calibrated_; }

  std::string Kind() const override { return "batchnorm"; }
  std::string Describe() const override;
  Shape OutputShape(const Shape& input_shape) const override;
  Tensor Forward(const Tensor& input, bool training, Rng* rng, Tensor* aux) const override;
  Tensor Backward(const Tensor& input, const Tensor& output, const Tensor& grad_output,
                  const Tensor& aux, std::vector<Tensor>* param_grads) const override;
  // Batch kernels: the frozen-statistics affine is applied per sample slice
  // with per-channel scale/shift hoisted across the batch.
  void ForwardBatchInto(const Tensor& input, int batch, bool training, Rng* rng,
                        Tensor* output, Tensor* aux, Workspace* ws) const override;
  void BackwardBatchInto(const Tensor& input, const Tensor& output,
                         const Tensor& grad_output, const Tensor& aux, int batch,
                         Tensor* grad_input, Workspace* ws,
                         std::vector<Tensor>* param_grads) const override;
  // gamma, beta, mu, var are all persisted; only gamma/beta are trainable but
  // mu/var ride along in MutableParams for serialization simplicity — the
  // optimizer must skip them, so they are exposed separately.
  std::vector<Tensor*> MutableParams() override { return {&gamma_, &beta_, &mu_, &var_}; }
  std::vector<const Tensor*> Params() const override { return {&gamma_, &beta_, &mu_, &var_}; }
  // Indices into MutableParams() that the optimizer may update.
  static constexpr int kNumTrainableParams = 2;
  void SerializeConfig(BinaryWriter& writer) const override;

  int num_features() const { return num_features_; }

 private:
  // Channel extent and per-channel plane size for the given input.
  void PlaneGeometry(const Tensor& input, int* channels, int64_t* plane) const;

  int num_features_;
  float eps_;
  bool calibrated_ = false;
  Tensor gamma_;  // [features]
  Tensor beta_;   // [features]
  Tensor mu_;     // [features]
  Tensor var_;    // [features]
};

}  // namespace dx

#endif  // DX_SRC_NN_BATCHNORM_H_
