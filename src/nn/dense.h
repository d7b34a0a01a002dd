// Fully connected layer: y = act(W x + b), x of shape [in], y of shape [out].
#ifndef DX_SRC_NN_DENSE_H_
#define DX_SRC_NN_DENSE_H_

#include <string>
#include <vector>

#include "src/nn/activation.h"
#include "src/nn/layer.h"

namespace dx {

// Weight initialization schemes; kNormalized mirrors the paper's
// DAVE-norminit variant (normalized random gaussian init).
enum class WeightInit : int { kGlorotUniform = 0, kHeNormal = 1, kNormalized = 2 };

class Dense : public Layer {
 public:
  Dense(int in_features, int out_features, Activation act = Activation::kNone);

  void InitParams(Rng& rng, WeightInit init = WeightInit::kGlorotUniform);

  std::string Kind() const override { return "dense"; }
  std::string Describe() const override;
  Shape OutputShape(const Shape& input_shape) const override;
  Tensor Forward(const Tensor& input, bool training, Rng* rng, Tensor* aux) const override;
  Tensor Backward(const Tensor& input, const Tensor& output, const Tensor& grad_output,
                  const Tensor& aux, std::vector<Tensor>* param_grads) const override;
  // Batch kernels: transpose + SIMD GEMM over arena scratch.
  void ForwardBatchInto(const Tensor& input, int batch, bool training, Rng* rng,
                        Tensor* output, Tensor* aux, Workspace* ws) const override;
  void BackwardBatchInto(const Tensor& input, const Tensor& output,
                         const Tensor& grad_output, const Tensor& aux, int batch,
                         Tensor* grad_input, Workspace* ws,
                         std::vector<Tensor>* param_grads) const override;
  std::vector<Tensor*> MutableParams() override { return {&weight_, &bias_}; }
  std::vector<const Tensor*> Params() const override { return {&weight_, &bias_}; }
  int NumNeurons() const override { return out_features_; }
  float NeuronValue(ConstTensorView output, int index) const override;
  void AddNeuronSeed(Tensor* seed, int index, float weight) const override;
  void SerializeConfig(BinaryWriter& writer) const override;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  Activation activation() const { return act_; }
  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 private:
  int in_features_;
  int out_features_;
  Activation act_;
  Tensor weight_;  // [out, in]
  Tensor bias_;    // [out]
};

}  // namespace dx

#endif  // DX_SRC_NN_DENSE_H_
