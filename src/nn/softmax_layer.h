// Softmax output layer. Kept separate from Dense so training can seed
// backprop at the logits (numerically stable fused softmax+cross-entropy)
// while DeepXplore's obj1 seeds one-hot gradients at the probabilities.
#ifndef DX_SRC_NN_SOFTMAX_LAYER_H_
#define DX_SRC_NN_SOFTMAX_LAYER_H_

#include <string>
#include <vector>

#include "src/nn/layer.h"

namespace dx {

class SoftmaxLayer : public Layer {
 public:
  SoftmaxLayer() = default;

  std::string Kind() const override { return "softmax"; }
  std::string Describe() const override { return "softmax"; }
  Shape OutputShape(const Shape& input_shape) const override;
  Tensor Forward(const Tensor& input, bool training, Rng* rng, Tensor* aux) const override;
  // Jacobian-vector product: g_in = y * (g_out - <g_out, y>).
  Tensor Backward(const Tensor& input, const Tensor& output, const Tensor& grad_output,
                  const Tensor& aux, std::vector<Tensor>* param_grads) const override;
  // Row-wise over [B, C]: each row runs the identical stable softmax / JVP.
  void ForwardBatchInto(const Tensor& input, int batch, bool training, Rng* rng,
                        Tensor* output, Tensor* aux, Workspace* ws) const override;
  void BackwardBatchInto(const Tensor& input, const Tensor& output,
                         const Tensor& grad_output, const Tensor& aux, int batch,
                         Tensor* grad_input, Workspace* ws,
                         std::vector<Tensor>* param_grads) const override;
  void SerializeConfig(BinaryWriter& /*writer*/) const override {}
};

}  // namespace dx

#endif  // DX_SRC_NN_SOFTMAX_LAYER_H_
