// Residual block (He et al. 2016): out = relu(conv2(relu(conv1(x))) + skip(x))
// where skip is the identity, or a 1x1 strided projection when the block
// changes resolution or channel count.
//
// Implemented as a composite Layer so sequential Model can host ResNet-style
// topologies. Intermediate activations are recomputed during Backward (one
// extra forward per block) to keep the trace structure uniform.
//
// Coverage neurons: the block contributes its *output* channels (spatial
// mean of the post-addition ReLU output).
#ifndef DX_SRC_NN_RESIDUAL_H_
#define DX_SRC_NN_RESIDUAL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/nn/conv2d.h"
#include "src/nn/layer.h"

namespace dx {

class ResidualBlock : public Layer {
 public:
  // stride > 1 (or in_channels != out_channels) adds a 1x1 projection skip.
  ResidualBlock(int in_channels, int out_channels, int stride = 1);

  void InitParams(Rng& rng, WeightInit init = WeightInit::kHeNormal);

  std::string Kind() const override { return "residual"; }
  std::string Describe() const override;
  Shape OutputShape(const Shape& input_shape) const override;
  Tensor Forward(const Tensor& input, bool training, Rng* rng, Tensor* aux) const override;
  Tensor Backward(const Tensor& input, const Tensor& output, const Tensor& grad_output,
                  const Tensor& aux, std::vector<Tensor>* param_grads) const override;
  // Batch kernels: the sub-convolutions' kernels with arena-backed
  // intermediates. Parameter gradients route to each child's kernel.
  void ForwardBatchInto(const Tensor& input, int batch, bool training, Rng* rng,
                        Tensor* output, Tensor* aux, Workspace* ws) const override;
  void BackwardBatchInto(const Tensor& input, const Tensor& output,
                         const Tensor& grad_output, const Tensor& aux, int batch,
                         Tensor* grad_input, Workspace* ws,
                         std::vector<Tensor>* param_grads) const override;
  std::vector<Tensor*> MutableParams() override;
  std::vector<const Tensor*> Params() const override;
  int NumNeurons() const override { return out_channels_; }
  float NeuronValue(const Tensor& output, int index) const override;
  void AddNeuronSeed(Tensor* seed, int index, float weight) const override;
  void SerializeConfig(BinaryWriter& writer) const override;

  bool has_projection() const { return proj_ != nullptr; }

 private:
  int in_channels_;
  int out_channels_;
  int stride_;
  Conv2D conv1_;
  Conv2D conv2_;
  std::unique_ptr<Conv2D> proj_;
};

}  // namespace dx

#endif  // DX_SRC_NN_RESIDUAL_H_
