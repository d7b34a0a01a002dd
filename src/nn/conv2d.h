// 2-D convolution over CHW inputs with stride and symmetric zero padding.
//
// One coverage neuron per output channel; the neuron's activation is the
// spatial mean of that channel (matching the DeepXplore reference treatment
// of convolutional layers).
#ifndef DX_SRC_NN_CONV2D_H_
#define DX_SRC_NN_CONV2D_H_

#include <string>
#include <vector>

#include "src/nn/activation.h"
#include "src/nn/dense.h"  // WeightInit
#include "src/nn/layer.h"

namespace dx {

class Conv2D : public Layer {
 public:
  Conv2D(int in_channels, int out_channels, int kernel_h, int kernel_w, int stride = 1,
         int padding = 0, Activation act = Activation::kNone);

  void InitParams(Rng& rng, WeightInit init = WeightInit::kGlorotUniform);

  std::string Kind() const override { return "conv2d"; }
  std::string Describe() const override;
  Shape OutputShape(const Shape& input_shape) const override;
  Tensor Forward(const Tensor& input, bool training, Rng* rng, Tensor* aux) const override;
  Tensor Backward(const Tensor& input, const Tensor& output, const Tensor& grad_output,
                  const Tensor& aux, std::vector<Tensor>* param_grads) const override;
  // Batch kernels: im2col / Col2Im + SIMD GEMM over arena scratch.
  void ForwardBatchInto(const Tensor& input, int batch, bool training, Rng* rng,
                        Tensor* output, Tensor* aux, Workspace* ws) const override;
  void BackwardBatchInto(const Tensor& input, const Tensor& output,
                         const Tensor& grad_output, const Tensor& aux, int batch,
                         Tensor* grad_input, Workspace* ws,
                         std::vector<Tensor>* param_grads) const override;
  std::vector<Tensor*> MutableParams() override { return {&weight_, &bias_}; }
  std::vector<const Tensor*> Params() const override { return {&weight_, &bias_}; }
  int NumNeurons() const override { return out_channels_; }
  float NeuronValue(ConstTensorView output, int index) const override;
  void AddNeuronSeed(Tensor* seed, int index, float weight) const override;
  void SerializeConfig(BinaryWriter& writer) const override;

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int stride() const { return stride_; }
  int padding() const { return padding_; }
  Tensor& weight() { return weight_; }

 private:
  int in_channels_;
  int out_channels_;
  int kernel_h_;
  int kernel_w_;
  int stride_;
  int padding_;
  Activation act_;
  Tensor weight_;  // [out_ch, in_ch, kh, kw]
  Tensor bias_;    // [out_ch]
};

}  // namespace dx

#endif  // DX_SRC_NN_CONV2D_H_
