// Max and average 2-D pooling over CHW inputs.
//
// MaxPool records the argmax offsets in its aux tensor so Backward routes
// gradients exactly to the winning elements; AvgPool spreads gradients
// uniformly.
#ifndef DX_SRC_NN_POOL2D_H_
#define DX_SRC_NN_POOL2D_H_

#include <string>
#include <vector>

#include "src/nn/layer.h"

namespace dx {

enum class PoolMode : int { kMax = 0, kAvg = 1 };

class Pool2D : public Layer {
 public:
  Pool2D(PoolMode mode, int kernel, int stride = 0);  // stride 0 means == kernel

  std::string Kind() const override { return "pool2d"; }
  std::string Describe() const override;
  Shape OutputShape(const Shape& input_shape) const override;
  Tensor Forward(const Tensor& input, bool training, Rng* rng, Tensor* aux) const override;
  Tensor Backward(const Tensor& input, const Tensor& output, const Tensor& grad_output,
                  const Tensor& aux, std::vector<Tensor>* param_grads) const override;
  // Batch kernels over [B, C, H, W] slices; max mode resizes *aux in place for
  // its argmax map, whose offsets stay sample-relative as in the per-sample pass.
  void ForwardBatchInto(const Tensor& input, int batch, bool training, Rng* rng,
                        Tensor* output, Tensor* aux, Workspace* ws) const override;
  void BackwardBatchInto(const Tensor& input, const Tensor& output,
                         const Tensor& grad_output, const Tensor& aux, int batch,
                         Tensor* grad_input, Workspace* ws,
                         std::vector<Tensor>* param_grads) const override;
  void SerializeConfig(BinaryWriter& writer) const override;

  PoolMode mode() const { return mode_; }

 private:
  PoolMode mode_;
  int kernel_;
  int stride_;
};

}  // namespace dx

#endif  // DX_SRC_NN_POOL2D_H_
