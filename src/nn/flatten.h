// Flatten: reshapes any input to 1-D. No parameters, no neurons.
#ifndef DX_SRC_NN_FLATTEN_H_
#define DX_SRC_NN_FLATTEN_H_

#include <algorithm>
#include <string>
#include <vector>

#include "src/nn/layer.h"

namespace dx {

class Flatten : public Layer {
 public:
  Flatten() = default;

  std::string Kind() const override { return "flatten"; }
  std::string Describe() const override { return "flatten"; }
  Shape OutputShape(const Shape& input_shape) const override {
    return {static_cast<int>(NumElements(input_shape))};
  }
  Tensor Forward(const Tensor& input, bool /*training*/, Rng* /*rng*/,
                 Tensor* /*aux*/) const override {
    return input.Reshape({static_cast<int>(input.numel())});
  }
  Tensor Backward(const Tensor& input, const Tensor& /*output*/, const Tensor& grad_output,
                  const Tensor& /*aux*/, std::vector<Tensor>* /*param_grads*/) const override {
    return grad_output.Reshape(input.shape());
  }
  // Flattening a batch between distinct slabs is a memcpy.
  void ForwardBatchInto(const Tensor& input, int /*batch*/, bool /*training*/,
                        Rng* /*rng*/, Tensor* output, Tensor* /*aux*/,
                        Workspace* /*ws*/) const override {
    std::copy(input.data(), input.data() + input.numel(), output->data());
  }
  void BackwardBatchInto(const Tensor& /*input*/, const Tensor& /*output*/,
                         const Tensor& grad_output, const Tensor& /*aux*/, int /*batch*/,
                         Tensor* grad_input, Workspace* /*ws*/,
                         std::vector<Tensor>* /*param_grads*/) const override {
    std::copy(grad_output.data(), grad_output.data() + grad_output.numel(),
              grad_input->data());
  }
  void SerializeConfig(BinaryWriter& /*writer*/) const override {}
};

}  // namespace dx

#endif  // DX_SRC_NN_FLATTEN_H_
