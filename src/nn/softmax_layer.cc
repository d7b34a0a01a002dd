#include "src/nn/softmax_layer.h"

#include <algorithm>
#include <stdexcept>

#include "src/tensor/ops.h"

namespace dx {

Shape SoftmaxLayer::OutputShape(const Shape& input_shape) const {
  if (input_shape.size() != 1) {
    throw std::invalid_argument("SoftmaxLayer: expected 1-D logits");
  }
  return input_shape;
}

Tensor SoftmaxLayer::Forward(const Tensor& input, bool /*training*/, Rng* /*rng*/,
                             Tensor* /*aux*/) const {
  return Softmax(input);
}

namespace {

// g_in = y * (g_out - <g_out, y>) for one row; shared by the scalar and
// batched backward, so both compute the exact same JVP. The dot product runs
// kJvpLanes fixed double partial sums — lane j accumulates indices
// ≡ j (mod kJvpLanes) in ascending order and the lanes combine in one fixed
// sequence. The lane count is a source-level constant
// (NOT simd::kLanes), so the operation sequence — and therefore every bit of
// the result — is identical across SIMD backends and build flags; the
// compiler is free to vectorize the lane-parallel inner loop.
constexpr int kJvpLanes = 8;

void SoftmaxBackwardRow(const float* py, const float* pg, float* pgi, int64_t n) {
  double acc[kJvpLanes] = {};
  int64_t i = 0;
  for (; i + kJvpLanes <= n; i += kJvpLanes) {
    for (int j = 0; j < kJvpLanes; ++j) {
      acc[j] += static_cast<double>(pg[i + j]) * py[i + j];
    }
  }
  for (int j = 0; i < n; ++i, ++j) {
    acc[j] += static_cast<double>(pg[i]) * py[i];
  }
  double dot = 0.0;
  for (int j = 0; j < kJvpLanes; ++j) {
    dot += acc[j];
  }
  const float dotf = static_cast<float>(dot);
  for (i = 0; i < n; ++i) {
    pgi[i] = py[i] * (pg[i] - dotf);
  }
}

}  // namespace

Tensor SoftmaxLayer::Backward(const Tensor& /*input*/, const Tensor& output,
                              const Tensor& grad_output, const Tensor& /*aux*/,
                              std::vector<Tensor>* /*param_grads*/) const {
  Tensor grad_in(output.shape());
  SoftmaxBackwardRow(output.data(), grad_output.data(), grad_in.data(), output.numel());
  return grad_in;
}

void SoftmaxLayer::ForwardBatchInto(const Tensor& input, int batch, bool /*training*/,
                                    Rng* /*rng*/, Tensor* output, Tensor* /*aux*/,
                                    Workspace* /*ws*/) const {
  if (input.ndim() != 2 || input.dim(0) != batch) {
    throw std::invalid_argument("SoftmaxLayer::ForwardBatchInto: expected [B, C] logits");
  }
  std::copy(input.data(), input.data() + input.numel(), output->data());
  SoftmaxRowsInPlace(output->data(), batch, input.dim(1));
}

void SoftmaxLayer::BackwardBatchInto(const Tensor& /*input*/, const Tensor& output,
                                     const Tensor& grad_output, const Tensor& /*aux*/,
                                     int batch, Tensor* grad_input, Workspace* /*ws*/,
                                     std::vector<Tensor>* /*param_grads*/) const {
  const int64_t cols = output.numel() / batch;
  for (int b = 0; b < batch; ++b) {
    const size_t offset = static_cast<size_t>(b) * cols;
    SoftmaxBackwardRow(output.data() + offset, grad_output.data() + offset,
                       grad_input->data() + offset, cols);
  }
}

}  // namespace dx
