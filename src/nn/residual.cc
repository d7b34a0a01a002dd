#include "src/nn/residual.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/tensor/ops.h"
#include "src/tensor/workspace.h"
#include "src/util/rng.h"

namespace dx {
namespace {

// Moves a block's flat param-grad vector into per-child views (conv1: 0-1,
// conv2: 2-3, proj: 4-5) and back again on destruction. A null vector gives
// null views, so the input-gradient-only mode allocates nothing.
class ChildGrads {
 public:
  explicit ChildGrads(std::vector<Tensor>* flat) : flat_(flat) {
    if (flat_ != nullptr) {
      for (size_t i = 0; i < flat_->size(); ++i) {
        views_[i / 2].push_back(std::move((*flat_)[i]));
      }
    }
  }
  ~ChildGrads() {
    if (flat_ != nullptr) {
      for (size_t i = 0; i < flat_->size(); ++i) {
        (*flat_)[i] = std::move(views_[i / 2][i % 2]);
      }
    }
  }
  ChildGrads(const ChildGrads&) = delete;
  ChildGrads& operator=(const ChildGrads&) = delete;

  std::vector<Tensor>* conv1() { return View(0); }
  std::vector<Tensor>* conv2() { return View(1); }
  std::vector<Tensor>* proj() { return View(2); }

 private:
  std::vector<Tensor>* View(int child) {
    return flat_ != nullptr ? &views_[child] : nullptr;
  }

  std::vector<Tensor>* flat_;
  std::vector<Tensor> views_[3];
};

}  // namespace

ResidualBlock::ResidualBlock(int in_channels, int out_channels, int stride)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      stride_(stride),
      conv1_(in_channels, out_channels, 3, 3, stride, 1, Activation::kRelu),
      conv2_(out_channels, out_channels, 3, 3, 1, 1, Activation::kNone) {
  if (stride != 1 || in_channels != out_channels) {
    proj_ = std::make_unique<Conv2D>(in_channels, out_channels, 1, 1, stride, 0,
                                     Activation::kNone);
  }
}

void ResidualBlock::InitParams(Rng& rng, WeightInit init) {
  conv1_.InitParams(rng, init);
  conv2_.InitParams(rng, init);
  if (proj_ != nullptr) {
    proj_->InitParams(rng, init);
  }
}

std::string ResidualBlock::Describe() const {
  std::ostringstream out;
  out << "residual " << in_channels_ << "->" << out_channels_ << " s" << stride_
      << (proj_ != nullptr ? " (proj)" : " (identity)");
  return out.str();
}

Shape ResidualBlock::OutputShape(const Shape& input_shape) const {
  const Shape main_shape = conv2_.OutputShape(conv1_.OutputShape(input_shape));
  if (proj_ == nullptr && main_shape != input_shape) {
    throw std::invalid_argument("ResidualBlock: identity skip requires matching shapes");
  }
  return main_shape;
}

Tensor ResidualBlock::Forward(const Tensor& input, bool /*training*/, Rng* /*rng*/,
                              Tensor* /*aux*/) const {
  const Tensor y1 = conv1_.Forward(input, false, nullptr, nullptr);
  Tensor y2 = conv2_.Forward(y1, false, nullptr, nullptr);
  const Tensor skip =
      proj_ != nullptr ? proj_->Forward(input, false, nullptr, nullptr) : input;
  y2.AddInPlace(skip);
  ApplyActivation(Activation::kRelu, &y2);
  return y2;
}

void ResidualBlock::ForwardBatchInto(const Tensor& input, int batch, bool /*training*/,
                                     Rng* /*rng*/, Tensor* output, Tensor* /*aux*/,
                                     Workspace* ws) const {
  // conv2 is 3x3 stride-1 pad-1 with out_channels filters, so conv1's output
  // (y1) has exactly the block's output shape — borrow it instead of
  // constructing a Shape (which would allocate on every hot-loop call).
  Tensor* y1 = ws->Acquire(output->shape());
  conv1_.ForwardBatchInto(input, batch, false, nullptr, y1, nullptr, ws);
  conv2_.ForwardBatchInto(*y1, batch, false, nullptr, output, nullptr, ws);
  if (proj_ != nullptr) {
    Tensor* skip = ws->Acquire(output->shape());
    proj_->ForwardBatchInto(input, batch, false, nullptr, skip, nullptr, ws);
    output->AddInPlace(*skip);
  } else {
    output->AddInPlace(input);
  }
  ApplyActivation(Activation::kRelu, output);
}

void ResidualBlock::BackwardBatchInto(const Tensor& input, const Tensor& output,
                                      const Tensor& grad_output, const Tensor& /*aux*/,
                                      int batch, Tensor* grad_input, Workspace* ws,
                                      std::vector<Tensor>* param_grads) const {
  CheckParamGrads(param_grads, "ResidualBlock::BackwardBatchInto");
  ChildGrads grads(param_grads);
  // Recompute the intermediates batched. y1 shares the block output's shape
  // — see ForwardBatchInto.
  Tensor* y1 = ws->Acquire(output.shape());
  conv1_.ForwardBatchInto(input, batch, false, nullptr, y1, nullptr, ws);
  Tensor* y2 = ws->Acquire(output.shape());
  conv2_.ForwardBatchInto(*y1, batch, false, nullptr, y2, nullptr, ws);

  // Through the output ReLU: relu'(out) in terms of the post-activation value.
  Tensor* g_sum = ws->Acquire(output.shape());
  std::copy(grad_output.data(), grad_output.data() + grad_output.numel(), g_sum->data());
  ApplyActivationGrad(Activation::kRelu, output, g_sum);

  // Main path.
  Tensor* g_y1 = ws->Acquire(output.shape());
  conv2_.BackwardBatchInto(*y1, *y2, *g_sum, Tensor(), batch, g_y1, ws, grads.conv2());
  conv1_.BackwardBatchInto(input, *y1, *g_y1, Tensor(), batch, grad_input, ws,
                           grads.conv1());

  // Skip path (flat adds: grad_input may be per-sample-shaped).
  float* gi = grad_input->data();
  if (proj_ != nullptr) {
    Tensor* skip = ws->Acquire(output.shape());
    proj_->ForwardBatchInto(input, batch, false, nullptr, skip, nullptr, ws);
    Tensor* g_skip = ws->Acquire(input.shape());
    proj_->BackwardBatchInto(input, *skip, *g_sum, Tensor(), batch, g_skip, ws, grads.proj());
    const float* gs = g_skip->data();
    for (int64_t i = 0; i < grad_input->numel(); ++i) {
      gi[i] += gs[i];
    }
  } else {
    const float* gs = g_sum->data();
    for (int64_t i = 0; i < grad_input->numel(); ++i) {
      gi[i] += gs[i];
    }
  }
}

Tensor ResidualBlock::Backward(const Tensor& input, const Tensor& output,
                               const Tensor& grad_output, const Tensor& /*aux*/,
                               std::vector<Tensor>* param_grads) const {
  // Recompute the intermediates (cheaper than widening the trace format).
  const Tensor y1 = conv1_.Forward(input, false, nullptr, nullptr);
  const Tensor y2 = conv2_.Forward(y1, false, nullptr, nullptr);

  // Through the output ReLU: relu'(out) in terms of the post-activation value.
  Tensor g_sum = grad_output;
  ApplyActivationGrad(Activation::kRelu, output, &g_sum);

  CheckParamGrads(param_grads, "ResidualBlock::Backward");
  ChildGrads grads(param_grads);

  // Main path.
  const Tensor g_y1 = conv2_.Backward(y1, y2, g_sum, Tensor(), grads.conv2());
  Tensor g_in = conv1_.Backward(input, y1, g_y1, Tensor(), grads.conv1());

  // Skip path.
  if (proj_ != nullptr) {
    const Tensor skip = proj_->Forward(input, false, nullptr, nullptr);
    g_in.AddInPlace(proj_->Backward(input, skip, g_sum, Tensor(), grads.proj()));
  } else {
    g_in.AddInPlace(g_sum);
  }

  return g_in;
}

std::vector<Tensor*> ResidualBlock::MutableParams() {
  std::vector<Tensor*> params = conv1_.MutableParams();
  for (Tensor* p : conv2_.MutableParams()) {
    params.push_back(p);
  }
  if (proj_ != nullptr) {
    for (Tensor* p : proj_->MutableParams()) {
      params.push_back(p);
    }
  }
  return params;
}

std::vector<const Tensor*> ResidualBlock::Params() const {
  std::vector<const Tensor*> params = conv1_.Params();
  for (const Tensor* p : conv2_.Params()) {
    params.push_back(p);
  }
  if (proj_ != nullptr) {
    for (const Tensor* p : proj_->Params()) {
      params.push_back(p);
    }
  }
  return params;
}

float ResidualBlock::NeuronValue(ConstTensorView output, int index) const {
  return conv2_.NeuronValue(output, index);
}

void ResidualBlock::AddNeuronSeed(Tensor* seed, int index, float weight) const {
  conv2_.AddNeuronSeed(seed, index, weight);
}

void ResidualBlock::SerializeConfig(BinaryWriter& writer) const {
  writer.WriteI64(in_channels_);
  writer.WriteI64(out_channels_);
  writer.WriteI64(stride_);
}

}  // namespace dx
