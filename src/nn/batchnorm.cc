#include "src/nn/batchnorm.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "src/tensor/simd.h"

namespace dx {
namespace {

using simd::VecF;

// One sample's gradient pass; shared by the scalar and batched backward so
// parameter-gradient accumulation order matches a sequential sample loop.
// When the caller discards BOTH parameter gradients (the gradient-ascent hot
// loop), the per-channel reductions are skipped entirely and the remaining
// pure elementwise scale vectorizes — one IEEE multiply per element, the
// exact operation of the scalar loop, so results are bit-identical at every
// SIMD width.
void BatchNormBackwardKernel(const float* px, const float* pg, float* pgi,
                             const float* gamma, const float* mu, const float* var,
                             float eps, int channels, int64_t plane, float* g_gamma,
                             float* g_beta) {
  for (int c = 0; c < channels; ++c) {
    const float inv_std = 1.0f / std::sqrt(var[c] + eps);
    const float scale = gamma[c] * inv_std;
    const float* g_row = pg + static_cast<size_t>(c) * plane;
    float* gi_row = pgi + static_cast<size_t>(c) * plane;
    if (g_gamma == nullptr && g_beta == nullptr) {
      const VecF vscale = VecF::Broadcast(scale);
      int64_t i = 0;
      for (; i + simd::kLanes <= plane; i += simd::kLanes) {
        VecF::Mul(VecF::Load(g_row + i), vscale).Store(gi_row + i);
      }
      for (; i < plane; ++i) {
        gi_row[i] = g_row[i] * scale;
      }
      continue;
    }
    const float* x_row = px + static_cast<size_t>(c) * plane;
    double acc_gamma = 0.0;
    double acc_beta = 0.0;
    for (int64_t i = 0; i < plane; ++i) {
      gi_row[i] = g_row[i] * scale;
      acc_gamma += static_cast<double>(g_row[i]) * (x_row[i] - mu[c]) * inv_std;
      acc_beta += g_row[i];
    }
    if (g_gamma != nullptr) {
      g_gamma[c] += static_cast<float>(acc_gamma);
    }
    if (g_beta != nullptr) {
      g_beta[c] += static_cast<float>(acc_beta);
    }
  }
}

}  // namespace

BatchNorm::BatchNorm(int num_features, float eps)
    : num_features_(num_features),
      eps_(eps),
      gamma_({num_features}, 1.0f),
      beta_({num_features}),
      mu_({num_features}),
      var_({num_features}, 1.0f) {
  if (num_features <= 0) {
    throw std::invalid_argument("BatchNorm: num_features must be positive");
  }
}

void BatchNorm::SetStatistics(const std::vector<float>& mean,
                              const std::vector<float>& variance) {
  if (static_cast<int>(mean.size()) != num_features_ ||
      static_cast<int>(variance.size()) != num_features_) {
    throw std::invalid_argument("BatchNorm::SetStatistics: wrong feature count");
  }
  mu_ = Tensor({num_features_}, mean);
  var_ = Tensor({num_features_}, variance);
  calibrated_ = true;
}

std::string BatchNorm::Describe() const {
  std::ostringstream out;
  out << "batchnorm " << num_features_ << (calibrated_ ? " (calibrated)" : "");
  return out.str();
}

Shape BatchNorm::OutputShape(const Shape& input_shape) const {
  const bool chw = input_shape.size() == 3 && input_shape[0] == num_features_;
  const bool flat = input_shape.size() == 1 && input_shape[0] == num_features_;
  if (!chw && !flat) {
    throw std::invalid_argument("BatchNorm: input " + ShapeToString(input_shape) +
                                " incompatible with " + std::to_string(num_features_) +
                                " features");
  }
  return input_shape;
}

void BatchNorm::PlaneGeometry(const Tensor& input, int* channels, int64_t* plane) const {
  *channels = num_features_;
  *plane = input.numel() / num_features_;
}

Tensor BatchNorm::Forward(const Tensor& input, bool /*training*/, Rng* /*rng*/,
                          Tensor* /*aux*/) const {
  OutputShape(input.shape());
  int channels = 0;
  int64_t plane = 0;
  PlaneGeometry(input, &channels, &plane);
  Tensor out = input;
  float* p = out.data();
  for (int c = 0; c < channels; ++c) {
    const float scale = gamma_[c] / std::sqrt(var_[c] + eps_);
    const float shift = beta_[c] - mu_[c] * scale;
    float* row = p + static_cast<size_t>(c) * plane;
    for (int64_t i = 0; i < plane; ++i) {
      row[i] = row[i] * scale + shift;
    }
  }
  return out;
}

void BatchNorm::ForwardBatchInto(const Tensor& input, int batch, bool /*training*/,
                                 Rng* /*rng*/, Tensor* output, Tensor* /*aux*/,
                                 Workspace* /*ws*/) const {
  // Plane geometry by arithmetic — no Shape construction per call.
  const int64_t sample = input.numel() / batch;
  if (sample % num_features_ != 0) {
    throw std::invalid_argument("BatchNorm::ForwardBatchInto: feature-count mismatch");
  }
  const int64_t plane = sample / num_features_;
  std::copy(input.data(), input.data() + input.numel(), output->data());
  float* p = output->data();
  for (int c = 0; c < num_features_; ++c) {
    const float scale = gamma_[c] / std::sqrt(var_[c] + eps_);
    const float shift = beta_[c] - mu_[c] * scale;
    for (int b = 0; b < batch; ++b) {
      float* row = p + static_cast<size_t>(b) * sample + static_cast<size_t>(c) * plane;
      for (int64_t i = 0; i < plane; ++i) {
        row[i] = row[i] * scale + shift;
      }
    }
  }
}

void BatchNorm::BackwardBatchInto(const Tensor& input, const Tensor& /*output*/,
                                  const Tensor& grad_output, const Tensor& /*aux*/,
                                  int batch, Tensor* grad_input, Workspace* /*ws*/,
                                  std::vector<Tensor>* param_grads) const {
  const int64_t sample = input.numel() / batch;
  const int64_t plane = sample / num_features_;
  CheckParamGrads(param_grads, "BatchNorm::BackwardBatchInto");
  float* g_gamma = GradData(param_grads, 0);
  float* g_beta = GradData(param_grads, 1);
  // mu/var grads (entries 2, 3) stay zero: statistics are frozen.
  for (int b = 0; b < batch; ++b) {
    const size_t offset = static_cast<size_t>(b) * sample;
    BatchNormBackwardKernel(input.data() + offset, grad_output.data() + offset,
                            grad_input->data() + offset, gamma_.data(), mu_.data(),
                            var_.data(), eps_, num_features_, plane, g_gamma, g_beta);
  }
}

Tensor BatchNorm::Backward(const Tensor& input, const Tensor& /*output*/,
                           const Tensor& grad_output, const Tensor& /*aux*/,
                           std::vector<Tensor>* param_grads) const {
  int channels = 0;
  int64_t plane = 0;
  PlaneGeometry(input, &channels, &plane);
  Tensor grad_in(input.shape());
  const float* pg = grad_output.data();
  const float* px = input.data();
  float* pgi = grad_in.data();

  CheckParamGrads(param_grads, "BatchNorm::Backward");
  // mu/var grads (entries 2, 3) stay zero: statistics are frozen.
  BatchNormBackwardKernel(px, pg, pgi, gamma_.data(), mu_.data(), var_.data(), eps_,
                          channels, plane, GradData(param_grads, 0),
                          GradData(param_grads, 1));
  return grad_in;
}

void BatchNorm::SerializeConfig(BinaryWriter& writer) const {
  writer.WriteI64(num_features_);
  writer.WriteF32(eps_);
  writer.WriteI64(calibrated_ ? 1 : 0);
}

}  // namespace dx
