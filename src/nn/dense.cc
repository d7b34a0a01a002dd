#include "src/nn/dense.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "src/nn/gemm.h"
#include "src/tensor/workspace.h"
#include "src/util/rng.h"

namespace dx {
namespace {

// One sample's pre-activation matvec: py = W px + b, each output a double
// accumulation in ascending i (the scalar reference Forward).
void DenseForwardSample(const float* px, float* py, const float* pw, const float* pb,
                        int in_features, int out_features) {
  for (int o = 0; o < out_features; ++o) {
    const float* row = pw + static_cast<size_t>(o) * in_features;
    double acc = pb[o];
    for (int i = 0; i < in_features; ++i) {
      acc += static_cast<double>(row[i]) * px[i];
    }
    py[o] = static_cast<float>(acc);
  }
}

// Scalar reference gradient kernel: dL/dinput (and parameter grads) for one
// sample.
void DenseBackwardKernel(const float* pg, const float* pw, const float* px, float* pgi,
                         float* gw, float* gb, int in_features, int out_features) {
  for (int o = 0; o < out_features; ++o) {
    const float g = pg[o];
    if (g == 0.0f) {
      continue;
    }
    const float* row = pw + static_cast<size_t>(o) * in_features;
    for (int i = 0; i < in_features; ++i) {
      pgi[i] += g * row[i];
    }
  }
  if (gb != nullptr) {
    for (int o = 0; o < out_features; ++o) {
      gb[o] += pg[o];
    }
  }
  if (gw != nullptr) {
    for (int o = 0; o < out_features; ++o) {
      const float g = pg[o];
      if (g == 0.0f) {
        continue;
      }
      float* grow = gw + static_cast<size_t>(o) * in_features;
      for (int i = 0; i < in_features; ++i) {
        grow[i] += g * px[i];
      }
    }
  }
}

}  // namespace

Dense::Dense(int in_features, int out_features, Activation act)
    : in_features_(in_features),
      out_features_(out_features),
      act_(act),
      weight_({out_features, in_features}),
      bias_({out_features}) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Dense: feature counts must be positive");
  }
}

void Dense::InitParams(Rng& rng, WeightInit init) {
  const float fan_in = static_cast<float>(in_features_);
  const float fan_out = static_cast<float>(out_features_);
  switch (init) {
    case WeightInit::kGlorotUniform: {
      const float limit = std::sqrt(6.0f / (fan_in + fan_out));
      weight_ = Tensor::RandUniform(weight_.shape(), rng, -limit, limit);
      break;
    }
    case WeightInit::kHeNormal:
      weight_ = Tensor::Randn(weight_.shape(), rng, std::sqrt(2.0f / fan_in));
      break;
    case WeightInit::kNormalized: {
      // Gaussian init normalized so each output unit's weight row has unit L2
      // norm (the DAVE-norminit scheme).
      weight_ = Tensor::Randn(weight_.shape(), rng, 1.0f);
      for (int o = 0; o < out_features_; ++o) {
        double norm = 0.0;
        float* row = weight_.data() + static_cast<size_t>(o) * in_features_;
        for (int i = 0; i < in_features_; ++i) {
          norm += static_cast<double>(row[i]) * row[i];
        }
        const float inv = static_cast<float>(1.0 / std::max(1e-12, std::sqrt(norm)));
        for (int i = 0; i < in_features_; ++i) {
          row[i] *= inv;
        }
      }
      break;
    }
  }
  bias_.Fill(0.0f);
}

std::string Dense::Describe() const {
  std::ostringstream out;
  out << "dense " << in_features_ << "->" << out_features_ << " " << ActivationName(act_);
  return out.str();
}

Shape Dense::OutputShape(const Shape& input_shape) const {
  if (NumElements(input_shape) != in_features_) {
    throw std::invalid_argument("Dense: input shape " + ShapeToString(input_shape) +
                                " incompatible with in_features " +
                                std::to_string(in_features_));
  }
  return {out_features_};
}

Tensor Dense::Forward(const Tensor& input, bool /*training*/, Rng* /*rng*/,
                      Tensor* /*aux*/) const {
  if (input.numel() != in_features_) {
    throw std::invalid_argument("Dense::Forward: bad input size");
  }
  Tensor out({out_features_});
  DenseForwardSample(input.data(), out.data(), weight_.data(), bias_.data(), in_features_,
                     out_features_);
  ApplyActivation(act_, &out);
  return out;
}

Tensor Dense::Backward(const Tensor& input, const Tensor& output, const Tensor& grad_output,
                       const Tensor& /*aux*/, std::vector<Tensor>* param_grads) const {
  Tensor grad_pre = grad_output;  // dL/d(pre-activation)
  ApplyActivationGrad(act_, output, &grad_pre);

  Tensor grad_in({in_features_});
  CheckParamGrads(param_grads, "Dense::Backward");
  DenseBackwardKernel(grad_pre.data(), weight_.data(), input.data(), grad_in.data(),
                      GradData(param_grads, 0), GradData(param_grads, 1),
                      in_features_, out_features_);
  return grad_in;
}

void Dense::ForwardBatchInto(const Tensor& input, int batch, bool training, Rng* rng,
                             Tensor* output, Tensor* aux, Workspace* ws) const {
  Tensor* pack = ws->AcquireFlat(static_cast<int64_t>(in_features_ + 1) * out_features_);
  PackInto(pack->data());
  ForwardBatchPacked(pack, input, batch, training, rng, output, aux, ws);
}

void Dense::ForwardBatchPacked(const Tensor* pack, const Tensor& input, int batch,
                               bool /*training*/, Rng* /*rng*/, Tensor* output,
                               Tensor* /*aux*/, Workspace* /*ws*/) const {
  if (input.numel() != static_cast<int64_t>(batch) * in_features_) {
    throw std::invalid_argument("Dense::ForwardBatchPacked: bad input size");
  }
  if (pack == nullptr ||
      pack->numel() != static_cast<int64_t>(in_features_ + 1) * out_features_) {
    throw std::invalid_argument("Dense::ForwardBatchPacked: no pack of this layer");
  }
  // y[b, o] = bias[o] + Σ_i x[b, i]·W^T[i, o], straight into the [batch,
  // out] output: an ascending-i FMA chain from bias[o] per element, the
  // same chain at every batch width, SIMD width and thread count. Results
  // differ from the scalar Forward oracle (double accumulation) only within
  // tolerance.
  const float* wt = pack->data();
  const float* bias = wt + static_cast<size_t>(in_features_) * out_features_;
  GemmColumnBias(batch, out_features_, in_features_, input.data(), in_features_, wt,
                 out_features_, bias, output->data(), out_features_);
  ApplyActivation(act_, output);
}

std::shared_ptr<const Tensor> Dense::ForwardPack() const {
  std::lock_guard<std::mutex> lock(pack_mu_);
  if (pack_ == nullptr || !PackIsCurrent(*pack_)) {
    auto pack = std::make_shared<Tensor>(Shape{in_features_ + 1, out_features_});
    PackInto(pack->data());
    pack_ = std::move(pack);
  }
  return pack_;
}

void Dense::PackInto(float* pack) const {
  TransposeMatrix(weight_.data(), out_features_, in_features_, pack);
  std::copy(bias_.data(), bias_.data() + out_features_,
            pack + static_cast<size_t>(in_features_) * out_features_);
}

bool Dense::PackIsCurrent(const Tensor& pack) const {
  // Bits, not values: -0 and +0 start different chains, and a NaN weight
  // must still match itself.
  const auto same = [](float a, float b) {
    return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
  };
  const float* p = pack.data();
  for (int i = 0; i < in_features_; ++i) {
    for (int o = 0; o < out_features_; ++o) {
      if (!same(*p++, weight_.data()[static_cast<size_t>(o) * in_features_ + i])) {
        return false;
      }
    }
  }
  for (int o = 0; o < out_features_; ++o) {
    if (!same(*p++, bias_.data()[o])) {
      return false;
    }
  }
  return true;
}

void Dense::BackwardBatchInto(const Tensor& input, const Tensor& output,
                              const Tensor& grad_output, const Tensor& /*aux*/, int batch,
                              Tensor* grad_input, Workspace* ws,
                              std::vector<Tensor>* param_grads) const {
  CheckParamGrads(param_grads, "Dense::BackwardBatchInto");
  // dL/d(pre-activation) in arena scratch instead of a fresh tensor.
  Tensor* grad_pre = ws->Acquire(output.shape());
  std::copy(grad_output.data(), grad_output.data() + grad_output.numel(),
            grad_pre->data());
  ApplyActivationGrad(act_, output, grad_pre);
  // Grad-input as a transposed-weight GEMM (no transpose needed: W is
  // already [out, in] row-major, exactly the B matrix of gi[b, i] =
  // Σ_o gpre[b, o] · W[o, i]). Each gradient element is one ascending-o FMA
  // chain and threading partitions over rows (= samples), so results are
  // invariant to batch width, SIMD width, and thread count: a row of the
  // executor's batched BackwardRows equals the width-1 BackwardSample
  // (M == 1, vectorized over in_features in the edge kernel) bit for bit.
  // GemmBias overwrites C, so no zero-fill is needed.
  GemmBias(batch, in_features_, out_features_, grad_pre->data(), out_features_,
           weight_.data(), in_features_, /*bias=*/nullptr, grad_input->data(),
           in_features_);
  float* gw = GradData(param_grads, 0);
  float* gb = GradData(param_grads, 1);
  if (gw == nullptr && gb == nullptr) {
    return;  // Input-only gradient mode: all dW/db work skipped.
  }
  // gt = grad_pre^T [out, batch]: row o is sample-major, giving both the
  // grad-weight GEMM its A matrix and the bias reduction contiguous reads.
  float* gt = ws->AcquireFlat(static_cast<int64_t>(out_features_) * batch)->data();
  TransposeMatrix(grad_pre->data(), batch, out_features_, gt);
  if (gw != nullptr) {
    // dW[o, i] = Σ_b gpre[b, o] · x[b, i]: GEMM against the input batch into
    // scratch, then one accumulate pass (param grads add into the caller's
    // running sum, so the GEMM cannot write them directly).
    float* gw_scratch =
        ws->AcquireFlat(static_cast<int64_t>(out_features_) * in_features_)->data();
    GemmBias(out_features_, in_features_, batch, gt, batch, input.data(), in_features_,
             /*bias=*/nullptr, gw_scratch, in_features_);
    const int64_t n = static_cast<int64_t>(out_features_) * in_features_;
    for (int64_t i = 0; i < n; ++i) {
      gw[i] += gw_scratch[i];
    }
  }
  if (gb != nullptr) {
    // db[o] = Σ_b gpre[b, o], accumulated in batch order — the exact adds of
    // the scalar Backward oracle, so the bias gradient stays bit-identical to it.
    for (int o = 0; o < out_features_; ++o) {
      const float* row = gt + static_cast<size_t>(o) * batch;
      for (int b = 0; b < batch; ++b) {
        gb[o] += row[b];
      }
    }
  }
}

float Dense::NeuronValue(ConstTensorView output, int index) const {
  if (index < 0 || index >= out_features_) {
    throw std::out_of_range("Dense::NeuronValue: bad neuron index");
  }
  return output[index];
}

void Dense::AddNeuronSeed(Tensor* seed, int index, float weight) const {
  seed->at(static_cast<int64_t>(index)) += weight;
}

void Dense::SerializeConfig(BinaryWriter& writer) const {
  writer.WriteI64(in_features_);
  writer.WriteI64(out_features_);
  writer.WriteString(ActivationName(act_));
}

}  // namespace dx
