#include "src/nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "src/nn/gemm.h"
#include "src/tensor/workspace.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace dx {
namespace {

int ConvOutExtent(int in, int kernel, int stride, int padding) {
  const int padded = in + 2 * padding - kernel;
  if (padded < 0) {
    throw std::invalid_argument("Conv2D: kernel larger than padded input");
  }
  return padded / stride + 1;
}

// Per-sample geometry shared by the scalar and batched kernels.
struct ConvGeom {
  int in_channels, out_channels, kernel_h, kernel_w, stride, padding;
  int in_h, in_w, out_h, out_w;
  int64_t in_size() const { return static_cast<int64_t>(in_channels) * in_h * in_w; }
  int64_t out_size() const { return static_cast<int64_t>(out_channels) * out_h * out_w; }
};

// The convolution proper for one sample (pre-activation): the scalar
// reference Forward.
void ConvForwardKernel(const ConvGeom& g, const float* px, const float* pw,
                       const float* pb, float* py) {
  for (int oc = 0; oc < g.out_channels; ++oc) {
    float* out_plane = py + static_cast<size_t>(oc) * g.out_h * g.out_w;
    const float* w_filter =
        pw + static_cast<size_t>(oc) * g.in_channels * g.kernel_h * g.kernel_w;
    const float b = pb[oc];
    for (int oy = 0; oy < g.out_h; ++oy) {
      for (int ox = 0; ox < g.out_w; ++ox) {
        out_plane[oy * g.out_w + ox] = b;
      }
    }
    for (int ic = 0; ic < g.in_channels; ++ic) {
      const float* in_plane = px + static_cast<size_t>(ic) * g.in_h * g.in_w;
      const float* w_plane = w_filter + static_cast<size_t>(ic) * g.kernel_h * g.kernel_w;
      for (int oy = 0; oy < g.out_h; ++oy) {
        const int iy0 = oy * g.stride - g.padding;
        for (int ky = 0; ky < g.kernel_h; ++ky) {
          const int iy = iy0 + ky;
          if (iy < 0 || iy >= g.in_h) {
            continue;
          }
          const float* in_row = in_plane + static_cast<size_t>(iy) * g.in_w;
          const float* w_row = w_plane + static_cast<size_t>(ky) * g.kernel_w;
          float* out_row = out_plane + static_cast<size_t>(oy) * g.out_w;
          for (int ox = 0; ox < g.out_w; ++ox) {
            const int ix0 = ox * g.stride - g.padding;
            float acc = 0.0f;
            for (int kx = 0; kx < g.kernel_w; ++kx) {
              const int ix = ix0 + kx;
              if (ix >= 0 && ix < g.in_w) {
                acc += w_row[kx] * in_row[ix];
              }
            }
            out_row[ox] += acc;
          }
        }
      }
    }
  }
}

// Per-sample gradient kernel (post-activation grad already folded into pg).
void ConvBackwardKernel(const ConvGeom& g, const float* px, const float* pw,
                        const float* pg, float* pgi, float* gw_base, float* gb) {
  for (int oc = 0; oc < g.out_channels; ++oc) {
    const float* g_plane = pg + static_cast<size_t>(oc) * g.out_h * g.out_w;
    const float* w_filter =
        pw + static_cast<size_t>(oc) * g.in_channels * g.kernel_h * g.kernel_w;
    float* gw_filter =
        gw_base != nullptr
            ? gw_base + static_cast<size_t>(oc) * g.in_channels * g.kernel_h * g.kernel_w
            : nullptr;
    if (gb != nullptr) {
      double acc = 0.0;
      for (int i = 0; i < g.out_h * g.out_w; ++i) {
        acc += g_plane[i];
      }
      gb[oc] += static_cast<float>(acc);
    }
    for (int ic = 0; ic < g.in_channels; ++ic) {
      const float* in_plane = px + static_cast<size_t>(ic) * g.in_h * g.in_w;
      const float* w_plane = w_filter + static_cast<size_t>(ic) * g.kernel_h * g.kernel_w;
      float* gi_plane = pgi + static_cast<size_t>(ic) * g.in_h * g.in_w;
      float* gw_plane =
          gw_filter != nullptr ? gw_filter + static_cast<size_t>(ic) * g.kernel_h * g.kernel_w
                               : nullptr;
      for (int oy = 0; oy < g.out_h; ++oy) {
        const int iy0 = oy * g.stride - g.padding;
        const float* g_row = g_plane + static_cast<size_t>(oy) * g.out_w;
        for (int ky = 0; ky < g.kernel_h; ++ky) {
          const int iy = iy0 + ky;
          if (iy < 0 || iy >= g.in_h) {
            continue;
          }
          const float* in_row = in_plane + static_cast<size_t>(iy) * g.in_w;
          float* gi_row = gi_plane + static_cast<size_t>(iy) * g.in_w;
          const float* w_row = w_plane + static_cast<size_t>(ky) * g.kernel_w;
          float* gw_row =
              gw_plane != nullptr ? gw_plane + static_cast<size_t>(ky) * g.kernel_w : nullptr;
          for (int ox = 0; ox < g.out_w; ++ox) {
            const float gv = g_row[ox];
            if (gv == 0.0f) {
              continue;
            }
            const int ix0 = ox * g.stride - g.padding;
            for (int kx = 0; kx < g.kernel_w; ++kx) {
              const int ix = ix0 + kx;
              if (ix < 0 || ix >= g.in_w) {
                continue;
              }
              gi_row[ix] += gv * w_row[kx];
              if (gw_row != nullptr) {
                gw_row[kx] += gv * in_row[ix];
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

Conv2D::Conv2D(int in_channels, int out_channels, int kernel_h, int kernel_w, int stride,
               int padding, Activation act)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_h_(kernel_h),
      kernel_w_(kernel_w),
      stride_(stride),
      padding_(padding),
      act_(act),
      weight_({out_channels, in_channels, kernel_h, kernel_w}),
      bias_({out_channels}) {
  if (in_channels <= 0 || out_channels <= 0 || kernel_h <= 0 || kernel_w <= 0 ||
      stride <= 0 || padding < 0) {
    throw std::invalid_argument("Conv2D: bad constructor arguments");
  }
}

void Conv2D::InitParams(Rng& rng, WeightInit init) {
  const float fan_in = static_cast<float>(in_channels_ * kernel_h_ * kernel_w_);
  const float fan_out = static_cast<float>(out_channels_ * kernel_h_ * kernel_w_);
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
      weight_ = Tensor::Randn(weight_.shape(), rng, 1.0f);
      const int64_t per_filter = static_cast<int64_t>(in_channels_) * kernel_h_ * kernel_w_;
      for (int o = 0; o < out_channels_; ++o) {
        float* f = weight_.data() + o * per_filter;
        double norm = 0.0;
        for (int64_t i = 0; i < per_filter; ++i) {
          norm += static_cast<double>(f[i]) * f[i];
        }
        const float inv = static_cast<float>(1.0 / std::max(1e-12, std::sqrt(norm)));
        for (int64_t i = 0; i < per_filter; ++i) {
          f[i] *= inv;
        }
      }
      break;
    }
  }
  bias_.Fill(0.0f);
}

std::string Conv2D::Describe() const {
  std::ostringstream out;
  out << "conv2d " << in_channels_ << "->" << out_channels_ << " k" << kernel_h_ << "x"
      << kernel_w_ << " s" << stride_ << " p" << padding_ << " " << ActivationName(act_);
  return out.str();
}

Shape Conv2D::OutputShape(const Shape& input_shape) const {
  if (input_shape.size() != 3 || input_shape[0] != in_channels_) {
    throw std::invalid_argument("Conv2D: expected CHW input with " +
                                std::to_string(in_channels_) + " channels, got " +
                                ShapeToString(input_shape));
  }
  return {out_channels_, ConvOutExtent(input_shape[1], kernel_h_, stride_, padding_),
          ConvOutExtent(input_shape[2], kernel_w_, stride_, padding_)};
}

Tensor Conv2D::Forward(const Tensor& input, bool /*training*/, Rng* /*rng*/,
                       Tensor* /*aux*/) const {
  const Shape out_shape = OutputShape(input.shape());
  const ConvGeom g{in_channels_, out_channels_, kernel_h_,    kernel_w_,
                   stride_,      padding_,      input.dim(1), input.dim(2),
                   out_shape[1], out_shape[2]};
  Tensor out(out_shape);
  ConvForwardKernel(g, input.data(), weight_.data(), bias_.data(), out.data());
  ApplyActivation(act_, &out);
  return out;
}

void Conv2D::ForwardBatchInto(const Tensor& input, int batch, bool /*training*/,
                              Rng* /*rng*/, Tensor* output, Tensor* /*aux*/,
                              Workspace* ws) const {
  if (input.ndim() != 4 || input.dim(0) != batch || output->ndim() != 4) {
    throw std::invalid_argument("Conv2D::ForwardBatchInto: expected [B, C, H, W] tensors");
  }
  // Geometry comes from the caller-sized tensors directly — constructing
  // Shape objects here would allocate on every hot-loop call.
  const ConvGeom g{in_channels_,    out_channels_,   kernel_h_,    kernel_w_,
                   stride_,         padding_,        input.dim(2), input.dim(3),
                   output->dim(2),  output->dim(3)};
  // im2col + GEMM: weights [OC, IC*KH*KW] are already the A matrix row-major;
  // each sample's patches unpack into B = [IC*KH*KW, OH*OW] in the arena.
  // The GEMM contract (ascending-k FMA per element, partitioning only over
  // rows/samples) keeps results invariant to batch width, SIMD width, and
  // thread count; they differ from the scalar oracle only by accumulation
  // order, within test tolerances.
  const int64_t patch_k = static_cast<int64_t>(g.in_channels) * g.kernel_h * g.kernel_w;
  const int64_t patch_n = static_cast<int64_t>(g.out_h) * g.out_w;
  float* col = ws->AcquireFlat(patch_k * patch_n * batch)->data();
  const auto run_sample = [&](int64_t b) {
    float* col_b = col + static_cast<size_t>(b) * patch_k * patch_n;
    Im2Col(input.data() + static_cast<size_t>(b) * g.in_size(), g.in_channels, g.in_h,
           g.in_w, g.kernel_h, g.kernel_w, g.stride, g.padding, g.out_h, g.out_w, col_b);
    GemmBias(g.out_channels, static_cast<int>(patch_n), static_cast<int>(patch_k),
             weight_.data(), static_cast<int>(patch_k), col_b, static_cast<int>(patch_n),
             bias_.data(), output->data() + static_cast<size_t>(b) * g.out_size(),
             static_cast<int>(patch_n));
  };
  const int64_t work_per_sample = static_cast<int64_t>(g.out_channels) * patch_k * patch_n;
  if (batch > 1 && work_per_sample * batch >= (int64_t{1} << 20) &&
      IntraOpParallelismAvailable()) {
    // Samples are independent; nested GemmBias calls see InParallelRegion()
    // and stay serial, so parallelism never exceeds the pool size.
    ParallelFor(batch, run_sample);
  } else {
    for (int b = 0; b < batch; ++b) {
      run_sample(b);
    }
  }
  ApplyActivation(act_, output);
}

Tensor Conv2D::Backward(const Tensor& input, const Tensor& output, const Tensor& grad_output,
                        const Tensor& /*aux*/, std::vector<Tensor>* param_grads) const {
  Tensor grad_pre = grad_output;
  ApplyActivationGrad(act_, output, &grad_pre);
  const ConvGeom g{in_channels_, out_channels_, kernel_h_,     kernel_w_,
                   stride_,      padding_,      input.dim(1),  input.dim(2),
                   output.dim(1), output.dim(2)};
  Tensor grad_in(input.shape());
  CheckParamGrads(param_grads, "Conv2D::Backward");
  ConvBackwardKernel(g, input.data(), weight_.data(), grad_pre.data(), grad_in.data(),
                     GradData(param_grads, 0), GradData(param_grads, 1));
  return grad_in;
}

void Conv2D::BackwardBatchInto(const Tensor& input, const Tensor& output,
                               const Tensor& grad_output, const Tensor& /*aux*/, int batch,
                               Tensor* grad_input, Workspace* ws,
                               std::vector<Tensor>* param_grads) const {
  CheckParamGrads(param_grads, "Conv2D::BackwardBatchInto");
  const ConvGeom g{in_channels_, out_channels_, kernel_h_,     kernel_w_,
                   stride_,      padding_,      input.dim(2),  input.dim(3),
                   output.dim(2), output.dim(3)};
  Tensor* grad_pre = ws->Acquire(output.shape());
  std::copy(grad_output.data(), grad_output.data() + grad_output.numel(),
            grad_pre->data());
  ApplyActivationGrad(act_, output, grad_pre);
  // Grad-input through the kernel layer, mirroring the forward im2col+GEMM:
  // per sample, gcol = W^T · grad_pre (one ascending-oc FMA chain per patch
  // element), then Col2Im scatter-accumulates the column matrix back into
  // image geometry in a fixed order. Per-sample results never depend on the
  // batch, and threading (below) partitions only over samples, so gradients
  // are bit-identical across batch widths, SIMD backends, and thread counts.
  const int64_t patch_k = static_cast<int64_t>(g.in_channels) * g.kernel_h * g.kernel_w;
  const int64_t patch_n = static_cast<int64_t>(g.out_h) * g.out_w;
  float* wt = ws->AcquireFlat(patch_k * g.out_channels)->data();
  TransposeMatrix(weight_.data(), g.out_channels, static_cast<int>(patch_k), wt);
  float* gcol = ws->AcquireFlat(patch_k * patch_n * batch)->data();
  const auto run_sample = [&](int64_t b) {
    float* gcol_b = gcol + static_cast<size_t>(b) * patch_k * patch_n;
    GemmBias(static_cast<int>(patch_k), static_cast<int>(patch_n), g.out_channels, wt,
             g.out_channels, grad_pre->data() + static_cast<size_t>(b) * g.out_size(),
             static_cast<int>(patch_n), /*bias=*/nullptr, gcol_b,
             static_cast<int>(patch_n));
    Col2Im(gcol_b, g.in_channels, g.in_h, g.in_w, g.kernel_h, g.kernel_w, g.stride,
           g.padding, g.out_h, g.out_w,
           grad_input->data() + static_cast<size_t>(b) * g.in_size());
  };
  const int64_t work_per_sample = static_cast<int64_t>(g.out_channels) * patch_k * patch_n;
  if (batch > 1 && work_per_sample * batch >= (int64_t{1} << 20) &&
      IntraOpParallelismAvailable()) {
    // Samples write disjoint grad_input regions; nested GemmBias calls see
    // InParallelRegion() and stay serial, exactly like the forward path.
    ParallelFor(batch, run_sample);
  } else {
    for (int b = 0; b < batch; ++b) {
      run_sample(b);
    }
  }
  float* gw = GradData(param_grads, 0);
  float* gb = GradData(param_grads, 1);
  if (gw == nullptr && gb == nullptr) {
    return;  // Input-only gradient mode: all dW/db work skipped.
  }
  if (gw != nullptr) {
    // dW = Σ_b grad_pre_b · Im2Col(x_b)^T, one GEMM per sample into scratch,
    // accumulated in batch order (param grads add into the caller's running
    // sum; the cross-sample reduction is why this stage stays serial).
    float* colx = ws->AcquireFlat(patch_k * patch_n)->data();
    float* colxt = ws->AcquireFlat(patch_n * patch_k)->data();
    float* gw_scratch = ws->AcquireFlat(static_cast<int64_t>(g.out_channels) * patch_k)->data();
    const int64_t n = static_cast<int64_t>(g.out_channels) * patch_k;
    for (int b = 0; b < batch; ++b) {
      Im2Col(input.data() + static_cast<size_t>(b) * g.in_size(), g.in_channels, g.in_h,
             g.in_w, g.kernel_h, g.kernel_w, g.stride, g.padding, g.out_h, g.out_w, colx);
      TransposeMatrix(colx, static_cast<int>(patch_k), static_cast<int>(patch_n), colxt);
      GemmBias(g.out_channels, static_cast<int>(patch_k), static_cast<int>(patch_n),
               grad_pre->data() + static_cast<size_t>(b) * g.out_size(),
               static_cast<int>(patch_n), colxt, static_cast<int>(patch_k),
               /*bias=*/nullptr, gw_scratch, static_cast<int>(patch_k));
      for (int64_t i = 0; i < n; ++i) {
        gw[i] += gw_scratch[i];
      }
    }
  }
  if (gb != nullptr) {
    // db[oc] = Σ_b Σ_plane grad_pre: per-sample double plane sums in batch
    // order — the exact reduction of the scalar Backward oracle, so the bias
    // gradient stays bit-identical to it.
    for (int b = 0; b < batch; ++b) {
      const float* pre_b = grad_pre->data() + static_cast<size_t>(b) * g.out_size();
      for (int oc = 0; oc < g.out_channels; ++oc) {
        const float* plane = pre_b + static_cast<size_t>(oc) * patch_n;
        double acc = 0.0;
        for (int64_t i = 0; i < patch_n; ++i) {
          acc += plane[i];
        }
        gb[oc] += static_cast<float>(acc);
      }
    }
  }
}

float Conv2D::NeuronValue(const Tensor& output, int index) const {
  if (index < 0 || index >= out_channels_) {
    throw std::out_of_range("Conv2D::NeuronValue: bad neuron index");
  }
  const int plane = output.dim(1) * output.dim(2);
  const float* p = output.data() + static_cast<size_t>(index) * plane;
  double acc = 0.0;
  for (int i = 0; i < plane; ++i) {
    acc += p[i];
  }
  return static_cast<float>(acc / plane);
}

void Conv2D::AddNeuronSeed(Tensor* seed, int index, float weight) const {
  if (index < 0 || index >= out_channels_) {
    throw std::out_of_range("Conv2D::AddNeuronSeed: bad neuron index");
  }
  const int plane = seed->dim(1) * seed->dim(2);
  float* p = seed->data() + static_cast<size_t>(index) * plane;
  const float w = weight / static_cast<float>(plane);
  for (int i = 0; i < plane; ++i) {
    p[i] += w;
  }
}

void Conv2D::SerializeConfig(BinaryWriter& writer) const {
  writer.WriteI64(in_channels_);
  writer.WriteI64(out_channels_);
  writer.WriteI64(kernel_h_);
  writer.WriteI64(kernel_w_);
  writer.WriteI64(stride_);
  writer.WriteI64(padding_);
  writer.WriteString(ActivationName(act_));
}

}  // namespace dx
