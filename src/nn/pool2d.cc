#include "src/nn/pool2d.h"

#include <limits>
#include <sstream>
#include <stdexcept>

namespace dx {
namespace {

struct PoolGeom {
  int channels, in_h, in_w, out_h, out_w, kernel, stride;
  int64_t in_size() const { return static_cast<int64_t>(channels) * in_h * in_w; }
  int64_t out_size() const { return static_cast<int64_t>(channels) * out_h * out_w; }
};

// One sample's pooling pass; paux (max mode) receives sample-relative flat
// input offsets. Shared by the scalar and batched paths.
void PoolForwardKernel(const PoolGeom& g, PoolMode mode, const float* px, float* py,
                       float* paux) {
  for (int c = 0; c < g.channels; ++c) {
    const float* in_plane = px + static_cast<size_t>(c) * g.in_h * g.in_w;
    for (int oy = 0; oy < g.out_h; ++oy) {
      for (int ox = 0; ox < g.out_w; ++ox) {
        const int iy0 = oy * g.stride;
        const int ix0 = ox * g.stride;
        const int64_t out_idx = (static_cast<int64_t>(c) * g.out_h + oy) * g.out_w + ox;
        if (mode == PoolMode::kMax) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_idx = 0;
          for (int ky = 0; ky < g.kernel; ++ky) {
            for (int kx = 0; kx < g.kernel; ++kx) {
              const int64_t idx = static_cast<int64_t>(iy0 + ky) * g.in_w + (ix0 + kx);
              const float v = in_plane[idx];
              if (v > best) {
                best = v;
                best_idx = static_cast<int64_t>(c) * g.in_h * g.in_w + idx;
              }
            }
          }
          py[out_idx] = best;
          paux[out_idx] = static_cast<float>(best_idx);
        } else {
          double acc = 0.0;
          for (int ky = 0; ky < g.kernel; ++ky) {
            for (int kx = 0; kx < g.kernel; ++kx) {
              acc += in_plane[static_cast<size_t>(iy0 + ky) * g.in_w + (ix0 + kx)];
            }
          }
          py[out_idx] = static_cast<float>(acc / (g.kernel * g.kernel));
        }
      }
    }
  }
}

// Routes max-pool gradients through the argmax offsets cached in the forward
// aux slab — no window re-scan in the backward. Requires pgi pre-zeroed.
void PoolBackwardKernel(const PoolGeom& g, PoolMode mode, const float* pg,
                        const float* paux, float* pgi) {
  if (mode == PoolMode::kMax) {
    for (int64_t i = 0; i < g.out_size(); ++i) {
      pgi[static_cast<int64_t>(paux[i])] += pg[i];
    }
    return;
  }
  const float scale = 1.0f / static_cast<float>(g.kernel * g.kernel);
  // Non-overlapping windows (stride >= kernel, the common pooling config):
  // each input cell belongs to at most one window, so the scatter-add
  // degenerates to a direct store. Bit-identical to accumulating into the
  // pre-zeroed buffer (+0 and -0 compare equal everywhere we care), but the
  // compiler can emit wide stores with no read-modify-write dependency.
  const bool disjoint = g.stride >= g.kernel;
  for (int c = 0; c < g.channels; ++c) {
    float* gi_plane = pgi + static_cast<size_t>(c) * g.in_h * g.in_w;
    const float* go_plane = pg + static_cast<size_t>(c) * g.out_h * g.out_w;
    for (int oy = 0; oy < g.out_h; ++oy) {
      for (int ox = 0; ox < g.out_w; ++ox) {
        const float gv = go_plane[static_cast<size_t>(oy) * g.out_w + ox] * scale;
        for (int ky = 0; ky < g.kernel; ++ky) {
          float* gi_row =
              gi_plane + static_cast<size_t>(oy * g.stride + ky) * g.in_w + ox * g.stride;
          if (disjoint) {
            for (int kx = 0; kx < g.kernel; ++kx) {
              gi_row[kx] = gv;
            }
          } else {
            for (int kx = 0; kx < g.kernel; ++kx) {
              gi_row[kx] += gv;
            }
          }
        }
      }
    }
  }
}

}  // namespace

Pool2D::Pool2D(PoolMode mode, int kernel, int stride)
    : mode_(mode), kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
  if (kernel <= 0 || stride_ <= 0) {
    throw std::invalid_argument("Pool2D: kernel and stride must be positive");
  }
}

std::string Pool2D::Describe() const {
  std::ostringstream out;
  out << (mode_ == PoolMode::kMax ? "maxpool" : "avgpool") << " k" << kernel_ << " s"
      << stride_;
  return out.str();
}

Shape Pool2D::OutputShape(const Shape& input_shape) const {
  if (input_shape.size() != 3) {
    throw std::invalid_argument("Pool2D: expected CHW input, got " +
                                ShapeToString(input_shape));
  }
  if (input_shape[1] < kernel_ || input_shape[2] < kernel_) {
    throw std::invalid_argument("Pool2D: kernel larger than input");
  }
  const int out_h = (input_shape[1] - kernel_) / stride_ + 1;
  const int out_w = (input_shape[2] - kernel_) / stride_ + 1;
  return {input_shape[0], out_h, out_w};
}

Tensor Pool2D::Forward(const Tensor& input, bool /*training*/, Rng* /*rng*/,
                       Tensor* aux) const {
  const Shape out_shape = OutputShape(input.shape());
  const PoolGeom g{out_shape[0], input.dim(1), input.dim(2),
                   out_shape[1], out_shape[2], kernel_,      stride_};
  Tensor out(out_shape);
  Tensor argmax;
  if (mode_ == PoolMode::kMax) {
    argmax = Tensor(out_shape);  // Flat input offsets of winners, stored as float.
  }
  PoolForwardKernel(g, mode_, input.data(), out.data(),
                    mode_ == PoolMode::kMax ? argmax.data() : nullptr);
  if (aux != nullptr && mode_ == PoolMode::kMax) {
    *aux = std::move(argmax);
  }
  return out;
}

void Pool2D::ForwardBatchInto(const Tensor& input, int batch, bool /*training*/,
                              Rng* /*rng*/, Tensor* output, Tensor* aux,
                              Workspace* /*ws*/) const {
  if (input.ndim() != 4 || input.dim(0) != batch || output->ndim() != 4) {
    throw std::invalid_argument("Pool2D::ForwardBatchInto: expected [B, C, H, W] tensors");
  }
  // Geometry from the caller-sized tensors — no Shape construction per call.
  const PoolGeom g{output->dim(1), input.dim(2),   input.dim(3),
                   output->dim(2), output->dim(3), kernel_,      stride_};
  float* paux = nullptr;
  if (mode_ == PoolMode::kMax) {
    if (aux->shape() != output->shape()) {  // Steady state: shapes match, no-op.
      aux->ResizeInPlace(output->shape());
    }
    paux = aux->data();
  }
  for (int b = 0; b < batch; ++b) {
    PoolForwardKernel(g, mode_, input.data() + static_cast<size_t>(b) * g.in_size(),
                      output->data() + static_cast<size_t>(b) * g.out_size(),
                      paux != nullptr ? paux + static_cast<size_t>(b) * g.out_size()
                                      : nullptr);
  }
}

Tensor Pool2D::Backward(const Tensor& input, const Tensor& output, const Tensor& grad_output,
                        const Tensor& aux, std::vector<Tensor>* /*param_grads*/) const {
  Tensor grad_in(input.shape());
  if (mode_ == PoolMode::kMax && aux.numel() != output.numel()) {
    throw std::invalid_argument("Pool2D::Backward: missing argmax aux tensor");
  }
  const PoolGeom g{input.dim(0), input.dim(1), input.dim(2),
                   output.dim(1), output.dim(2), kernel_,    stride_};
  PoolBackwardKernel(g, mode_, grad_output.data(), aux.data(), grad_in.data());
  return grad_in;
}

void Pool2D::BackwardBatchInto(const Tensor& input, const Tensor& output,
                               const Tensor& grad_output, const Tensor& aux, int batch,
                               Tensor* grad_input, Workspace* /*ws*/,
                               std::vector<Tensor>* /*param_grads*/) const {
  if (mode_ == PoolMode::kMax && aux.numel() != output.numel()) {
    throw std::invalid_argument("Pool2D::BackwardBatchInto: missing argmax aux tensor");
  }
  const PoolGeom g{input.dim(1), input.dim(2), input.dim(3),
                   output.dim(2), output.dim(3), kernel_,    stride_};
  std::fill(grad_input->data(), grad_input->data() + grad_input->numel(), 0.0f);
  for (int b = 0; b < batch; ++b) {
    PoolBackwardKernel(
        g, mode_, grad_output.data() + static_cast<size_t>(b) * g.out_size(),
        mode_ == PoolMode::kMax ? aux.data() + static_cast<size_t>(b) * g.out_size()
                                : nullptr,
        grad_input->data() + static_cast<size_t>(b) * g.in_size());
  }
}

void Pool2D::SerializeConfig(BinaryWriter& writer) const {
  writer.WriteI64(static_cast<int64_t>(mode_));
  writer.WriteI64(kernel_);
  writer.WriteI64(stride_);
}

}  // namespace dx
