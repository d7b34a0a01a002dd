#include "src/constraints/image_constraints.h"

#include <cmath>
#include <stdexcept>

#include "src/util/rng.h"

namespace dx {
namespace {

void CheckChw(const Tensor& t, const char* who) {
  if (t.ndim() != 3) {
    throw std::invalid_argument(std::string(who) + ": expected CHW image, got " +
                                ShapeToString(t.shape()));
  }
}

}  // namespace

void LightingConstraint::ApplyInto(const Tensor& grad, const Tensor& /*x*/, Rng& /*rng*/,
                                   Tensor* direction) const {
  direction->Fill(grad.Mean() >= 0.0f ? 1.0f : -1.0f);
}

OcclusionConstraint::OcclusionConstraint(int height, int width, Placement placement)
    : rect_h_(height), rect_w_(width), placement_(placement) {
  if (height <= 0 || width <= 0) {
    throw std::invalid_argument("OcclusionConstraint: rectangle must be non-empty");
  }
}

void OcclusionConstraint::ApplyInto(const Tensor& grad, const Tensor& /*x*/, Rng& rng,
                                    Tensor* direction) const {
  CheckChw(grad, "OcclusionConstraint");
  const int channels = grad.dim(0);
  const int h = grad.dim(1);
  const int w = grad.dim(2);
  if (rect_h_ > h || rect_w_ > w) {
    throw std::invalid_argument("OcclusionConstraint: rectangle larger than image");
  }
  Tensor& out = *direction;
  if (placement_ == Placement::kRandom) {
    const int y0 = static_cast<int>(rng.UniformInt(0, h - rect_h_));
    const int x0 = static_cast<int>(rng.UniformInt(0, w - rect_w_));
    out.Fill(0.0f);
    for (int c = 0; c < channels; ++c) {
      for (int y = y0; y < y0 + rect_h_; ++y) {
        for (int xx = x0; xx < x0 + rect_w_; ++xx) {
          const int64_t idx = (static_cast<int64_t>(c) * h + y) * w + xx;
          out[idx] = grad[idx];
        }
      }
    }
    return;
  }
  // Place the rectangle where the gradient has the largest L1 mass: the
  // position DeepXplore is "free to choose" that maximizes progress.
  // Column-prefix sums of per-pixel |grad| summed over channels. The scratch
  // is thread-local (constraints are shared, const, across workers) and
  // reused across iterations, so the steady state stays allocation-free.
  static thread_local std::vector<double> mass;
  static thread_local std::vector<double> prefix;
  mass.assign(static_cast<size_t>(h) * w, 0.0);
  for (int c = 0; c < channels; ++c) {
    for (int y = 0; y < h; ++y) {
      for (int xx = 0; xx < w; ++xx) {
        mass[static_cast<size_t>(y) * w + xx] +=
            std::abs(grad[(static_cast<int64_t>(c) * h + y) * w + xx]);
      }
    }
  }
  // 2-D prefix sums for O(1) window queries.
  prefix.assign(static_cast<size_t>(h + 1) * (w + 1), 0.0);
  for (int y = 0; y < h; ++y) {
    for (int xx = 0; xx < w; ++xx) {
      prefix[static_cast<size_t>(y + 1) * (w + 1) + (xx + 1)] =
          mass[static_cast<size_t>(y) * w + xx] +
          prefix[static_cast<size_t>(y) * (w + 1) + (xx + 1)] +
          prefix[static_cast<size_t>(y + 1) * (w + 1) + xx] -
          prefix[static_cast<size_t>(y) * (w + 1) + xx];
    }
  }
  int best_y = 0;
  int best_x = 0;
  double best = -1.0;
  for (int y = 0; y + rect_h_ <= h; ++y) {
    for (int xx = 0; xx + rect_w_ <= w; ++xx) {
      const double window =
          prefix[static_cast<size_t>(y + rect_h_) * (w + 1) + (xx + rect_w_)] -
          prefix[static_cast<size_t>(y) * (w + 1) + (xx + rect_w_)] -
          prefix[static_cast<size_t>(y + rect_h_) * (w + 1) + xx] +
          prefix[static_cast<size_t>(y) * (w + 1) + xx];
      if (window > best) {
        best = window;
        best_y = y;
        best_x = xx;
      }
    }
  }
  out.Fill(0.0f);
  for (int c = 0; c < channels; ++c) {
    for (int y = best_y; y < best_y + rect_h_; ++y) {
      for (int xx = best_x; xx < best_x + rect_w_; ++xx) {
        const int64_t idx = (static_cast<int64_t>(c) * h + y) * w + xx;
        out[idx] = grad[idx];
      }
    }
  }
}

BlackRectsConstraint::BlackRectsConstraint(int count, int size)
    : count_(count), size_(size) {
  if (count <= 0 || size <= 0) {
    throw std::invalid_argument("BlackRectsConstraint: bad count/size");
  }
}

void BlackRectsConstraint::ApplyInto(const Tensor& grad, const Tensor& /*x*/, Rng& rng,
                                     Tensor* direction) const {
  CheckChw(grad, "BlackRectsConstraint");
  const int channels = grad.dim(0);
  const int h = grad.dim(1);
  const int w = grad.dim(2);
  if (size_ > h || size_ > w) {
    throw std::invalid_argument("BlackRectsConstraint: patch larger than image");
  }
  Tensor& out = *direction;
  out.Fill(0.0f);
  for (int k = 0; k < count_; ++k) {
    const int y0 = static_cast<int>(rng.UniformInt(0, h - size_));
    const int x0 = static_cast<int>(rng.UniformInt(0, w - size_));
    // Mean gradient over the patch (all channels).
    double mean = 0.0;
    for (int c = 0; c < channels; ++c) {
      for (int y = y0; y < y0 + size_; ++y) {
        for (int xx = x0; xx < x0 + size_; ++xx) {
          mean += grad[(static_cast<int64_t>(c) * h + y) * w + xx];
        }
      }
    }
    // Pixel values may only decrease (dirt is dark): skip brightening patches.
    if (mean >= 0.0) {
      continue;
    }
    for (int c = 0; c < channels; ++c) {
      for (int y = y0; y < y0 + size_; ++y) {
        for (int xx = x0; xx < x0 + size_; ++xx) {
          const int64_t idx = (static_cast<int64_t>(c) * h + y) * w + xx;
          out[idx] = grad[idx];
        }
      }
    }
  }
}

}  // namespace dx
