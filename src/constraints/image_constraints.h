// The three image constraints of §6.2.
//
//  1. Lighting: every pixel moves by the same signed amount, direction given
//     by sign(mean(G)) — simulates uniform darkening/brightening.
//  2. Occlusion: the gradient is applied only inside a single m x n rectangle
//     R; DeepXplore is free to place R anywhere, so ApplyInto picks the
//     position with the largest gradient mass (an effective instantiation of
//     the paper's "any arbitrary position").
//  3. BlackRects: several tiny m x m patches ("dirt on the lens"); within each
//     selected patch the gradient is kept only if its mean is negative, i.e.
//     pixel values may only decrease.
//
// All three inherit the [0, 1] pixel-range projection.
#ifndef DX_SRC_CONSTRAINTS_IMAGE_CONSTRAINTS_H_
#define DX_SRC_CONSTRAINTS_IMAGE_CONSTRAINTS_H_

#include <string>

#include "src/constraints/constraint.h"

namespace dx {

class LightingConstraint : public Constraint {
 public:
  std::string name() const override { return "light"; }
  void ApplyInto(const Tensor& grad, const Tensor& x, Rng& rng,
                 Tensor* direction) const override;
};

class OcclusionConstraint : public Constraint {
 public:
  // How the rectangle position is chosen each iteration. The paper lets
  // DeepXplore place the rectangle anywhere; kMaxGradientMass realizes that
  // freedom greedily, kRandom re-samples a position per iteration (used by
  // the placement ablation bench).
  enum class Placement { kMaxGradientMass, kRandom };

  // Rectangle of height x width pixels (applied to CHW images).
  OcclusionConstraint(int height, int width,
                      Placement placement = Placement::kMaxGradientMass);
  std::string name() const override { return "occl"; }
  // Allocation-free in steady state (the gradient-mass prefix sums live in
  // thread-local scratch that is reused across iterations).
  void ApplyInto(const Tensor& grad, const Tensor& x, Rng& rng,
                 Tensor* direction) const override;

 private:
  int rect_h_;
  int rect_w_;
  Placement placement_;
};

class BlackRectsConstraint : public Constraint {
 public:
  // `count` patches of `size` x `size` pixels, re-sampled each iteration.
  BlackRectsConstraint(int count, int size);
  std::string name() const override { return "blackout"; }
  void ApplyInto(const Tensor& grad, const Tensor& x, Rng& rng,
                 Tensor* direction) const override;

 private:
  int count_;
  int size_;
};

}  // namespace dx

#endif  // DX_SRC_CONSTRAINTS_IMAGE_CONSTRAINTS_H_
