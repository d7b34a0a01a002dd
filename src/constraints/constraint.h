// Domain-specific constraints (paper §4.2 / §6.2).
//
// A constraint rewrites the raw joint-optimization gradient into a valid
// update direction (Algorithm 1 line 13, DOMAIN_CONSTRNTS) and projects the
// input back onto the valid domain after each gradient-ascent step, so every
// intermediate x_i remains a realistic input.
#ifndef DX_SRC_CONSTRAINTS_CONSTRAINT_H_
#define DX_SRC_CONSTRAINTS_CONSTRAINT_H_

#include <memory>
#include <string>

#include "src/tensor/tensor.h"

namespace dx {

class Rng;

class Constraint {
 public:
  virtual ~Constraint() = default;

  virtual std::string name() const = 0;

  // Maps the raw gradient to a constrained update direction, written into
  // `*direction`, which the caller has pre-shaped like `grad`; every element
  // is overwritten. `x` is the current input; `rng` supports stochastic
  // placement choices. The executor reuses one direction buffer across
  // iterations, so the built-in constraints allocate nothing.
  virtual void ApplyInto(const Tensor& grad, const Tensor& x, Rng& rng,
                         Tensor* direction) const = 0;

  // Projects x onto the valid input domain after x += s * direction.
  // Default: clamp to [0, 1] (valid for all image domains).
  virtual void ProjectInput(Tensor* x) const;
};

// Identity constraint (clamps to [0,1] only); useful as a baseline.
class UnconstrainedImage : public Constraint {
 public:
  std::string name() const override { return "unconstrained"; }
  void ApplyInto(const Tensor& grad, const Tensor& x, Rng& rng,
                 Tensor* direction) const override;
};

}  // namespace dx

#endif  // DX_SRC_CONSTRAINTS_CONSTRAINT_H_
