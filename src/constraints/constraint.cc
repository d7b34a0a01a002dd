#include "src/constraints/constraint.h"

#include <algorithm>

namespace dx {

void Constraint::ProjectInput(Tensor* x) const { x->ClampInPlace(0.0f, 1.0f); }

void UnconstrainedImage::ApplyInto(const Tensor& grad, const Tensor& /*x*/, Rng& /*rng*/,
                                   Tensor* direction) const {
  std::copy(grad.data(), grad.data() + grad.numel(), direction->data());
}

}  // namespace dx
