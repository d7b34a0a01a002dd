#include "src/constraints/tabular_constraints.h"

#include <algorithm>
#include <stdexcept>

namespace dx {

FeatureBoxConstraint::FeatureBoxConstraint(std::vector<FeatureBox> boxes, std::string name)
    : boxes_(std::move(boxes)), name_(std::move(name)) {
  if (boxes_.empty()) {
    throw std::invalid_argument("FeatureBoxConstraint: empty box list");
  }
  for (const FeatureBox& box : boxes_) {
    if (!(box.lo <= box.hi)) {
      throw std::invalid_argument("FeatureBoxConstraint: box with lo > hi");
    }
  }
}

void FeatureBoxConstraint::ApplyInto(const Tensor& grad, const Tensor& x, Rng& /*rng*/,
                                     Tensor* direction) const {
  if (grad.numel() != static_cast<int64_t>(boxes_.size())) {
    throw std::invalid_argument("FeatureBoxConstraint: wrong feature count");
  }
  Tensor& out = *direction;
  std::copy(grad.data(), grad.data() + grad.numel(), out.data());
  for (size_t f = 0; f < boxes_.size(); ++f) {
    const FeatureBox& box = boxes_[f];
    const int64_t i = static_cast<int64_t>(f);
    if (box.frozen) {
      out[i] = 0.0f;
      continue;
    }
    // A feature saturated at a box edge cannot move further outward.
    if ((out[i] > 0.0f && x[i] >= box.hi) || (out[i] < 0.0f && x[i] <= box.lo)) {
      out[i] = 0.0f;
    }
  }
}

void FeatureBoxConstraint::ProjectInput(Tensor* x) const {
  if (x->numel() != static_cast<int64_t>(boxes_.size())) {
    throw std::invalid_argument("FeatureBoxConstraint: wrong feature count");
  }
  for (size_t f = 0; f < boxes_.size(); ++f) {
    const int64_t i = static_cast<int64_t>(f);
    (*x)[i] = std::clamp((*x)[i], boxes_[f].lo, boxes_[f].hi);
  }
}

}  // namespace dx
