// Per-feature box constraints for flat feature-vector domains.
//
// Generalizes the malware-domain feature rules (§6.2) into a reusable
// constraint any tabular domain can parameterize: every feature carries a
// [lo, hi] box in normalized input space plus a frozen flag. ApplyInto zeroes
// the gradient of frozen features and of features already saturated at the
// box edge in the gradient's direction; ProjectInput clamps each feature to
// its box. Both operations are idempotent (certified per domain by
// tests/domain_conformance_test.cc).
#ifndef DX_SRC_CONSTRAINTS_TABULAR_CONSTRAINTS_H_
#define DX_SRC_CONSTRAINTS_TABULAR_CONSTRAINTS_H_

#include <string>
#include <utility>
#include <vector>

#include "src/constraints/constraint.h"

namespace dx {

struct FeatureBox {
  float lo = 0.0f;      // Normalized-space lower bound.
  float hi = 1.0f;      // Normalized-space upper bound.
  bool frozen = false;  // Feature may not change at all.
};

class FeatureBoxConstraint : public Constraint {
 public:
  // One box per feature of the (flat) input; `name` is the Constraint::name.
  FeatureBoxConstraint(std::vector<FeatureBox> boxes, std::string name = "feature-box");

  std::string name() const override { return name_; }
  void ApplyInto(const Tensor& grad, const Tensor& x, Rng& rng,
                 Tensor* direction) const override;
  // Clamps each feature to its box.
  void ProjectInput(Tensor* x) const override;

 private:
  std::vector<FeatureBox> boxes_;
  std::string name_;
};

}  // namespace dx

#endif  // DX_SRC_CONSTRAINTS_TABULAR_CONSTRAINTS_H_
