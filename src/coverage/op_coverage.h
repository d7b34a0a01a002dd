// "Code coverage" analog for Table 6.
//
// The paper measures Python line coverage of the DNN inference code and shows
// that a single input already executes 100% of it. Our inference interpreter
// is the ExecutionPlan's chain of layer forward kernels; OpCoverage assigns
// each layer a fixed set of statement sites (proportional to the complexity
// of its forward routine) and marks a layer's sites executed whenever an
// input flows through it —
// faithfully reproducing the phenomenon that code coverage saturates
// immediately while neuron coverage does not.
#ifndef DX_SRC_COVERAGE_OP_COVERAGE_H_
#define DX_SRC_COVERAGE_OP_COVERAGE_H_

#include <vector>

#include "src/nn/model.h"

namespace dx {

class OpCoverage {
 public:
  explicit OpCoverage(const Model& model);

  // Marks all statement sites executed by running `input` through the model.
  void RecordForward(const Model& model, const Tensor& input);

  int total_sites() const { return total_; }
  int covered_sites() const;
  float Coverage() const;

 private:
  static int SitesForKind(const std::string& kind);

  std::vector<int> layer_sites_;
  std::vector<bool> covered_;
  int total_ = 0;
};

}  // namespace dx

#endif  // DX_SRC_COVERAGE_OP_COVERAGE_H_
