// Neuron coverage (paper §4.1): the fraction of neurons whose scaled output
// exceeded threshold t for at least one test input.
//
// Neuron values follow the reference implementation: one neuron per Dense
// unit, one per Conv2D/Residual output channel (spatial mean). Per §7.1,
// neuron outputs are min-max scaled to [0, 1] *within each layer* before
// thresholding (scaling can be disabled for raw-activation experiments such
// as Table 2's t = 0 runs).
//
// This is the "neuron" implementation of the CoverageMetric interface (see
// coverage_metric.h for the contract and the factory).
#ifndef DX_SRC_COVERAGE_NEURON_COVERAGE_H_
#define DX_SRC_COVERAGE_NEURON_COVERAGE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/coverage/coverage_metric.h"
#include "src/nn/model.h"

namespace dx {

class Rng;

class NeuronCoverageTracker : public NeuronValueMetric {
 public:
  NeuronCoverageTracker(const Model& model, CoverageOptions options);

  std::string name() const override { return "neuron"; }

  // Marks every neuron activated by any sample of this trace.
  void UpdateBatch(const Model& model, const BatchTrace& trace) override;

  int covered_neurons() const;
  int total_items() const override { return total_neurons(); }
  int covered_items() const override { return covered_neurons(); }
  float Coverage() const override;
  bool IsCovered(const NeuronId& id) const;

  // Uniformly random uncovered neuron; false when fully covered.
  bool PickUncovered(Rng& rng, NeuronId* id) const override;

  void Merge(const CoverageMetric& other) override;
  std::unique_ptr<CoverageMetric> Clone() const override;

  void Serialize(BinaryWriter& writer) const override;
  void Deserialize(BinaryReader& reader) override;

  // Activated neuron ids for sample `b` of `trace` (used by the Table 7
  // overlap experiment).
  std::vector<NeuronId> Activated(const Model& model, const BatchTrace& trace, int b) const;

 private:
  std::vector<bool> covered_;
};

}  // namespace dx

#endif  // DX_SRC_COVERAGE_NEURON_COVERAGE_H_
