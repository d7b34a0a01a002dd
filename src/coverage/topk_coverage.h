// Top-k neuron coverage (DeepGauge, Ma et al., ASE'18): a neuron is covered
// once it has been among the k most-activated neurons of its layer for some
// test input. Coverage is the fraction of neurons ever in a layer top-k.
//
// Ties at the k-th value are inclusive: every neuron whose activation equals
// the k-th largest counts as top-k (so a layer of identical activations is
// fully covered by one input). Layers with <= k neurons are fully covered by
// any input. Per-layer min-max scaling does not change activation order, so
// the metric is insensitive to `scale_per_layer`. The covered set is the
// complement of NeuronValueMetric's open set.
#ifndef DX_SRC_COVERAGE_TOPK_COVERAGE_H_
#define DX_SRC_COVERAGE_TOPK_COVERAGE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/coverage/coverage_metric.h"

namespace dx {

class TopKNeuronCoverage : public NeuronValueMetric {
 public:
  // Uses options.top_k as k (must be >= 1).
  TopKNeuronCoverage(const Model& model, CoverageOptions options);

  std::string name() const override { return "topk"; }
  int k() const { return k_; }

  void UpdateBatch(const Model& model, const BatchTrace& trace) override;

  float Coverage() const override;
  int total_items() const override { return total_neurons(); }
  int covered_items() const override;
  bool IsCovered(const NeuronId& id) const;

  void Merge(const CoverageMetric& other) override;
  std::unique_ptr<CoverageMetric> Clone() const override;

  void Serialize(BinaryWriter& writer) const override;
  void Deserialize(BinaryReader& reader) override;

 private:
  int k_;
};

}  // namespace dx

#endif  // DX_SRC_COVERAGE_TOPK_COVERAGE_H_
