// k-multisection neuron coverage (DeepGauge, Ma et al., ASE'18): each
// neuron's activation range [low, high] — profiled from the seed corpus via
// ProfileSeed — is split into k equal sections; a section is covered when
// some test input lands a neuron value inside it. Coverage is the covered
// fraction of the k * num_neurons sections.
//
// Values outside the profiled range fall into the nearest boundary section
// (the corner-case regions DeepGauge tracks separately are folded into
// sections 0 and k-1 here). Unprofiled neurons cover nothing.
//
// Profiling uses raw (unscaled) activations: per-trace min-max scaling would
// collapse every range to [0, 1] and erase the per-neuron structure the
// metric measures, so `scale_per_layer` is forced off.
#ifndef DX_SRC_COVERAGE_KMULTISECTION_COVERAGE_H_
#define DX_SRC_COVERAGE_KMULTISECTION_COVERAGE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/coverage/coverage_metric.h"

namespace dx {

class KMultisectionCoverage : public NeuronValueMetric {
 public:
  // Uses options.kmc_sections as k (must be >= 1).
  KMultisectionCoverage(const Model& model, CoverageOptions options);

  std::string name() const override { return "kmultisection"; }
  int sections() const { return k_; }

  // Records [min, max] per neuron over the seed corpus.
  void ProfileSeed(const Model& model, const BatchTrace& trace, int b) override;
  bool WantsSeedProfile() const override { return true; }
  // True once at least one seed has been profiled.
  bool profiled() const { return profiled_; }
  // Profiled per-neuron range, indexed like NeuronValues (exposed for tests).
  const std::vector<float>& low() const { return low_; }
  const std::vector<float>& high() const { return high_; }

  void UpdateBatch(const Model& model, const BatchTrace& trace) override;

  float Coverage() const override;
  int total_items() const override { return total_ * k_; }
  int covered_items() const override;

  // Section index (0..k-1) the value of neuron `id` would fall into; -1 when
  // the neuron is unprofiled (exposed for tests).
  int SectionOf(const NeuronId& id, float value) const;
  // True when section `section` of neuron `id` has been hit.
  bool IsSectionCovered(const NeuronId& id, int section) const;

  bool PickUncovered(Rng& rng, NeuronId* id) const override;
  void Merge(const CoverageMetric& other) override;
  std::unique_ptr<CoverageMetric> Clone() const override;

  // Persists the covered sections AND the profiled [low, high] ranges, so a
  // resumed campaign needs no re-profiling pass.
  void Serialize(BinaryWriter& writer) const override;
  void Deserialize(BinaryReader& reader) override;

 private:
  int k_;
  bool profiled_ = false;
  std::vector<float> low_;   // Per-neuron profiled minimum.
  std::vector<float> high_;  // Per-neuron profiled maximum.
  std::vector<bool> covered_;  // total_ * k_ sections, neuron-major.
};

}  // namespace dx

#endif  // DX_SRC_COVERAGE_KMULTISECTION_COVERAGE_H_
