// CoverageMetric: the pluggable coverage-criterion interface of the engine.
//
// A metric observes batched forward traces (`UpdateBatch`), reports a
// saturation fraction (`Coverage`), and feeds the coverage objective by
// nominating an uncovered neuron to push (`PickUncovered`). Parallel workers
// run on `Clone()`d metrics that are `Merge()`d back at sync points; Merge is
// commutative and idempotent, so merged results are independent of worker
// count and order.
//
// Implementations are selected by name through a string-keyed factory
// (`MakeCoverageMetric`); built-ins:
//   "neuron"        threshold neuron coverage (paper §4.1)
//   "kmultisection" k-multisection coverage: each neuron's activation range
//                   (profiled from the seed corpus via ProfileSeed) split
//                   into k buckets, a bucket covered when hit
//   "topk"          top-k neuron coverage: covered when among the k
//                   most-activated neurons of its layer
#ifndef DX_SRC_COVERAGE_COVERAGE_METRIC_H_
#define DX_SRC_COVERAGE_COVERAGE_METRIC_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/nn/model.h"
#include "src/util/serialize.h"

namespace dx {

class Rng;

struct NeuronId {
  int layer = 0;
  int index = 0;

  bool operator==(const NeuronId&) const = default;
};

struct CoverageOptions {
  float threshold = 0.0f;
  // Min-max scale neuron values within each layer before thresholding.
  bool scale_per_layer = true;
  // Drop Dense-layer neurons (paper's Table 8 excludes fully-connected
  // layers on the vision domains since their neurons are very hard to
  // activate).
  bool exclude_dense = false;
  // Drop the final classification layer's neurons (its "neurons" are the
  // model's output logits).
  bool exclude_output_layer = true;
  // "kmultisection": buckets per neuron (DeepGauge-style k-multisection).
  int kmc_sections = 10;
  // "topk": how many most-activated neurons per layer count as covered.
  int top_k = 2;
};

class CoverageMetric {
 public:
  virtual ~CoverageMetric() = default;

  // Factory key of this metric ("neuron", "kmultisection", ...).
  virtual std::string name() const = 0;

  // Observes every sample of one batched forward pass (a plan trace, or a
  // width-1 ExecutionPlan::SampleTrace); coverage grows monotonically.
  // Implementations read each sample's rows of the trace slabs in place.
  virtual void UpdateBatch(const Model& model, const BatchTrace& trace) = 0;

  // Covered fraction in [0, 1] of this metric's coverage items.
  virtual float Coverage() const = 0;
  // Denominator/numerator of Coverage(); "items" are metric-specific
  // (neurons, neuron-buckets, ...).
  virtual int total_items() const = 0;
  virtual int covered_items() const = 0;

  // Uniformly random neuron that still has uncovered items, for the
  // coverage-objective gradient; false when fully saturated.
  virtual bool PickUncovered(Rng& rng, NeuronId* id) const = 0;

  // Folds another tracker's covered set into this one. `other` must be a
  // Clone() of this metric (same type, model, and options); throws
  // std::invalid_argument otherwise. Commutative and idempotent.
  virtual void Merge(const CoverageMetric& other) = 0;

  // Deep copy, used to give each parallel worker task its own tracker.
  virtual std::unique_ptr<CoverageMetric> Clone() const = 0;

  // Observes sample `b` of a seed-corpus trace for calibration
  // (k-multisection profiles per-neuron activation ranges here). Default:
  // no-op.
  virtual void ProfileSeed(const Model& model, const BatchTrace& trace, int b);
  // True when the metric needs a ProfileSeed pass over the seed corpus
  // before updates are meaningful (lets the session skip the profiling
  // forward passes for metrics that don't).
  virtual bool WantsSeedProfile() const { return false; }

  // Writes the full coverage state (covered set plus any calibration, e.g.
  // k-multisection ranges) so a campaign can checkpoint and resume. The
  // counterpart Deserialize restores the state into a metric built for the
  // SAME model and options — the neuron enumeration is not stored, only
  // validated — and throws std::runtime_error on a mismatched or corrupt
  // stream. Defaults throw std::logic_error: plug-in metrics must override
  // both to participate in durable corpora (src/corpus/).
  virtual void Serialize(BinaryWriter& writer) const;
  virtual void Deserialize(BinaryReader& reader);
};

// Base for metrics defined over per-neuron activation values: owns the
// neuron enumeration (Dense units / Conv channels, minus the configured
// exclusions) and the per-layer value extraction + optional min-max scaling.
class NeuronValueMetric : public CoverageMetric {
 public:
  NeuronValueMetric(const Model& model, CoverageOptions options);

  int total_neurons() const { return total_; }

  // Neuron values of sample `b` of `trace`, scaled per options (exposed for
  // analysis). Each entry parallels TrackedNeurons().
  std::vector<float> NeuronValues(const Model& model, const BatchTrace& trace, int b) const;
  // All tracked neuron ids in canonical order.
  const std::vector<NeuronId>& TrackedNeurons() const { return neurons_; }

  const CoverageOptions& options() const { return options_; }

 protected:
  // Flat position of `id` in TrackedNeurons(); throws std::out_of_range for
  // untracked layers or bad indices.
  int FlatIndex(const NeuronId& id) const;
  // Throws std::invalid_argument unless `other` tracks the same neurons with
  // the same options.
  void CheckMergeCompatible(const NeuronValueMetric& other) const;
  // Serialize/Deserialize building blocks: a header identifying the metric
  // (factory name, per-metric version, tracked-neuron count) that the reader
  // validates against this instance before subclass state follows.
  void SerializeHeader(BinaryWriter& writer, uint32_t version) const;
  void DeserializeHeader(BinaryReader& reader, uint32_t version) const;

  CoverageOptions options_;
  std::vector<NeuronId> neurons_;
  // Maps layer -> offset into neurons_ (-1 when not tracked).
  std::vector<int> layer_offset_;
  int total_ = 0;
};

// ---- Factory -----------------------------------------------------------------------------

using CoverageMetricFactory =
    std::function<std::unique_ptr<CoverageMetric>(const Model&, const CoverageOptions&)>;

// Registers (or replaces) a metric under `name` for MakeCoverageMetric.
void RegisterCoverageMetric(const std::string& name, CoverageMetricFactory factory);

// Builds the metric registered under `name`; throws std::invalid_argument
// for unknown names.
std::unique_ptr<CoverageMetric> MakeCoverageMetric(const std::string& name,
                                                   const Model& model,
                                                   const CoverageOptions& options);

// Registered metric names, sorted (for --help text and validation).
std::vector<std::string> CoverageMetricNames();

}  // namespace dx

#endif  // DX_SRC_COVERAGE_COVERAGE_METRIC_H_
