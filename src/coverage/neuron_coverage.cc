#include "src/coverage/neuron_coverage.h"

#include <stdexcept>

namespace dx {

NeuronCoverageTracker::NeuronCoverageTracker(const Model& model, CoverageOptions options)
    : NeuronValueMetric(model, options) {}

void NeuronCoverageTracker::UpdateBatch(const Model& model, const BatchTrace& trace) {
  for (int b = 0; b < trace.batch; ++b) {
    const std::vector<float> values = NeuronValues(model, trace, b);
    for (int i = 0; i < total_; ++i) {
      if (values[static_cast<size_t>(i)] > options_.threshold) {
        Close(i);
      }
    }
  }
}

int NeuronCoverageTracker::covered_neurons() const { return total_ - open_count(); }

float NeuronCoverageTracker::Coverage() const {
  return total_ > 0 ? static_cast<float>(covered_neurons()) / static_cast<float>(total_)
                    : 0.0f;
}

bool NeuronCoverageTracker::IsCovered(const NeuronId& id) const {
  return !IsOpen(FlatIndex(id));
}

void NeuronCoverageTracker::Merge(const CoverageMetric& other) {
  const auto* o = dynamic_cast<const NeuronCoverageTracker*>(&other);
  if (o == nullptr) {
    throw std::invalid_argument("NeuronCoverageTracker::Merge: metric type mismatch");
  }
  CheckMergeCompatible(*o);
  IntersectOpen(*o);
}

std::unique_ptr<CoverageMetric> NeuronCoverageTracker::Clone() const {
  return std::make_unique<NeuronCoverageTracker>(*this);
}

void NeuronCoverageTracker::Serialize(BinaryWriter& writer) const {
  SerializeHeader(writer, /*version=*/1);
  writer.WriteBools(CoveredFlags());
}

void NeuronCoverageTracker::Deserialize(BinaryReader& reader) {
  DeserializeHeader(reader, /*version=*/1);
  const std::vector<bool> covered = reader.ReadBools();
  if (covered.size() != static_cast<size_t>(total_)) {
    throw std::runtime_error("NeuronCoverageTracker::Deserialize: covered-set size mismatch");
  }
  SetCoveredFlags(covered);
}

std::vector<NeuronId> NeuronCoverageTracker::Activated(const Model& model,
                                                       const BatchTrace& trace, int b) const {
  const std::vector<float> values = NeuronValues(model, trace, b);
  std::vector<NeuronId> activated;
  for (int i = 0; i < total_; ++i) {
    if (values[static_cast<size_t>(i)] > options_.threshold) {
      activated.push_back(TrackedNeurons()[static_cast<size_t>(i)]);
    }
  }
  return activated;
}

}  // namespace dx
