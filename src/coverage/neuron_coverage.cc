#include "src/coverage/neuron_coverage.h"

#include <algorithm>
#include <stdexcept>

#include "src/util/rng.h"

namespace dx {

NeuronCoverageTracker::NeuronCoverageTracker(const Model& model, CoverageOptions options)
    : NeuronValueMetric(model, options) {
  covered_.assign(static_cast<size_t>(total_), false);
}

void NeuronCoverageTracker::UpdateBatch(const Model& model, const BatchTrace& trace) {
  for (int b = 0; b < trace.batch; ++b) {
    const std::vector<float> values = NeuronValues(model, trace, b);
    for (int i = 0; i < total_; ++i) {
      if (values[static_cast<size_t>(i)] > options_.threshold) {
        covered_[static_cast<size_t>(i)] = true;
      }
    }
  }
}

int NeuronCoverageTracker::covered_neurons() const {
  return static_cast<int>(std::count(covered_.begin(), covered_.end(), true));
}

float NeuronCoverageTracker::Coverage() const {
  return total_ > 0 ? static_cast<float>(covered_neurons()) / static_cast<float>(total_)
                    : 0.0f;
}

bool NeuronCoverageTracker::IsCovered(const NeuronId& id) const {
  return covered_[static_cast<size_t>(FlatIndex(id))];
}

bool NeuronCoverageTracker::PickUncovered(Rng& rng, NeuronId* id) const {
  // Count-then-select keeps this allocation-free (it runs per gradient
  // iteration in the executor hot loop). The single UniformInt draw and the
  // selected neuron (the r-th uncovered, ascending) are identical to the
  // old build-a-candidate-list implementation.
  int64_t count = 0;
  for (int i = 0; i < total_; ++i) {
    count += covered_[static_cast<size_t>(i)] ? 0 : 1;
  }
  if (count == 0) {
    return false;
  }
  const int64_t r = rng.UniformInt(0, count - 1);
  int64_t seen = 0;
  for (int i = 0; i < total_; ++i) {
    if (!covered_[static_cast<size_t>(i)] && seen++ == r) {
      *id = neurons_[static_cast<size_t>(i)];
      return true;
    }
  }
  return false;  // Unreachable.
}

void NeuronCoverageTracker::Merge(const CoverageMetric& other) {
  const auto* o = dynamic_cast<const NeuronCoverageTracker*>(&other);
  if (o == nullptr) {
    throw std::invalid_argument("NeuronCoverageTracker::Merge: metric type mismatch");
  }
  CheckMergeCompatible(*o);
  for (int i = 0; i < total_; ++i) {
    if (o->covered_[static_cast<size_t>(i)]) {
      covered_[static_cast<size_t>(i)] = true;
    }
  }
}

std::unique_ptr<CoverageMetric> NeuronCoverageTracker::Clone() const {
  return std::make_unique<NeuronCoverageTracker>(*this);
}

void NeuronCoverageTracker::Serialize(BinaryWriter& writer) const {
  SerializeHeader(writer, /*version=*/1);
  writer.WriteBools(covered_);
}

void NeuronCoverageTracker::Deserialize(BinaryReader& reader) {
  DeserializeHeader(reader, /*version=*/1);
  std::vector<bool> covered = reader.ReadBools();
  if (covered.size() != static_cast<size_t>(total_)) {
    throw std::runtime_error("NeuronCoverageTracker::Deserialize: covered-set size mismatch");
  }
  covered_ = std::move(covered);
}

std::vector<NeuronId> NeuronCoverageTracker::Activated(const Model& model,
                                                       const BatchTrace& trace, int b) const {
  const std::vector<float> values = NeuronValues(model, trace, b);
  std::vector<NeuronId> activated;
  for (int i = 0; i < total_; ++i) {
    if (values[static_cast<size_t>(i)] > options_.threshold) {
      activated.push_back(neurons_[static_cast<size_t>(i)]);
    }
  }
  return activated;
}

}  // namespace dx
