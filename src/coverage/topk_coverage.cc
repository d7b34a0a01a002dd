#include "src/coverage/topk_coverage.h"

#include <algorithm>
#include <stdexcept>

namespace dx {

TopKNeuronCoverage::TopKNeuronCoverage(const Model& model, CoverageOptions options)
    : NeuronValueMetric(model, options), k_(options.top_k) {
  if (k_ < 1) {
    throw std::invalid_argument("TopKNeuronCoverage: top_k must be >= 1");
  }
}

void TopKNeuronCoverage::UpdateBatch(const Model& model, const BatchTrace& trace) {
  for (int b = 0; b < trace.batch; ++b) {
    const std::vector<float> values = NeuronValues(model, trace, b);
    // Walk the per-layer slices of the canonical neuron order.
    const std::vector<NeuronId>& neurons = TrackedNeurons();
    for (int begin = 0; begin < total_;) {
      const int layer = neurons[static_cast<size_t>(begin)].layer;
      int end = begin;
      while (end < total_ && neurons[static_cast<size_t>(end)].layer == layer) {
        ++end;
      }
      const int n = end - begin;
      if (n <= k_) {
        for (int i = begin; i < end; ++i) {
          Close(i);
        }
      } else {
        // k-th largest value of the layer; ties at that value are inclusive.
        std::vector<float> slice(values.begin() + begin, values.begin() + end);
        std::nth_element(slice.begin(), slice.begin() + (k_ - 1), slice.end(),
                         std::greater<float>());
        const float kth = slice[static_cast<size_t>(k_ - 1)];
        for (int i = begin; i < end; ++i) {
          if (values[static_cast<size_t>(i)] >= kth) {
            Close(i);
          }
        }
      }
      begin = end;
    }
  }
}

int TopKNeuronCoverage::covered_items() const { return total_ - open_count(); }

float TopKNeuronCoverage::Coverage() const {
  return total_ > 0 ? static_cast<float>(covered_items()) / static_cast<float>(total_)
                    : 0.0f;
}

bool TopKNeuronCoverage::IsCovered(const NeuronId& id) const {
  return !IsOpen(FlatIndex(id));
}

void TopKNeuronCoverage::Merge(const CoverageMetric& other) {
  const auto* o = dynamic_cast<const TopKNeuronCoverage*>(&other);
  if (o == nullptr || o->k_ != k_) {
    throw std::invalid_argument("TopKNeuronCoverage::Merge: metric mismatch");
  }
  CheckMergeCompatible(*o);
  IntersectOpen(*o);
}

std::unique_ptr<CoverageMetric> TopKNeuronCoverage::Clone() const {
  return std::make_unique<TopKNeuronCoverage>(*this);
}

void TopKNeuronCoverage::Serialize(BinaryWriter& writer) const {
  SerializeHeader(writer, /*version=*/1);
  writer.WriteU32(static_cast<uint32_t>(k_));
  writer.WriteBools(CoveredFlags());
}

void TopKNeuronCoverage::Deserialize(BinaryReader& reader) {
  DeserializeHeader(reader, /*version=*/1);
  const uint32_t k = reader.ReadU32();
  const std::vector<bool> covered = reader.ReadBools();
  if (k != static_cast<uint32_t>(k_) || covered.size() != static_cast<size_t>(total_)) {
    throw std::runtime_error("TopKNeuronCoverage::Deserialize: state size mismatch");
  }
  SetCoveredFlags(covered);
}

}  // namespace dx
