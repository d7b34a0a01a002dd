#include "src/coverage/kmultisection_coverage.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dx {

KMultisectionCoverage::KMultisectionCoverage(const Model& model, CoverageOptions options)
    : NeuronValueMetric(model, [&options] {
        CoverageOptions o = options;
        o.scale_per_layer = false;
        return o;
      }()),
      k_(options.kmc_sections) {
  if (k_ < 1) {
    throw std::invalid_argument("KMultisectionCoverage: kmc_sections must be >= 1");
  }
  low_.assign(static_cast<size_t>(total_), std::numeric_limits<float>::infinity());
  high_.assign(static_cast<size_t>(total_), -std::numeric_limits<float>::infinity());
  covered_.assign(static_cast<size_t>(total_) * static_cast<size_t>(k_), false);
}

void KMultisectionCoverage::ProfileSeed(const Model& model, const BatchTrace& trace, int b) {
  const std::vector<float> values = NeuronValues(model, trace, b);
  for (int i = 0; i < total_; ++i) {
    const float v = values[static_cast<size_t>(i)];
    low_[static_cast<size_t>(i)] = std::min(low_[static_cast<size_t>(i)], v);
    high_[static_cast<size_t>(i)] = std::max(high_[static_cast<size_t>(i)], v);
  }
  profiled_ = true;
}

int KMultisectionCoverage::SectionOf(const NeuronId& id, float value) const {
  const int flat = FlatIndex(id);
  const float lo = low_[static_cast<size_t>(flat)];
  const float hi = high_[static_cast<size_t>(flat)];
  if (!(lo <= hi)) {
    return -1;  // Unprofiled neuron.
  }
  if (value <= lo) {
    return 0;
  }
  if (value >= hi) {
    return k_ - 1;
  }
  // lo < value < hi implies hi > lo, so the span is positive. A NaN value,
  // or an infinite span (inf / inf), has no position and no section.
  const float position = static_cast<float>(k_) * (value - lo) / (hi - lo);
  if (!std::isfinite(position)) {
    return -1;
  }
  return std::clamp(static_cast<int>(position), 0, k_ - 1);
}

void KMultisectionCoverage::UpdateBatch(const Model& model, const BatchTrace& trace) {
  if (!profiled_) {
    return;  // No ranges yet: nothing can be bucketed.
  }
  for (int b = 0; b < trace.batch; ++b) {
    const std::vector<float> values = NeuronValues(model, trace, b);
    for (int i = 0; i < total_; ++i) {
      const int section =
          SectionOf(neurons_[static_cast<size_t>(i)], values[static_cast<size_t>(i)]);
      if (section >= 0) {
        Cover(i, section);
      }
    }
  }
}

int KMultisectionCoverage::covered_items() const {
  return static_cast<int>(std::count(covered_.begin(), covered_.end(), true));
}

float KMultisectionCoverage::Coverage() const {
  const int total = total_items();
  return total > 0 ? static_cast<float>(covered_items()) / static_cast<float>(total) : 0.0f;
}

bool KMultisectionCoverage::IsSectionCovered(const NeuronId& id, int section) const {
  if (section < 0 || section >= k_) {
    throw std::out_of_range("KMultisectionCoverage: section out of range");
  }
  return covered_[Slot(FlatIndex(id), section)];
}

void KMultisectionCoverage::Cover(int i, int section) {
  auto slot = covered_[Slot(i, section)];
  if (!slot) {
    slot = true;
    if (Saturated(i)) {
      Close(i);
    }
  }
}

bool KMultisectionCoverage::Saturated(int i) const {
  const auto begin = covered_.begin() + static_cast<int64_t>(i) * k_;
  return std::find(begin, begin + k_, false) == begin + k_;
}

void KMultisectionCoverage::Merge(const CoverageMetric& other) {
  const auto* o = dynamic_cast<const KMultisectionCoverage*>(&other);
  if (o == nullptr || o->k_ != k_) {
    throw std::invalid_argument("KMultisectionCoverage::Merge: metric mismatch");
  }
  CheckMergeCompatible(*o);
  if (o->low_ != low_ || o->high_ != high_) {
    throw std::invalid_argument(
        "KMultisectionCoverage::Merge: trackers profiled different ranges");
  }
  for (int i = 0; i < total_; ++i) {
    for (int section = 0; section < k_; ++section) {
      if (o->covered_[Slot(i, section)]) {
        Cover(i, section);
      }
    }
  }
}

std::unique_ptr<CoverageMetric> KMultisectionCoverage::Clone() const {
  return std::make_unique<KMultisectionCoverage>(*this);
}

void KMultisectionCoverage::Serialize(BinaryWriter& writer) const {
  SerializeHeader(writer, /*version=*/1);
  writer.WriteU32(static_cast<uint32_t>(k_));
  writer.WriteU32(profiled_ ? 1 : 0);
  writer.WriteFloats(low_);
  writer.WriteFloats(high_);
  writer.WriteBools(covered_);
}

void KMultisectionCoverage::Deserialize(BinaryReader& reader) {
  DeserializeHeader(reader, /*version=*/1);
  const uint32_t k = reader.ReadU32();
  const bool profiled = reader.ReadU32() != 0;
  std::vector<float> low = reader.ReadFloats();
  std::vector<float> high = reader.ReadFloats();
  std::vector<bool> covered = reader.ReadBools();
  if (k != static_cast<uint32_t>(k_) || low.size() != static_cast<size_t>(total_) ||
      high.size() != low.size() ||
      covered.size() != static_cast<size_t>(total_) * static_cast<size_t>(k_)) {
    throw std::runtime_error("KMultisectionCoverage::Deserialize: state size mismatch");
  }
  profiled_ = profiled;
  low_ = std::move(low);
  high_ = std::move(high);
  covered_ = std::move(covered);
  OpenAll();
  for (int i = 0; i < total_; ++i) {
    if (Saturated(i)) {
      Close(i);
    }
  }
}

}  // namespace dx
