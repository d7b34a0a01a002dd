#include "src/coverage/kmultisection_coverage.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/util/rng.h"

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
  // lo < value < hi implies hi > lo, so the span is positive.
  const int section = static_cast<int>(static_cast<float>(k_) * (value - lo) / (hi - lo));
  return std::clamp(section, 0, k_ - 1);
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
        covered_[static_cast<size_t>(i) * static_cast<size_t>(k_) +
                 static_cast<size_t>(section)] = true;
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
  return covered_[static_cast<size_t>(FlatIndex(id)) * static_cast<size_t>(k_) +
                  static_cast<size_t>(section)];
}

bool KMultisectionCoverage::PickUncovered(Rng& rng, NeuronId* id) const {
  // Allocation-free count-then-select (hot loop); draw and pick are
  // identical to the old candidate-list implementation.
  const auto has_uncovered_bucket = [&](int i) {
    const auto begin = covered_.begin() + static_cast<int64_t>(i) * k_;
    return std::find(begin, begin + k_, false) != begin + k_;
  };
  int64_t count = 0;
  for (int i = 0; i < total_; ++i) {
    count += has_uncovered_bucket(i) ? 1 : 0;
  }
  if (count == 0) {
    return false;
  }
  const int64_t r = rng.UniformInt(0, count - 1);
  int64_t seen = 0;
  for (int i = 0; i < total_; ++i) {
    if (has_uncovered_bucket(i) && seen++ == r) {
      *id = neurons_[static_cast<size_t>(i)];
      return true;
    }
  }
  return false;  // Unreachable.
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
  for (size_t i = 0; i < covered_.size(); ++i) {
    if (o->covered_[i]) {
      covered_[i] = true;
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
}

}  // namespace dx
