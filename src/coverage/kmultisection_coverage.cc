#include "src/coverage/kmultisection_coverage.h"

#include <algorithm>
#include <bit>
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
  ranges_ = std::make_shared<Ranges>();
  ranges_->low.assign(static_cast<size_t>(total_), std::numeric_limits<float>::infinity());
  ranges_->high.assign(static_cast<size_t>(total_), -std::numeric_limits<float>::infinity());
  covered_.assign((static_cast<size_t>(total_) * static_cast<size_t>(k_) + 63) / 64, 0);
}

void KMultisectionCoverage::ProfileSeed(const Model& model, const BatchTrace& trace, int b) {
  if (ranges_.use_count() > 1) {
    ranges_ = std::make_shared<Ranges>(*ranges_);  // A clone still reads these.
  }
  std::vector<float>& low = ranges_->low;
  std::vector<float>& high = ranges_->high;
  const std::vector<float> values = NeuronValues(model, trace, b);
  for (int i = 0; i < total_; ++i) {
    const float v = values[static_cast<size_t>(i)];
    low[static_cast<size_t>(i)] = std::min(low[static_cast<size_t>(i)], v);
    high[static_cast<size_t>(i)] = std::max(high[static_cast<size_t>(i)], v);
  }
  profiled_ = true;
}

int KMultisectionCoverage::SectionOf(const NeuronId& id, float value) const {
  return SectionAt(FlatIndex(id), value);
}

int KMultisectionCoverage::SectionAt(int i, float value) const {
  const float lo = ranges_->low[static_cast<size_t>(i)];
  const float hi = ranges_->high[static_cast<size_t>(i)];
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
      const int section = SectionAt(i, values[static_cast<size_t>(i)]);
      if (section >= 0) {
        Cover(i, section);
      }
    }
  }
}

float KMultisectionCoverage::Coverage() const {
  const int total = total_items();
  return total > 0 ? static_cast<float>(covered_count_) / static_cast<float>(total) : 0.0f;
}

bool KMultisectionCoverage::IsSectionCovered(const NeuronId& id, int section) const {
  if (section < 0 || section >= k_) {
    throw std::out_of_range("KMultisectionCoverage: section out of range");
  }
  return IsSlotCovered(Slot(FlatIndex(id), section));
}

void KMultisectionCoverage::Cover(int i, int section) {
  const size_t slot = Slot(i, section);
  uint64_t& word = covered_[slot / 64];
  const uint64_t bit = uint64_t{1} << (slot % 64);
  if ((word & bit) == 0) {
    word |= bit;
    ++covered_count_;
    if (Saturated(i)) {
      Close(i);
    }
  }
}

bool KMultisectionCoverage::Saturated(int i) const {
  // Neuron i's k bits, tested a word at a time (they may straddle words).
  const size_t end = Slot(i + 1, 0);
  for (size_t slot = Slot(i, 0); slot < end;) {
    const size_t bit = slot % 64;
    const size_t bits = std::min<size_t>(64 - bit, end - slot);
    const uint64_t mask = (bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1) << bit;
    if ((covered_[slot / 64] & mask) != mask) {
      return false;
    }
    slot += bits;
  }
  return true;
}

void KMultisectionCoverage::Merge(const CoverageMetric& other) {
  const auto* o = dynamic_cast<const KMultisectionCoverage*>(&other);
  if (o == nullptr || o->k_ != k_) {
    throw std::invalid_argument("KMultisectionCoverage::Merge: metric mismatch");
  }
  CheckMergeCompatible(*o);
  if (o->ranges_ != ranges_ &&
      (o->ranges_->low != ranges_->low || o->ranges_->high != ranges_->high)) {
    throw std::invalid_argument(
        "KMultisectionCoverage::Merge: trackers profiled different ranges");
  }
  // Only a neuron that gains a section can saturate. Its check waits until
  // every word it spans is merged: `pending` is the last neuron that gained
  // one, checked once a later neuron gains one or the words run out.
  int pending = -1;
  const auto close_if_saturated = [&](int i) {
    if (i >= 0 && IsOpen(i) && Saturated(i)) {
      Close(i);
    }
  };
  for (size_t w = 0; w < covered_.size(); ++w) {
    uint64_t gained = o->covered_[w] & ~covered_[w];
    if (gained == 0) {
      continue;
    }
    covered_[w] |= gained;
    covered_count_ += std::popcount(gained);
    while (gained != 0) {
      const size_t slot = w * 64 + static_cast<size_t>(std::countr_zero(gained));
      const int i = static_cast<int>(slot / static_cast<size_t>(k_));
      if (i != pending) {
        close_if_saturated(pending);
        pending = i;
      }
      // Drop the rest of neuron i's bits in this word.
      const size_t next = Slot(i + 1, 0);
      gained = next >= (w + 1) * 64 ? 0 : gained & (~uint64_t{0} << (next - w * 64));
    }
  }
  close_if_saturated(pending);
}

std::unique_ptr<CoverageMetric> KMultisectionCoverage::Clone() const {
  return std::make_unique<KMultisectionCoverage>(*this);
}

void KMultisectionCoverage::Serialize(BinaryWriter& writer) const {
  SerializeHeader(writer, /*version=*/1);
  writer.WriteU32(static_cast<uint32_t>(k_));
  writer.WriteU32(profiled_ ? 1 : 0);
  writer.WriteFloats(ranges_->low);
  writer.WriteFloats(ranges_->high);
  writer.WriteBits(covered_, static_cast<uint64_t>(total_items()));
}

void KMultisectionCoverage::Deserialize(BinaryReader& reader) {
  DeserializeHeader(reader, /*version=*/1);
  const uint32_t k = reader.ReadU32();
  const bool profiled = reader.ReadU32() != 0;
  std::vector<float> low = reader.ReadFloats();
  std::vector<float> high = reader.ReadFloats();
  uint64_t slots = 0;
  std::vector<uint64_t> covered = reader.ReadBits(&slots);
  if (k != static_cast<uint32_t>(k_) || low.size() != static_cast<size_t>(total_) ||
      high.size() != low.size() || slots != static_cast<uint64_t>(total_items())) {
    throw std::runtime_error("KMultisectionCoverage::Deserialize: state size mismatch");
  }
  profiled_ = profiled;
  // A fresh range object: clones sharing the old one keep seeing it.
  ranges_ = std::make_shared<Ranges>(Ranges{std::move(low), std::move(high)});
  covered_ = std::move(covered);
  covered_count_ = 0;
  for (const uint64_t word : covered_) {
    covered_count_ += std::popcount(word);
  }
  OpenAll();
  for (int i = 0; i < total_; ++i) {
    if (Saturated(i)) {
      Close(i);
    }
  }
}

}  // namespace dx
