#include "src/coverage/coverage_metric.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/coverage/kmultisection_coverage.h"
#include "src/coverage/neuron_coverage.h"
#include "src/coverage/topk_coverage.h"
#include "src/util/registry.h"
#include "src/util/rng.h"

namespace dx {

void CoverageMetric::ProfileSeed(const Model& model, const BatchTrace& trace, int b) {
  (void)model;
  (void)trace;
  (void)b;
}

void CoverageMetric::Serialize(BinaryWriter& writer) const {
  (void)writer;
  throw std::logic_error("CoverageMetric '" + name() + "' does not support Serialize");
}

void CoverageMetric::Deserialize(BinaryReader& reader) {
  (void)reader;
  throw std::logic_error("CoverageMetric '" + name() + "' does not support Deserialize");
}

NeuronValueMetric::NeuronValueMetric(const Model& model, CoverageOptions options)
    : options_(options) {
  auto layout = std::make_shared<Layout>();
  layout->layer_offset.assign(static_cast<size_t>(model.num_layers()), -1);
  int last_neuron_layer = -1;
  for (int l = 0; l < model.num_layers(); ++l) {
    if (model.layer(l).NumNeurons() > 0) {
      last_neuron_layer = l;
    }
  }
  for (int l = 0; l < model.num_layers(); ++l) {
    const Layer& layer = model.layer(l);
    const int n = layer.NumNeurons();
    if (n == 0) {
      continue;
    }
    if (options_.exclude_dense && layer.Kind() == "dense") {
      continue;
    }
    if (options_.exclude_output_layer && l == last_neuron_layer) {
      continue;
    }
    layout->layer_offset[static_cast<size_t>(l)] = total_;
    for (int i = 0; i < n; ++i) {
      layout->neurons.push_back({l, i});
    }
    total_ += n;
  }
  layout_ = std::move(layout);
  OpenAll();
}

std::vector<float> NeuronValueMetric::NeuronValues(const Model& model,
                                                   const BatchTrace& trace, int b) const {
  if (b < 0 || b >= trace.batch) {
    throw std::out_of_range("NeuronValueMetric::NeuronValues: sample out of range");
  }
  std::vector<float> values(static_cast<size_t>(total_), 0.0f);
  for (int l = 0; l < model.num_layers(); ++l) {
    const int offset = layout_->layer_offset[static_cast<size_t>(l)];
    if (offset < 0) {
      continue;
    }
    const Layer& layer = model.layer(l);
    const int n = layer.NumNeurons();
    // Sample b's rows of the layer's [batch, ...] slab, read in place.
    const Shape& shape = model.layer_output_shape(l);
    const int64_t cols = NumElements(shape);
    const ConstTensorView out(
        trace.outputs[static_cast<size_t>(l)].data() + static_cast<int64_t>(b) * cols, &shape,
        cols);
    float lo = 0.0f;
    float hi = 0.0f;
    for (int i = 0; i < n; ++i) {
      const float v = layer.NeuronValue(out, i);
      values[static_cast<size_t>(offset + i)] = v;
      if (i == 0 || v < lo) {
        lo = v;
      }
      if (i == 0 || v > hi) {
        hi = v;
      }
    }
    if (options_.scale_per_layer) {
      const float span = hi - lo;
      for (int i = 0; i < n; ++i) {
        float& v = values[static_cast<size_t>(offset + i)];
        v = span > 0.0f ? (v - lo) / span : 0.0f;
      }
    }
  }
  return values;
}

int NeuronValueMetric::FlatIndex(const NeuronId& id) const {
  const std::vector<int>& layer_offset = layout_->layer_offset;
  if (id.layer < 0 || id.layer >= static_cast<int>(layer_offset.size()) ||
      layer_offset[static_cast<size_t>(id.layer)] < 0) {
    throw std::out_of_range("NeuronValueMetric: layer not tracked");
  }
  const int flat = layer_offset[static_cast<size_t>(id.layer)] + id.index;
  if (id.index < 0 || flat >= total_ ||
      TrackedNeurons()[static_cast<size_t>(flat)].layer != id.layer) {
    throw std::out_of_range("NeuronValueMetric: neuron index out of range");
  }
  return flat;
}

void NeuronValueMetric::CheckMergeCompatible(const NeuronValueMetric& other) const {
  if (other.layout_ != layout_ &&
      (other.total_ != total_ || other.TrackedNeurons() != TrackedNeurons())) {
    throw std::invalid_argument("CoverageMetric::Merge: trackers cover different neurons");
  }
}

void NeuronValueMetric::SerializeHeader(BinaryWriter& writer, uint32_t version) const {
  writer.WriteString(name());
  writer.WriteU32(version);
  writer.WriteU32(static_cast<uint32_t>(total_));
}

void NeuronValueMetric::DeserializeHeader(BinaryReader& reader, uint32_t version) const {
  const std::string stored_name = reader.ReadString();
  const uint32_t stored_version = reader.ReadU32();
  const uint32_t stored_total = reader.ReadU32();
  if (stored_name != name() || stored_version != version ||
      stored_total != static_cast<uint32_t>(total_)) {
    throw std::runtime_error("CoverageMetric::Deserialize: snapshot is for metric '" +
                             stored_name + "', this tracker is '" + name() +
                             "' (or neuron count / version mismatch)");
  }
}

bool NeuronValueMetric::PickUncovered(Rng& rng, NeuronId* id) const {
  if (open_count_ == 0) {
    return false;
  }
  int64_t r = rng.UniformInt(0, open_count_ - 1);
  for (size_t w = 0; w < open_.size(); ++w) {
    uint64_t word = open_[w];
    const int bits = std::popcount(word);
    if (r < bits) {
      for (; r > 0; --r) {
        word &= word - 1;  // Drop the lowest set bit.
      }
      *id = TrackedNeurons()[w * 64 + static_cast<size_t>(std::countr_zero(word))];
      return true;
    }
    r -= bits;
  }
  return false;  // Unreachable: open_count_ is the popcount of open_.
}

void NeuronValueMetric::Close(int flat) {
  uint64_t& word = open_[static_cast<size_t>(flat) / 64];
  const uint64_t bit = uint64_t{1} << (flat % 64);
  if ((word & bit) != 0) {
    word &= ~bit;
    --open_count_;
  }
}

void NeuronValueMetric::OpenAll() {
  open_.assign((static_cast<size_t>(total_) + 63) / 64, ~uint64_t{0});
  if (total_ % 64 != 0) {
    open_.back() = (uint64_t{1} << (total_ % 64)) - 1;
  }
  open_count_ = total_;
}

std::vector<bool> NeuronValueMetric::CoveredFlags() const {
  std::vector<bool> covered(static_cast<size_t>(total_));
  for (int i = 0; i < total_; ++i) {
    covered[static_cast<size_t>(i)] = !IsOpen(i);
  }
  return covered;
}

void NeuronValueMetric::SetCoveredFlags(const std::vector<bool>& covered) {
  OpenAll();
  for (int i = 0; i < total_; ++i) {
    if (covered[static_cast<size_t>(i)]) {
      Close(i);
    }
  }
}

void NeuronValueMetric::IntersectOpen(const NeuronValueMetric& other) {
  open_count_ = 0;
  for (size_t w = 0; w < open_.size(); ++w) {
    open_[w] &= other.open_[w];
    open_count_ += std::popcount(open_[w]);
  }
}

// ---- Factory -----------------------------------------------------------------------------

namespace {

NamedRegistry<CoverageMetricFactory>& Registry() {
  static auto* registry = new NamedRegistry<CoverageMetricFactory>({
      {"neuron",
       [](const Model& m, const CoverageOptions& o) -> std::unique_ptr<CoverageMetric> {
         return std::make_unique<NeuronCoverageTracker>(m, o);
       }},
      {"kmultisection",
       [](const Model& m, const CoverageOptions& o) -> std::unique_ptr<CoverageMetric> {
         return std::make_unique<KMultisectionCoverage>(m, o);
       }},
      {"topk",
       [](const Model& m, const CoverageOptions& o) -> std::unique_ptr<CoverageMetric> {
         return std::make_unique<TopKNeuronCoverage>(m, o);
       }},
  });
  return *registry;
}

}  // namespace

void RegisterCoverageMetric(const std::string& name, CoverageMetricFactory factory) {
  Registry().Register(name, std::move(factory));
}

std::unique_ptr<CoverageMetric> MakeCoverageMetric(const std::string& name,
                                                   const Model& model,
                                                   const CoverageOptions& options) {
  return Registry().Get(name, "coverage metric")(model, options);
}

std::vector<std::string> CoverageMetricNames() { return Registry().Names(); }

}  // namespace dx
