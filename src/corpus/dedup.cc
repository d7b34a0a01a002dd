#include "src/corpus/dedup.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "src/analysis/ssim.h"
#include "src/util/registry.h"
#include "src/util/timer.h"

namespace dx {

namespace {

class SsimDeduper : public CorpusDeduper {
 public:
  explicit SsimDeduper(float threshold)
      : threshold_(threshold < 0 ? 0.97f : threshold) {}
  std::string name() const override { return "ssim"; }
  bool NearDuplicate(const Tensor& candidate, const Tensor& kept) const override {
    return Ssim(candidate, kept) >= threshold_;
  }

 private:
  float threshold_;
};

class L2Deduper : public CorpusDeduper {
 public:
  explicit L2Deduper(float threshold)
      : threshold_(threshold < 0 ? 0.02f : threshold) {}
  std::string name() const override { return "l2"; }
  bool NearDuplicate(const Tensor& candidate, const Tensor& kept) const override {
    if (candidate.shape() != kept.shape() || candidate.numel() == 0) {
      return false;
    }
    double sum = 0.0;
    for (int64_t i = 0; i < candidate.numel(); ++i) {
      const double d = static_cast<double>(candidate[i]) - static_cast<double>(kept[i]);
      sum += d * d;
    }
    const double rms = std::sqrt(sum / static_cast<double>(candidate.numel()));
    return rms <= static_cast<double>(threshold_);
  }

 private:
  float threshold_;
};

// Per-dimension relative distance under ranges profiled from the manifest
// seed pool: the box geometry tabular domains already constrain in.
class FeatureBoxDeduper : public CorpusDeduper {
 public:
  FeatureBoxDeduper(const DeduperContext& context, float threshold)
      : threshold_(threshold < 0 ? 0.05f : threshold) {
    if (context.meta == nullptr || context.meta->seeds.empty()) {
      throw std::invalid_argument(
          "feature-box deduper needs a corpus manifest with a seed pool to "
          "profile feature ranges");
    }
    const std::vector<Tensor>& seeds = context.meta->seeds;
    const int64_t n = seeds[0].numel();
    std::vector<float> lo(seeds[0].values());
    std::vector<float> hi(seeds[0].values());
    for (const Tensor& seed : seeds) {
      if (seed.numel() != n) {
        throw std::invalid_argument("feature-box deduper: seed shapes disagree");
      }
      for (int64_t i = 0; i < n; ++i) {
        lo[static_cast<size_t>(i)] = std::min(lo[static_cast<size_t>(i)], seed[i]);
        hi[static_cast<size_t>(i)] = std::max(hi[static_cast<size_t>(i)], seed[i]);
      }
    }
    range_.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      // A constant feature has no scale of its own; fall back to an absolute
      // epsilon so equal values still compare as duplicates.
      range_[static_cast<size_t>(i)] =
          std::max(hi[static_cast<size_t>(i)] - lo[static_cast<size_t>(i)], 1e-6f);
    }
  }
  std::string name() const override { return "feature-box"; }
  bool NearDuplicate(const Tensor& candidate, const Tensor& kept) const override {
    if (candidate.numel() != static_cast<int64_t>(range_.size()) ||
        kept.numel() != candidate.numel()) {
      return false;
    }
    for (int64_t i = 0; i < candidate.numel(); ++i) {
      const float d = std::abs(candidate[i] - kept[i]) / range_[static_cast<size_t>(i)];
      if (d > threshold_) {
        return false;
      }
    }
    return true;
  }

 private:
  float threshold_;
  std::vector<float> range_;
};

NamedRegistry<CorpusDeduperFactory>& DeduperRegistry() {
  static auto* registry = new NamedRegistry<CorpusDeduperFactory>({
      {"ssim",
       [](const DeduperContext& ctx) -> std::unique_ptr<CorpusDeduper> {
         return std::make_unique<SsimDeduper>(ctx.threshold);
       }},
      {"l2",
       [](const DeduperContext& ctx) -> std::unique_ptr<CorpusDeduper> {
         return std::make_unique<L2Deduper>(ctx.threshold);
       }},
      {"feature-box",
       [](const DeduperContext& ctx) -> std::unique_ptr<CorpusDeduper> {
         return std::make_unique<FeatureBoxDeduper>(ctx, ctx.threshold);
       }},
  });
  return *registry;
}

// The disagreement signature: inputs exposing different disagreements are
// never duplicates, so candidates only compare within their signature class.
std::string Signature(const GeneratedTest& entry, bool regression) {
  std::ostringstream key;
  if (regression) {
    key << "dev:" << entry.deviating_model;
  } else {
    for (int label : entry.labels) {
      key << label << ',';
    }
  }
  return key.str();
}

}  // namespace

void RegisterCorpusDeduper(const std::string& name, CorpusDeduperFactory factory) {
  DeduperRegistry().Register(name, std::move(factory));
}

std::unique_ptr<CorpusDeduper> MakeCorpusDeduper(const std::string& name,
                                                 const DeduperContext& context) {
  std::string key = name;
  if (!DeduperRegistry().Contains(key) && name == "auto") {
    // Perceptual similarity for image-shaped inputs, seed-profiled feature
    // boxes for flat (tabular / speech) inputs.
    const bool image_shaped = context.meta != nullptr &&
                              !context.meta->seeds.empty() &&
                              context.meta->seeds[0].ndim() >= 2;
    key = image_shaped ? "ssim" : "feature-box";
  }
  return DeduperRegistry().Get(key, "corpus deduper")(context);
}

std::vector<std::string> CorpusDeduperNames() {
  std::vector<std::string> names = DeduperRegistry().Names();
  if (!DeduperRegistry().Contains("auto")) {
    names.insert(names.begin(), "auto");
  }
  return names;
}

MaintenanceReport DedupCorpus(Session& session, const Corpus& corpus,
                              const DedupOptions& options) {
  if (options.out_dir.empty()) {
    throw std::invalid_argument("DedupCorpus: out_dir must be set");
  }
  Timer timer;
  DeduperContext context;
  context.meta = &corpus.meta();
  context.threshold = options.threshold;
  const std::unique_ptr<CorpusDeduper> deduper =
      MakeCorpusDeduper(options.deduper, context);

  session.ResetForCorpus(corpus);
  const std::vector<GeneratedTest>& entries = corpus.entries();
  std::vector<CoverageFootprint> footprints;
  if (options.preserve_coverage) {
    footprints = ComputeFootprints(session, TestInputs(entries));
  }

  CoverageFootprint retained_cov;
  for (int k = 0; k < session.num_models(); ++k) {
    retained_cov.push_back(session.metric(k).Clone());
  }
  std::vector<GeneratedTest> retained;
  std::vector<size_t> retained_index;  // Indices into `entries`.
  const bool regression = session.regression();
  for (size_t i = 0; i < entries.size(); ++i) {
    const std::string sig = Signature(entries[i], regression);
    bool duplicate = false;
    for (size_t r : retained_index) {
      if (Signature(entries[r], regression) == sig &&
          deduper->NearDuplicate(entries[i].input, entries[r].input)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate && options.preserve_coverage &&
        AddsCoverage(retained_cov, footprints[i])) {
      // A "duplicate" that still covers something new is not redundant.
      duplicate = false;
    }
    if (!duplicate) {
      if (options.preserve_coverage) {
        MergeFootprint(retained_cov, footprints[i]);
      }
      retained_index.push_back(i);
      retained.push_back(entries[i]);
    }
  }
  if (!options.preserve_coverage) {
    // The checkpoint must still describe the retained set's coverage.
    for (CoverageFootprint& fp : ComputeFootprints(session, TestInputs(retained))) {
      MergeFootprint(retained_cov, fp);
    }
  }

  MaintenanceReport report;
  report.transform = "dedup";
  report.input_entries = entries.size();
  report.retained_entries = retained.size();
  for (int k = 0; k < session.num_models(); ++k) {
    ModelCoverageDelta delta;
    delta.model = session.model(k).name();
    delta.covered_after = retained_cov[static_cast<size_t>(k)]->covered_items();
    delta.total_items = retained_cov[static_cast<size_t>(k)]->total_items();
    if (options.preserve_coverage) {
      auto all = retained_cov[static_cast<size_t>(k)]->Clone();
      for (const CoverageFootprint& fp : footprints) {
        all->Merge(*fp[static_cast<size_t>(k)]);
      }
      delta.covered_before = all->covered_items();
    } else {
      delta.covered_before = delta.covered_after;
    }
    report.coverage.push_back(delta);
  }

  WriteDerivedCorpus(corpus, "dedup", retained, retained_cov, options.out_dir);
  report.seconds = timer.ElapsedSeconds();
  return report;
}

}  // namespace dx
