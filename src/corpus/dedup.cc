#include "src/corpus/dedup.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "src/analysis/ssim.h"

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

// Whether Ssim can compare two inputs of `shape`: an HW or CHW image whose
// plane holds its 8x8 window.
bool FitsSsimWindow(const Shape& shape) {
  const size_t n = shape.size();
  return (n == 2 || n == 3) && shape[n - 2] >= 8 && shape[n - 1] >= 8;
}

// The disagreement signature: inputs exposing different disagreements are
// never duplicates, so candidates only compare within their signature group.
std::vector<int> Signature(const GeneratedTest& entry, bool regression) {
  return regression ? std::vector<int>{entry.deviating_model} : entry.labels;
}

}  // namespace

std::unique_ptr<CorpusDeduper> MakeCorpusDeduper(const std::string& name,
                                                 const DeduperContext& context) {
  const bool has_seeds = context.meta != nullptr && !context.meta->seeds.empty();
  std::string key = name;
  if (name == "auto") {
    // Perceptual similarity for images SSIM can window, seed-profiled feature
    // boxes for everything else (tabular rows, speech waveforms).
    key = has_seeds && FitsSsimWindow(context.meta->seeds[0].shape()) ? "ssim"
                                                                       : "feature-box";
  }
  if (key == "ssim") {
    if (has_seeds && !FitsSsimWindow(context.meta->seeds[0].shape())) {
      throw std::invalid_argument(
          "ssim deduper needs HW or CHW inputs of at least 8x8; the corpus seeds are " +
          ShapeToString(context.meta->seeds[0].shape()));
    }
    return std::make_unique<SsimDeduper>(context.threshold);
  }
  if (key == "l2") {
    return std::make_unique<L2Deduper>(context.threshold);
  }
  if (key == "feature-box") {
    return std::make_unique<FeatureBoxDeduper>(context, context.threshold);
  }
  throw std::invalid_argument("unknown corpus deduper: " + name);
}

std::vector<std::string> CorpusDeduperNames() {
  return {"auto", "feature-box", "l2", "ssim"};
}

MaintenanceReport DedupCorpus(Session& session, const Corpus& corpus,
                              const DedupOptions& options) {
  DeduperContext context;
  context.meta = &corpus.meta();
  context.threshold = options.threshold;
  const std::unique_ptr<CorpusDeduper> deduper =
      MakeCorpusDeduper(options.deduper, context);
  return RunMaintenancePass(
      session, corpus, "dedup", options.out_dir,
      [&](std::vector<CoverageFootprint>& footprints) {
        const std::vector<GeneratedTest>& entries = corpus.entries();
        PassOutcome out;
        out.coverage = EmptyFootprint(session);
        // Retained entries (indices into `entries`, corpus order) per
        // signature: the only ones a candidate is compared with.
        std::map<std::vector<int>, std::vector<size_t>> retained;
        for (size_t i = 0; i < entries.size(); ++i) {
          std::vector<size_t>& group = retained[Signature(entries[i], session.regression())];
          const bool duplicate = std::any_of(group.begin(), group.end(), [&](size_t r) {
            return deduper->NearDuplicate(entries[i].input, entries[r].input);
          });
          // A "duplicate" that still covers something new is not redundant.
          if (duplicate && !AddsCoverage(out.coverage, footprints[i])) {
            continue;
          }
          MergeFootprint(out.coverage, footprints[i]);
          group.push_back(i);
          out.entries.push_back(entries[i]);
        }
        return out;
      });
}

}  // namespace dx
