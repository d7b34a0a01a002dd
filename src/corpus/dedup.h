// Near-duplicate detection over corpus entries: campaigns keep finding
// perceptually identical difference-inducers around the same seed, and a
// million-entry corpus must not store them all.
//
// The similarity notion is a pluggable, registry-keyed axis like every
// other engine axis (RegisterCorpusDeduper / MakeCorpusDeduper). Built-ins:
//
//   "ssim"         perceptual: mean SSIM (src/analysis/ssim.h) >= threshold
//                  (default 0.97). For image-shaped inputs (ndim >= 2).
//   "l2"           RMS distance: ||a - b||_2 / sqrt(numel) <= threshold
//                  (default 0.02). Shape-agnostic.
//   "feature-box"  per-dimension: max_i |a_i - b_i| / range_i <= threshold
//                  (default 0.05), ranges profiled from the manifest seed
//                  pool — the natural notion for tabular/speech domains
//                  whose features live on wildly different scales.
//
// "auto" (the default) resolves per corpus: "ssim" when the seed inputs are
// image-shaped (ndim >= 2), "feature-box" otherwise.
//
// The pass scans entries in corpus order and compares each candidate only
// against already-retained entries with the same disagreement signature
// (per-model labels, or the deviating model for regression) — two inputs
// that expose different disagreements are never duplicates of each other. A
// near-duplicate is still retained when it covers coverage items no
// retained entry covers (preserve_coverage, default on), which keeps the
// merged coverage of the output exactly equal to the input's. Everything is
// order-based and threshold-based: deterministic for a fixed corpus.
#ifndef DX_SRC_CORPUS_DEDUP_H_
#define DX_SRC_CORPUS_DEDUP_H_

#include <functional>
#include <memory>
#include <string>

#include "src/corpus/maintenance.h"

namespace dx {

// What a deduper may consult at construction time.
struct DeduperContext {
  const CorpusMeta* meta = nullptr;
  // < 0 selects the deduper's default threshold.
  float threshold = -1.0f;
};

class CorpusDeduper {
 public:
  virtual ~CorpusDeduper() = default;
  virtual std::string name() const = 0;
  // True when `candidate` is a near-duplicate of the retained `kept`.
  virtual bool NearDuplicate(const Tensor& candidate, const Tensor& kept) const = 0;
};

using CorpusDeduperFactory =
    std::function<std::unique_ptr<CorpusDeduper>(const DeduperContext&)>;

// Registers (or replaces) a deduper under `name` for MakeCorpusDeduper.
void RegisterCorpusDeduper(const std::string& name, CorpusDeduperFactory factory);

// Builds the deduper registered under `name` ("auto" resolves from the
// context's seed shape); throws std::invalid_argument for unknown names.
std::unique_ptr<CorpusDeduper> MakeCorpusDeduper(const std::string& name,
                                                 const DeduperContext& context);

// Registered deduper names, sorted ("auto" included).
std::vector<std::string> CorpusDeduperNames();

struct DedupOptions {
  std::string out_dir;
  std::string deduper = "auto";
  float threshold = -1.0f;  // < 0: the deduper's default.
  // Keep a near-duplicate anyway when it covers something no retained entry
  // covers (preserves the merged-coverage invariant).
  bool preserve_coverage = true;
};

// Runs the near-duplicate pass of `corpus` through `session` and writes the
// deduplicated corpus to options.out_dir. The session must be wired like the
// corpus (checked as in DistillCorpus); its coverage state is reset. Returns
// the report.
MaintenanceReport DedupCorpus(Session& session, const Corpus& corpus,
                              const DedupOptions& options);

}  // namespace dx

#endif  // DX_SRC_CORPUS_DEDUP_H_
