// Corpus distillation: a coverage-replay pass that drops entries whose
// coverage contribution is subsumed by the retained set.
//
// Entries are scanned in corpus order; an entry is retained iff merging its
// footprint into the accumulated retained coverage covers at least one new
// item on any model. Greedy-in-order is exact for the subsumption invariant:
// an entry is only dropped when everything it covers is already covered by
// earlier retained entries, so the merged coverage of the retained set
// always equals the merged coverage of the full corpus (pinned by
// tests/corpus_maintenance_test.cc). Scanning in corpus order also keeps the
// result deterministic and biases retention toward the campaign's earliest
// discoveries — the entries the provenance chain anchors on.
#ifndef DX_SRC_CORPUS_DISTILL_H_
#define DX_SRC_CORPUS_DISTILL_H_

#include <string>

#include "src/corpus/maintenance.h"

namespace dx {

struct DistillOptions {
  // Where the compacted corpus is written (must not hold a corpus yet).
  std::string out_dir;
};

// Runs the distillation pass of `corpus` through `session` and writes the
// compacted corpus to options.out_dir. The session must be wired like the
// corpus (Session::ResetForCorpus checks it, and throws
// std::invalid_argument before anything is written); its coverage state is
// reset. Returns the distillation report.
MaintenanceReport DistillCorpus(Session& session, const Corpus& corpus,
                                const DistillOptions& options);

}  // namespace dx

#endif  // DX_SRC_CORPUS_DISTILL_H_
