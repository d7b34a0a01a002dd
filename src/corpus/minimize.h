// Corpus minimization: greedy per-entry input reduction. A difference-inducing
// input found by gradient ascent usually carries far more perturbation than
// the disagreement needs; this pass walks each entry back toward its seed,
// region by region, keeping a revert only while the entry still earns its
// place in the corpus.
//
// Per entry, the flat value space is split into `regions` contiguous blocks.
// Each round builds one candidate per block (that block's values reverted to
// the seed), evaluates every candidate in one batched forward per model
// through the compiled ExecutionPlan, and accepts the reverts that preserve:
//
//   1. the disagreement — the session's oracle (ModelsDisagree) still
//      fires, and classification labels equal the stored labels (a
//      regression entry's stored outputs and deviating_model are rewritten
//      to match the accepted input);
//   2. the coverage delta — for every model, the items covered by
//      (already-minimized prefix ⊕ untouched suffix ⊕ candidate) equal the
//      items that set covered with the original entry in place.
//
// Individually-passing blocks are first tried as one combined revert (a
// single extra forward); if the combination breaks either invariant the pass
// falls back to accepting them one at a time. Rounds repeat until a fixpoint
// or max_rounds, whichever first.
//
// Criterion 2 is what makes the pass safe at corpus scale: by induction over
// entries, (merged minimized prefix ⊕ merged original suffix) covers exactly
// what the whole original corpus covers, so after the last entry the merged
// coverage of the minimized corpus equals the original's (pinned by
// tests/corpus_maintenance_test.cc). The suffix footprints are materialized
// up front — O(entries x coverage state) memory — which is the price of
// exactness; distill first when that is too much.
#ifndef DX_SRC_CORPUS_MINIMIZE_H_
#define DX_SRC_CORPUS_MINIMIZE_H_

#include <string>

#include "src/corpus/maintenance.h"

namespace dx {

struct MinimizeOptions {
  // Where the minimized corpus is written (must not hold a corpus yet).
  std::string out_dir;
  // Contiguous blocks the flat value space is split into per entry. More
  // regions revert at finer grain but cost more forwards per round.
  int regions = 16;
  // Revert rounds per entry; the loop also stops at the first round that
  // accepts nothing.
  int max_rounds = 4;
};

// Runs the minimization pass of `corpus` through `session` (wired like the
// corpus, checked as in DistillCorpus) and writes the minimized corpus to
// options.out_dir. Every entry is retained; only inputs (and regression
// outputs and deviators) change. Resets the session's coverage state. Returns the report —
// modified_entries and reverted_values say how much perturbation the pass
// clawed back.
MaintenanceReport MinimizeCorpus(Session& session, const Corpus& corpus,
                                 const MinimizeOptions& options);

}  // namespace dx

#endif  // DX_SRC_CORPUS_MINIMIZE_H_
