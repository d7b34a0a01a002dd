// Shared machinery of the corpus maintenance subsystem (distill / dedup /
// minimize — see the sibling headers).
//
// Every maintenance pass follows the same shape: compute per-entry coverage
// footprints (what each stored input contributes to each model's coverage
// tracker, batched through a compiled ExecutionPlan), transform the entry
// set under an invariant on the merged footprint, and write the result as a
// NEW derived corpus — the source is never mutated. A derived corpus copies
// the source manifest (so the exact session wiring travels with it), tags
// itself with `transform` / `derived_from` metadata, keeps every retained
// entry's original provenance, has an EMPTY journal (the generating
// campaign's schedule no longer describes it), and checkpoints the merged
// coverage of the retained set as its complete, final state.
//
// Because there is no journal, a derived corpus cannot resume — but it can
// be VERIFIED: Session::Replay dispatches corpora with a `transform` tag to
// VerifyDerivedCorpus below, which re-derives the coverage state from
// scratch and runs the same stored-state check a journal replay ends with
// (Session::StoredStateMismatch: every entry re-predicts, still disagrees
// and names the right deviator; the coverage matches the checkpoint byte for
// byte).
#ifndef DX_SRC_CORPUS_MAINTENANCE_H_
#define DX_SRC_CORPUS_MAINTENANCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/corpus/corpus.h"
#include "src/coverage/coverage_metric.h"
#include "src/nn/execution_plan.h"

namespace dx {

// One input's coverage contribution: per-model CoverageMetric clones
// (session model order) that observed exactly that input.
using CoverageFootprint = std::vector<std::unique_ptr<CoverageMetric>>;

// Per-model before/after covered-item counts of a maintenance pass.
struct ModelCoverageDelta {
  std::string model;
  int covered_before = 0;
  int covered_after = 0;
  int total_items = 0;
};

// What a maintenance pass did — printed by the CLI verbs and exported by
// the daemon's /metrics after a `compact` request.
struct MaintenanceReport {
  std::string transform;  // "distill", "dedup", "minimize" or a "+"-chain.
  uint64_t input_entries = 0;
  uint64_t retained_entries = 0;
  uint64_t modified_entries = 0;  // minimize: entries whose input changed.
  uint64_t reverted_values = 0;   // minimize: values reverted to the seed.
  std::vector<ModelCoverageDelta> coverage;
  double seconds = 0.0;

  std::string ToString() const;
};

// Computes one footprint per input: each starts from Clone()s of the
// session's CURRENT per-model metrics (call Session::ResetForCorpus first so
// they are empty but calibrated) and observes exactly one input. Forward passes are batched per model through
// ExecutionPlan::ForwardChunks at the session's batch_size.
std::vector<CoverageFootprint> ComputeFootprints(Session& session,
                                                 const std::vector<const Tensor*>& inputs);

// The same through caller-owned `plans` (one per session model, in session
// order), so a caller that evaluates many small input sets keeps its plans
// warm. When `predictions` is set it also receives every input's
// Prediction, read from the same forward passes.
std::vector<CoverageFootprint> ComputeFootprints(Session& session,
                                                 std::vector<ExecutionPlan>& plans,
                                                 const std::vector<const Tensor*>& inputs,
                                                 std::vector<Prediction>* predictions);

// Deep-copies a footprint.
CoverageFootprint CloneFootprint(const CoverageFootprint& fp);

// Merges `fp` into `acc` model-by-model (Merge is commutative/idempotent).
void MergeFootprint(CoverageFootprint& acc, const CoverageFootprint& fp);

// Sum over models of covered_items().
int64_t CoveredItems(const CoverageFootprint& fp);

// Would merging `fp` into `acc` cover anything new? (Counts on a throwaway
// clone; neither argument is mutated.)
bool AddsCoverage(const CoverageFootprint& acc, const CoverageFootprint& fp);

// Mean Coverage() across a footprint's models (what a checkpoint stamps as
// mean_coverage).
float MeanFootprintCoverage(const CoverageFootprint& fp);

// Writes `entries` as a new derived corpus at `out_dir`: the source
// manifest with `transform` appended to any existing transform chain and
// `derived_from` set to the source directory, the retained entries with
// their original provenance, an empty journal, and a complete checkpoint
// whose metric blobs serialize `merged` (the merged retained footprints) —
// counters are carried from the source checkpoint as provenance. Throws if
// `out_dir` already holds an initialized corpus.
void WriteDerivedCorpus(const Corpus& source, const std::string& transform,
                        const std::vector<GeneratedTest>& entries,
                        const CoverageFootprint& merged, const std::string& out_dir);

// Verification backend of Session::Replay for derived corpora: re-derives
// the coverage state from scratch (Session::ResetForCorpus, then every entry
// in order), then requires Session::StoredStateMismatch to pass — each entry
// re-predicts to its stored labels/outputs, is still difference-inducing
// and names the deviator the oracle picks, and the re-derived coverage
// serializes to the checkpoint's metric blobs byte for byte — and the mean
// coverage to match. The session must be wired like the corpus
// (Session::CheckWiring throws std::invalid_argument otherwise); its
// coverage state is reset.
ReplayResult VerifyDerivedCorpus(Session& session, const Corpus& corpus);

}  // namespace dx

#endif  // DX_SRC_CORPUS_MAINTENANCE_H_
