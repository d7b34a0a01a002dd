// Corpus: the durable on-disk store behind long-running test campaigns.
//
// A corpus directory owns everything needed to reproduce, resume, or audit a
// Session campaign:
//
//   manifest.bin    campaign identity, written once at Initialize: the
//                   result-affecting session wiring (metric/objective/
//                   scheduler names, full EngineConfig incl. rng_seed,
//                   sync_interval), the campaign bounds (max_tests,
//                   max_seed_passes, coverage_goal), the model names, the
//                   full seed pool, and free-form metadata (domain,
//                   constraint, ...).
//   entries.bin     append-only stream of difference-inducing inputs with
//                   provenance (seed index, iteration count, deviating
//                   model, per-model labels/outputs, task ordinal — which
//                   pins the task's RNG stream given the engine rng_seed).
//   journal.bin     append-only scheduler journal: per sync batch, the
//                   scheduled seed indices and the (found, coverage-gain)
//                   outcomes reported back. Replaying this stream through a
//                   freshly Reset scheduler reconstructs its exact state
//                   without requiring schedulers to be serializable.
//   checkpoints.bin segmented checkpoint chain: an append-only sequence of
//                   framed records — periodic FULL snapshots (RunStats
//                   counters, entry/journal high-water marks, serialized
//                   per-model coverage state via CoverageMetric::Serialize,
//                   and an optional scheduler state blob) interleaved with cheap DELTA records that
//                   carry only the scalar counters. Writing a snapshot
//                   atomically rewrites the chain down to that single
//                   snapshot (tmp + rename), so the chain never grows past
//                   one snapshot + snapshot_interval deltas. Per-batch
//                   checkpoint I/O is therefore O(counters), not O(coverage
//                   state), and resume cost is O(delta since the last
//                   snapshot) — the resumed run re-executes at most
//                   snapshot_interval batches deterministically. A
//                   monolithic checkpoint.bin (the pre-chain format) is
//                   refused on open.
//
// Crash safety (process level): entries and journal batches are appended
// and flushed BEFORE the checkpoint record that covers them is written, so
// a killed process leaves at most a trailing suffix not covered by a
// restorable checkpoint; Open() trims both files back to the restorable
// checkpoint's high-water marks (and a corpus with no checkpoint is treated
// as empty). For the segmented chain the restorable checkpoint is the last
// fully-valid SNAPSHOT record: a chain truncated mid-record is cut back to
// its last valid snapshot on open (deltas carry no coverage state, so they
// are progress/stats records, never resume points), and the dropped batches
// are re-executed deterministically on resume. Resumption therefore always
// restarts at a sync-batch boundary, which is exactly the granularity at
// which Session results are deterministic. The files are NOT fsync'd, so a
// power loss / kernel crash can reorder appends and renames on disk and
// leave a corpus that fails to open (a clean std::runtime_error, never
// silent divergence) — acceptable for a per-machine campaign artifact.
//
// The files use the util/serialize little-endian POD format: a per-machine
// artifact, not an interchange format.
#ifndef DX_SRC_CORPUS_CORPUS_H_
#define DX_SRC_CORPUS_CORPUS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/session.h"

namespace dx {

inline constexpr uint32_t kCorpusFormatVersion = 1;

// The campaign identity stored in manifest.bin. Everything here either
// affects results bit-for-bit (config, engine, bounds, seeds) or documents
// the campaign (model names, metadata). Deliberately absent: batch_size and
// workers — Session results are invariant to both, so a campaign may be
// recorded serially and resumed on many workers (or vice versa).
struct CorpusMeta {
  std::string metric;
  std::string objective;
  std::string scheduler;
  // Constraint::name() of the recording session — validated on resume (a
  // different input-rewriting rule would silently diverge the campaign).
  std::string constraint;
  EngineConfig engine;
  int sync_interval = 0;
  bool profile_from_seeds = true;
  // Campaign bounds (the result-affecting subset of RunOptions; max_seconds
  // and max_sync_batches are per-leg knobs and deliberately not stored).
  int max_tests = 0;
  int max_seed_passes = 0;
  float coverage_goal = 1.1f;
  std::vector<std::string> model_names;
  // Free-form campaign annotations ("domain", "constraint", ...).
  std::vector<std::pair<std::string, std::string>> metadata;
  // The full seed pool, making the corpus self-contained for replay.
  std::vector<Tensor> seeds;

  const std::string* FindMetadata(const std::string& key) const;
};

struct CorpusCheckpoint {
  struct JournalRecord {
    int seed_index = 0;
    bool found = false;
    float gain = 0.0f;
  };

  // True once the campaign hit a terminal condition (scheduler exhausted,
  // max_tests, or coverage goal) — resuming a complete corpus is a no-op
  // that returns the recorded stats.
  bool complete = false;
  uint64_t task_counter = 0;
  int seeds_tried = 0;
  int seeds_skipped = 0;
  int64_t total_iterations = 0;
  int64_t forward_passes = 0;
  uint64_t num_tests = 0;       // High-water mark into entries.bin.
  uint64_t num_batches = 0;     // High-water mark into journal.bin.
  float mean_coverage = 0.0f;
  // One CoverageMetric::Serialize blob per model, session order.
  std::vector<std::string> metric_blobs;
  // SeedScheduler::SaveState blob (empty when the scheduler doesn't support
  // snapshots — resume then falls back to replaying the journal).
  std::string scheduler_blob;
};

// A read-only summary of a corpus directory (see Corpus::Stats). The
// breakdown keys (domain, objective, ...) come from the manifest, so stats
// from many corpora can be aggregated per domain / per objective.
struct CorpusStats {
  std::string domain;  // "" when the manifest carries no domain annotation.
  std::string objective;
  std::string metric;
  std::string scheduler;
  uint64_t num_entries = 0;
  uint64_t num_seeds = 0;
  uint64_t journal_batches = 0;
  // Difference-inducing entries attributed to each model (deviating_model),
  // indexed like meta().model_names.
  std::vector<uint64_t> entries_per_model;
  // On-disk footprint, bytes.
  uint64_t manifest_bytes = 0;
  uint64_t entries_bytes = 0;
  uint64_t journal_bytes = 0;
  uint64_t checkpoint_bytes = 0;  // checkpoints.bin.
  uint64_t total_bytes = 0;
  // Checkpoint chain shape: snapshots is 0 or 1 (a snapshot write compacts
  // the chain), deltas counts records appended since.
  uint64_t chain_snapshots = 0;
  uint64_t chain_deltas = 0;
  bool complete = false;
  float mean_coverage = 0.0f;
};

class Corpus {
 public:
  // Opens (creating the directory if needed) a corpus rooted at `dir`. An
  // existing manifest is loaded along with the checkpoint, entries, and
  // journal — trimmed back to the checkpoint's high-water marks (see the
  // crash-safety note above). Throws std::runtime_error on corrupt or
  // version-mismatched files, including a pre-chain checkpoint.bin.
  explicit Corpus(std::string dir);

  const std::string& dir() const { return dir_; }

  // True once a manifest exists (Initialize has run here or in a previous
  // process).
  bool initialized() const { return initialized_; }

  // Annotations folded into the manifest at Initialize time (no-op after —
  // the manifest is immutable). Call before the first Session::Run.
  void SetMetadata(const std::string& key, const std::string& value);

  // Writes the manifest. Called by Session::Run on first recording; throws
  // std::logic_error when already initialized.
  void Initialize(CorpusMeta meta);
  const CorpusMeta& meta() const;

  // Appends one difference-inducing test (provenance included) to
  // entries.bin.
  void AppendEntry(const GeneratedTest& test);
  const std::vector<GeneratedTest>& entries() const { return entries_; }

  // Appends one sync batch's scheduler journal to journal.bin.
  void AppendJournalBatch(const std::vector<CorpusCheckpoint::JournalRecord>& batch);
  const std::vector<std::vector<CorpusCheckpoint::JournalRecord>>& journal() const {
    return journal_;
  }

  // Persists a resume point. The checkpoint's high-water marks must match
  // the entries/journal already appended. Writes a full snapshot when the
  // checkpoint is complete, when the chain has no snapshot yet, or every
  // snapshot_interval-th call — and a cheap counters-only delta otherwise.
  // The in-memory checkpoint() always reflects the full `checkpoint` passed
  // here, regardless of what was thinned on disk.
  void WriteCheckpoint(const CorpusCheckpoint& checkpoint);
  bool has_checkpoint() const { return has_checkpoint_; }
  const CorpusCheckpoint& checkpoint() const;

  // Forces the current checkpoint state to be durable as a full snapshot
  // (no-op when there is no checkpoint or when the chain is already exactly
  // at the latest checkpoint). Sessions call this at the end of every run
  // leg so a clean shutdown never loses batches to the delta window.
  void Sync();

  // Every how-many WriteCheckpoint calls the chain takes a full snapshot
  // (default 8; min 1 = snapshot every time).
  void SetSnapshotInterval(int every);

  // Summarizes the corpus (entry counts, on-disk bytes, checkpoint chain
  // shape, manifest breakdown keys). Purely observational — reads file
  // sizes, never loads models.
  CorpusStats Stats() const;

 private:
  void Load();
  void LoadChain();
  void RewriteEntries();
  void RewriteJournal();
  void WriteSnapshot(const CorpusCheckpoint& checkpoint);
  void AppendDelta(const CorpusCheckpoint& checkpoint);
  std::string ManifestPath() const;
  std::string EntriesPath() const;
  std::string JournalPath() const;
  std::string ChainPath() const;

  std::string dir_;
  bool initialized_ = false;
  bool has_checkpoint_ = false;
  CorpusMeta meta_;
  CorpusCheckpoint checkpoint_;
  std::vector<GeneratedTest> entries_;
  std::vector<std::vector<CorpusCheckpoint::JournalRecord>> journal_;
  std::vector<std::pair<std::string, std::string>> pending_metadata_;

  int snapshot_interval_ = 8;
  bool chain_has_snapshot_ = false;  // checkpoints.bin holds a snapshot.
  uint64_t chain_deltas_ = 0;        // Delta records since that snapshot.
  // True when the durable chain state lags the in-memory checkpoint_ (the
  // latest WriteCheckpoint only produced a delta); Sync() then snapshots.
  bool chain_dirty_ = false;
};

}  // namespace dx

#endif  // DX_SRC_CORPUS_CORPUS_H_
