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
//   checkpoints.bin the resume point: one framed SNAPSHOT record (RunStats
//                   counters, entry/journal high-water marks, and the
//                   serialized per-model coverage state via
//                   CoverageMetric::Serialize), replaced whole via tmp +
//                   rename. A snapshot is written on the first checkpoint,
//                   on a complete one, on every 8th one, and by Sync() at
//                   the end of every run leg; the checkpoints in between
//                   only live in memory. The scheduler is never serialized:
//                   a resume replays the journal through a freshly Reset
//                   scheduler. A monolithic checkpoint.bin (the pre-chain
//                   format) is refused on open.
//
// Opening never writes. A reader — `corpus stats`, replay, the maintenance
// passes, a probe — sees the state as of the last snapshot: the entries and
// journal batches it covers are read, and anything past its high-water marks
// is ignored. Such a tail is either the current writer's batches since that
// snapshot or, after a crash, batches nobody will checkpoint; a corpus with
// no valid snapshot (a record cut short) opens as an empty campaign.
//
// Crash safety (process level): entries and journal batches are appended
// and flushed BEFORE the snapshot that covers them is renamed into place,
// so a killed process leaves at most an uncovered suffix. A resuming writer
// cuts that suffix off (resize_file) before its first append or checkpoint
// and re-executes the dropped batches deterministically. Resumption
// therefore always restarts at a sync-batch boundary, which is exactly the
// granularity at which Session results are deterministic. The files are
// NOT fsync'd, so a power loss / kernel crash can reorder appends and
// renames on disk and leave a corpus that fails to open (a clean
// std::runtime_error, never silent divergence) — acceptable for a
// per-machine campaign artifact.
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
  // Checkpoint state: snapshots is 1 once checkpoints.bin holds a snapshot,
  // deltas counts the checkpoints this handle holds in memory since it.
  uint64_t chain_snapshots = 0;
  uint64_t chain_deltas = 0;
  bool complete = false;
  float mean_coverage = 0.0f;
};

class Corpus {
 public:
  // Opens the corpus rooted at `dir` without writing anything (a missing
  // directory is an uninitialized corpus). An existing manifest is loaded
  // along with the snapshot and the entries and journal batches it covers
  // (see the note above). Throws std::runtime_error on corrupt or
  // version-mismatched files, including a pre-chain checkpoint.bin.
  explicit Corpus(std::string dir);

  const std::string& dir() const { return dir_; }

  // True once a manifest exists (Initialize has run here or in a previous
  // process).
  bool initialized() const { return initialized_; }

  // Annotations folded into the manifest at Initialize time (no-op after —
  // the manifest is immutable). Call before the first Session::Run.
  void SetMetadata(const std::string& key, const std::string& value);

  // Creates the directory and writes the manifest (tmp + rename, so a
  // concurrent open never sees half of it). Called by Session::Run on first
  // recording; throws std::logic_error when already initialized.
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

  // Records a resume point. The checkpoint's high-water marks must match
  // the entries/journal already appended. Writes a snapshot when the
  // checkpoint is complete, when checkpoints.bin holds none yet, or on every
  // 8th call; otherwise the checkpoint is only kept in memory, where
  // checkpoint() always reflects it.
  void WriteCheckpoint(const CorpusCheckpoint& checkpoint);
  bool has_checkpoint() const { return has_checkpoint_; }
  const CorpusCheckpoint& checkpoint() const;

  // Snapshots the latest checkpoint when it is only held in memory. Sessions
  // call this at the end of every run leg so a clean shutdown never loses
  // batches.
  void Sync();

  // Summarizes the corpus (entry counts, on-disk bytes, checkpoint state,
  // manifest breakdown keys). Purely observational — reads file sizes,
  // never loads models.
  CorpusStats Stats() const;

 private:
  void Load();
  void LoadChain();
  void TrimTails();
  void WriteSnapshot(const CorpusCheckpoint& checkpoint);
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

  bool chain_has_snapshot_ = false;  // checkpoints.bin holds a snapshot.
  uint64_t chain_deltas_ = 0;  // Checkpoints kept in memory since that snapshot.
  // Bytes of entries.bin / journal.bin that the loaded snapshot covers. A
  // writer cuts both files back to them before its first write.
  uint64_t covered_entry_bytes_ = 0;
  uint64_t covered_journal_bytes_ = 0;
  bool tails_trimmed_ = false;
};

}  // namespace dx

#endif  // DX_SRC_CORPUS_CORPUS_H_
