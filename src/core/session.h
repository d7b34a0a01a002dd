// Session: the engine's entry point, wiring models + constraint +
// CoverageMetric + Objective + SeedScheduler into one run loop, with
// optional seed-level parallelism.
//
// A session runs Algorithm 1's outer loop over the seed stream the scheduler
// emits. Seeds execute on the batched Executor (src/core/executor.h): each
// sync batch is one pool of rows, and drainers step up to `batch_size` rows
// at a time, so each step is one batched forward pass per model whose
// activations are shared by the difference check, the coverage update and
// the objective gradient — exactly one forward per (seed, model,
// iteration). Rows that finish leave a step and waiting rows join the next,
// so no drainer idles while another holds the batch's longest ascents.
// Results are bit-identical for any batch size.
//
// Seeds are processed in fixed-size sync batches (`sync_interval`),
// optionally on a thread pool: every task in a batch runs against Clone()d
// coverage trackers frozen at the batch start and its own RNG stream
// (TaskRngSeed); after the batch barrier the task-local trackers are
// Merge()d into the session trackers and outcomes are reported to the
// scheduler — all in schedule order. Because neither the batch composition,
// the per-task RNG streams, nor the merge order depend on the worker count,
// a run's results (tests found, coverage, scheduler feedback) are identical
// for any `workers` value given a fixed rng_seed. Every run — Run, Replay,
// and the service's stepped campaigns — is a loop over SessionRun::Step.
//
// The default SessionConfig is the paper's wiring (neuron coverage + joint
// objective + round-robin scheduling, one worker); tests/reference/ holds a
// plain per-seed Algorithm 1 loop that the engine is checked against.
#ifndef DX_SRC_CORE_SESSION_H_
#define DX_SRC_CORE_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/core/objective.h"
#include "src/core/seed_scheduler.h"
#include "src/coverage/coverage_metric.h"
#include "src/nn/model.h"
#include "src/util/thread_pool.h"

namespace dx {

class Corpus;
class Executor;
struct ExecutorProfile;

// The paper's per-run hyperparameters (Algorithm 1 / Table 2).
struct EngineConfig {
  // λ1: how hard model j's consensus confidence is pushed down relative to
  // keeping the other models up (Equation 2).
  float lambda1 = 1.0f;
  // λ2: weight of the neuron-coverage objective (Equation 3). 0 disables it.
  float lambda2 = 0.1f;
  // s: gradient-ascent step size.
  float step = 10.0f;
  // t and scaling used by the coverage trackers (plus the per-metric knobs).
  CoverageOptions coverage;
  // Gradient-ascent iteration budget per seed.
  int max_iterations_per_seed = 50;
  // Regression difference predicate: |angle_i − angle_j| > steering_eps.
  float steering_eps = 0.2f;
  // RMS-normalize the joint gradient before stepping (the reference
  // implementation's behavior). Disable only for the ablation study — raw
  // gradients vanish once softmax outputs saturate, making s meaningless.
  bool normalize_gradient = true;
  // Fix j (the model pushed away from the consensus) instead of picking one
  // uniformly per seed; -1 keeps Algorithm 1's random choice. Table 2 reports
  // per-DNN difference counts, which targets each model in turn. The Session
  // rejects a value outside [-1, number of models).
  int forced_target_model = -1;
  uint64_t rng_seed = 1234;

  // Field-wise, coverage options included (Session::CheckWiring).
  bool operator==(const EngineConfig&) const = default;
};

// Full session wiring: engine hyperparameters plus the pluggable components
// (by factory name) and the parallelism knobs. A corpus manifest records all
// but workers, batch_size and profile_phases (RecordedConfig in corpus.h).
struct SessionConfig {
  EngineConfig engine;
  // CoverageMetric factory key: "neuron", "kmultisection", "topk", ...
  std::string metric = "neuron";
  // Objective factory key: "joint", "differential", "fgsm", "random".
  std::string objective = "joint";
  // SeedScheduler factory key: "roundrobin", "coverage-gain".
  std::string scheduler = "roundrobin";
  // Parallel seed workers; 1 = serial, 0 = hardware concurrency. Must be
  // >= 0.
  int workers = 1;
  // Most rows an executor step holds: the width of the batched forward
  // passes (src/core/executor.h). Results are bit-identical for ANY value
  // (batched kernels never reorder a per-sample reduction; asserted by
  // tests), so this is purely a throughput knob. A sync batch runs on
  // min(workers, ceil(sync_interval / batch_size)) drainers — keep
  // sync_interval >= workers * batch_size to saturate the workers.
  int batch_size = 8;
  // Seeds per batch between coverage sync points. Fixed (never derived from
  // `workers`) so results are invariant to the worker count; it bounds the
  // parallelism, since a batch's rows are all a drainer can take — the
  // default supports 8 workers at the default batch_size. Smaller values
  // tighten scheduler/coverage feedback (1 makes every seed see the
  // coverage of all seeds before it), larger values expose more
  // parallelism. Must be >= 1.
  int sync_interval = 64;
  // Collect per-phase wall-time in the batched executor (stack / forward /
  // backward layers / objective accumulate / constraint / coverage — see
  // ExecutorProfile and the CLI's --profile flag). Purely observational:
  // never affects results and is not part of the corpus manifest.
  bool profile_phases = false;
};

struct GeneratedTest {
  Tensor input;                // The difference-inducing input.
  int seed_index = 0;          // Which seed it grew from.
  int iterations = 0;          // Gradient steps taken.
  int deviating_model = 0;     // Index of the model that left the consensus.
  std::vector<int> labels;     // Per-model predicted class (classification).
  std::vector<float> outputs;  // Per-model scalar output (regression).
  // Global schedule position of the task that produced this test. Together
  // with the engine rng_seed it pins the task's RNG stream — the provenance
  // a corpus needs to replay the test deterministically (src/corpus/).
  uint64_t task_ordinal = 0;
  // Wall time from the start of its sync batch's executor Run until the
  // test was found. The Run steps the batch's other seeds alongside it, so
  // this includes their compute — comparable across runs at fixed
  // batch_size and workers, not across either.
  double seconds = 0.0;
};

// Progress snapshot handed to RunOptions::on_batch after every completed
// sync batch (checkpoint boundary). Counters are campaign-cumulative: a
// resumed run reports the totals an uninterrupted run would, so consumers
// (daemon status endpoints, the CLI --progress line) never need to poll the
// corpus.
struct RunProgress {
  uint64_t batches = 0;  // Sync batches completed, including restored legs.
  int seeds_tried = 0;
  int seeds_skipped = 0;
  int tests_found = 0;
  int64_t total_iterations = 0;
  int64_t forward_passes = 0;
  float mean_coverage = 0.0f;
  // Active stepping wall time (excludes time a paused campaign sat idle).
  double seconds = 0.0;
  bool done = false;  // A terminal condition (not a leg bound) was hit.
};

struct RunOptions {
  int max_tests = 1 << 30;
  // How many times to cycle through the seed list (Algorithm 1 cycles
  // indefinitely; benches bound it).
  int max_seed_passes = 1;
  double max_seconds = 1e18;
  // Stop when every model's tracker reaches this coverage (> 1 disables).
  float coverage_goal = 1.1f;
  // Stop after this many sync batches (checkpoint boundaries). Unlike the
  // bounds above this leaves the campaign *incomplete*: a corpus-recorded
  // run cut here resumes exactly where it stopped, which is how interrupted
  // or sharded campaign legs are modeled. Per-leg, not stored in the corpus.
  int64_t max_sync_batches = int64_t{1} << 60;
  // Called after every completed sync batch with a progress snapshot. Purely
  // observational — never affects results and is not part of the corpus
  // manifest.
  std::function<void(const RunProgress&)> on_batch;
};

struct RunStats {
  std::vector<GeneratedTest> tests;
  int seeds_tried = 0;
  int seeds_skipped = 0;  // No seed-time consensus, or iteration budget exhausted.
  int64_t total_iterations = 0;
  double seconds = 0.0;
  // Mean coverage across models at the end of the run.
  float mean_coverage = 0.0f;
  // Per-sample model forward passes spent during the run, summed over all
  // models (includes seed profiling). With the batched executor this is
  // exactly one pass per (seed, model, iteration) plus one consensus pass
  // per (seed, model); deterministic for any worker count or batch size.
  // Resumed runs report the cumulative campaign total (checkpointed passes
  // plus this leg's), so the number matches an uninterrupted run.
  int64_t forward_passes = 0;
};

// Pointers to each test's input, in order — the sample list
// Session::Predict and ExecutionPlan::ForwardChunks take.
std::vector<const Tensor*> TestInputs(const std::vector<GeneratedTest>& tests);

// The models' predictions on one input: per-model argmax labels for a
// classification trio, or per-model scalar outputs for a regression trio —
// exactly one of the two is filled, in model order. These are the fields a
// GeneratedTest records.
struct Prediction {
  std::vector<int> labels;
  std::vector<float> outputs;
};

// Algorithm 1's cross-referencing oracle (§3), the one rule every part of
// the engine judges disagreement by: the models disagree when any label
// differs (classification), or when their outputs spread more than
// `steering_eps` (regression).
bool ModelsDisagree(const Prediction& prediction, float steering_eps);

// The model that left the consensus: the first model whose label no other
// model shares (classification; 0 when there is none), or the model whose
// output lies farthest from the ensemble mean (regression).
int DeviatingModel(const Prediction& prediction);

// Outcome of Session::Replay: a deterministic re-run of a recorded campaign
// checked entry-by-entry against the corpus.
struct ReplayResult {
  bool ok = true;
  // Human-readable description of the first divergence (empty when ok).
  std::string mismatch;
  // Stats of the verification re-run (bit-identical to the recorded
  // campaign when ok).
  RunStats stats;
};

// Seed of the RNG stream owned by the task at global schedule position
// `ordinal` (GeneratedTest::task_ordinal) in a campaign with engine
// `rng_seed`. It depends on nothing else — not the worker, drainer, or step
// width that runs the task — so results are invariant to those knobs and a
// corpus entry's provenance pins its stream.
uint64_t TaskRngSeed(uint64_t rng_seed, uint64_t ordinal);

class SessionRun;

class Session {
 public:
  // `models` must outlive the session and keep their weights while it
  // lives: the executor pools its compiled plans for the session's life,
  // and a plan computes dense forward from the weights it saw at Compile
  // (src/nn/execution_plan.h). Retrain a model only after its sessions are
  // gone. All models must share input/output shapes.
  // Classification models must end in softmax; a 1-element output without
  // softmax is treated as regression. Metric/objective/scheduler are built
  // from the factory names in `config`; throws std::invalid_argument on
  // unknown names, invalid model sets, sync_interval / batch_size < 1 or
  // workers < 0.
  Session(std::vector<Model*> models, const Constraint* constraint, SessionConfig config);
  ~Session();  // Out of line: Executor is an incomplete type here.

  bool regression() const { return regression_; }
  int num_models() const { return static_cast<int>(models_.size()); }
  const Model& model(int k) const { return *models_[static_cast<size_t>(k)]; }
  const SessionConfig& config() const { return config_; }
  const Objective& objective() const { return *objective_; }
  const SeedScheduler& scheduler() const { return *scheduler_; }

  // The session-global coverage tracker of one model.
  CoverageMetric& metric(int model_index) {
    return *metrics_[static_cast<size_t>(model_index)];
  }
  const CoverageMetric& metric(int model_index) const {
    return *metrics_[static_cast<size_t>(model_index)];
  }

  // Every model's prediction on each input, computed on compiled
  // ExecutionPlans in chunks of config().batch_size — the kernels the
  // executor generates tests with, so a recorded test re-predicts bit for
  // bit. Throws std::invalid_argument when an input's shape differs from the
  // models' input shape.
  std::vector<Prediction> Predict(const std::vector<const Tensor*>& inputs) const;

  // Runs the scheduler's seed stream (in parallel for workers > 1) until an
  // option bound is hit. Results are identical for any worker count.
  //
  // With a `corpus` the run is durable: it records every difference-inducing
  // input (with provenance), the scheduler journal, and per-batch coverage
  // checkpoints (src/corpus/corpus.h). An uninitialized corpus starts a
  // new campaign (the manifest captures config + options + seeds); a corpus
  // with a checkpoint RESUMES it — coverage state, scheduler position, and
  // counters are restored and the run continues at the next sync batch,
  // producing results bit-identical to an uninterrupted run (forward_passes
  // and coverage are cumulative, never double-counted). The session should
  // be freshly constructed when recording or resuming; config and seeds
  // must match the manifest (std::invalid_argument otherwise). batch_size
  // and workers may differ freely between legs — results are invariant to
  // both.
  RunStats Run(const std::vector<Tensor>& seeds, const RunOptions& options,
               Corpus* corpus = nullptr);

  // Opens an incrementally steppable run (see SessionRun below): the same
  // semantics as Run(seeds, options, corpus) but the caller drives the sync
  // batches one Step() at a time and may pause indefinitely between them.
  // `seeds` must outlive the returned run. Throws std::invalid_argument on a
  // corpus/config mismatch.
  std::unique_ptr<SessionRun> BeginRun(const std::vector<Tensor>& seeds,
                                       const RunOptions& options, Corpus* corpus);

  // Borrows an external thread pool for parallel sync batches instead of the
  // session-owned pool sized from config().workers — how a service
  // multiplexes many concurrent sessions over one shared pool. Non-owning;
  // pass nullptr to return to the config-sized pool. Never affects results
  // (they are worker-count invariant), only where the work runs.
  void SetWorkerPool(ThreadPool* pool) { external_pool_ = pool; }

  // Deterministic replay: re-executes the recorded campaign from scratch
  // (corpus-stored seeds, options, and leg boundary) through the batched
  // Executor and verifies bit-identical results — every generated test is
  // compared field-by-field (input bits, labels/outputs, deviator,
  // iterations, RNG provenance) against the stored entries, and the
  // difference counts and forward-pass counters against the checkpoint —
  // then runs StoredStateMismatch on the result. A derived maintenance
  // corpus (no journal) is verified by VerifyDerivedCorpus instead
  // (src/corpus/maintenance.h). Resets this session's coverage state. The
  // session must be wired like the corpus (CheckWiring; build it from
  // RecordedConfig — batch_size/workers are free).
  ReplayResult Replay(const Corpus& corpus);

  // The check wherever a session meets a manifest (replay, resume, the
  // maintenance passes): throws std::invalid_argument unless the plug-in
  // keys, constraint, EngineConfig, sync_interval and model names match.
  void CheckWiring(const Corpus& corpus) const;

  // The stored-state check shared by Replay and VerifyDerivedCorpus. Every
  // corpus entry must re-predict (Predict) to its stored labels/outputs,
  // still make the models disagree, and name the model DeviatingModel picks;
  // and every model's current coverage state must serialize to the
  // checkpoint's blob byte for byte. Returns a description of the first
  // divergence, or an empty string when the corpus checks out.
  std::string StoredStateMismatch(const Corpus& corpus) const;

  // Feeds every seed's trace to the ProfileSeed of each metric whose
  // WantsSeedProfile() asks for it (k-multisection range calibration). The
  // traces come from a compiled ExecutionPlan — the kernels the executor
  // later buckets with — so the profile is the same at any batch_size. A
  // fresh Run() calls this once; a resume restores the profile instead.
  void ProfileSeeds(const std::vector<Tensor>& seeds);

  // Mean coverage across the per-model trackers.
  float MeanCoverage() const;

  // Per-phase executor wall-time accumulated so far (meaningful when
  // config().profile_phases is set; zeros otherwise).
  ExecutorProfile ExecutorPhases() const;

  // Threads a run's sync batches execute on without a borrowed pool:
  // config().workers, or the hardware concurrency when that is 0.
  int EffectiveWorkers() const;

  // CheckWiring, then fresh coverage trackers profiled on the manifest's
  // seeds: the state the maintenance passes and derived-corpus verification
  // (src/corpus/maintenance.h) re-derive coverage from.
  void ResetForCorpus(const Corpus& corpus);

 private:
  friend class SessionRun;  // The lifted run state drives the private parts.

  struct ReplayCursor;  // Entry-by-entry verifier state (session.cc).

  std::vector<std::unique_ptr<CoverageMetric>> CloneMetrics() const;
  // Rebuilds fresh (empty, unprofiled) coverage trackers.
  void ResetRunState();
  // The one run loop behind Run/Replay: steps a SessionRun until a bound is
  // hit. `corpus` (optional) receives entries/journal/checkpoints, `replay`
  // (optional) verifies generated tests against a recorded corpus as they
  // appear.
  RunStats RunLoop(const std::vector<Tensor>& seeds, const RunOptions& options,
                   Corpus* corpus, ReplayCursor* replay);
  // The resume check: refuses derived corpora (no journal), then runs
  // CheckWiring and compares the campaign bounds and the seed pool.
  void ValidateCorpus(const Corpus& corpus, const std::vector<Tensor>& seeds,
                      const RunOptions& options) const;
  // Restores coverage state + counters from the corpus checkpoint and the
  // scheduler position by replaying the journal through it.
  void RestoreFromCheckpoint(const Corpus& corpus, const std::vector<Tensor>& seeds,
                             const RunOptions& options, RunStats* stats);

  std::vector<Model*> models_;
  const Constraint* constraint_;
  SessionConfig config_;
  bool regression_;
  std::vector<std::unique_ptr<CoverageMetric>> metrics_;
  std::unique_ptr<Objective> objective_;
  std::unique_ptr<SeedScheduler> scheduler_;
  std::unique_ptr<Executor> executor_;  // Batched execution engine.
  std::unique_ptr<ThreadPool> pool_;
  ThreadPool* external_pool_ = nullptr;  // Borrowed via SetWorkerPool.
  bool profiled_ = false;
};

// The state of one in-flight Session run, lifted out of the run loop's stack
// frame into an addressable object: scheduler position (held by the session's
// scheduler), global task counter, cumulative RunStats, forward-pass
// accounting, and the corpus/replay cursors. Session::Run is now a loop over
// Step(); a service holds one SessionRun per campaign and interleaves Step()
// calls from a shared worker pool. Step boundaries are exactly the sync-batch
// boundaries results are already deterministic at, so a run paused between
// steps — for seconds or across a daemon restart via its corpus checkpoint —
// finishes bit-identical to an uninterrupted Session::Run at any worker
// count.
//
// Not thread-safe: Step/Snapshot/stats must be externally serialized (they
// may run from different threads over time — a mutex or queue handoff
// provides the needed ordering). Progress() is safe to call concurrently
// with nothing; callers wanting lock-free status should cache the snapshots
// on_batch hands out. The Session, seed vector, and corpus must outlive the
// run, and at most one SessionRun per Session may be live.
class SessionRun {
 public:
  ~SessionRun();
  SessionRun(const SessionRun&) = delete;
  SessionRun& operator=(const SessionRun&) = delete;

  // Executes one sync batch (scheduling, the executor Run, merge/report,
  // corpus append + checkpoint, on_batch callback). Returns true when the
  // batch ran, false when the campaign is complete (scheduler exhausted or a
  // terminal bound was already hit) — after false, done() is true and the
  // corpus checkpoint (if any) is stamped complete.
  bool Step();

  // True once a terminal condition was hit: max_tests, coverage goal,
  // scheduler exhausted, or replay divergence. Leg bounds (max_sync_batches,
  // max_seconds) never set this — they are the caller's loop conditions.
  bool done() const { return done_; }

  // Live view of the accumulated stats (seconds/mean_coverage/forward_passes
  // are only stamped by Snapshot).
  const RunStats& stats() const { return stats_; }

  // The stats a completed Run call would return right now: counters plus the
  // freshly stamped seconds, mean coverage, and cumulative forward passes.
  RunStats Snapshot() const&;
  // The same, moving the tests out instead of copying them — for a caller
  // done with the run, which keeps its counters but no longer its tests.
  RunStats Snapshot() &&;

  // Lightweight counters-only snapshot (what on_batch receives).
  RunProgress Progress() const;

  // Active stepping wall time so far (the max_seconds bound is enforced
  // against this, so paused time never counts against a campaign).
  double active_seconds() const { return active_seconds_; }

 private:
  friend class Session;

  SessionRun(Session* session, const std::vector<Tensor>* seeds, RunOptions options,
             Corpus* corpus, Session::ReplayCursor* replay);

  // forward_offset_ - forward_base_ + live model counters: the campaign-total
  // forward pass count across resume legs.
  int64_t CumulativeForwardPasses() const;

  Session* session_;
  const std::vector<Tensor>* seeds_;
  RunOptions options_;
  Corpus* corpus_;
  Session::ReplayCursor* replay_;
  RunStats stats_;
  uint64_t task_counter_ = 0;
  uint64_t batches_ = 0;        // Campaign-total sync batches (incl. restored).
  int64_t forward_base_ = 0;    // Model counters at construction.
  int64_t forward_offset_ = 0;  // Passes accumulated by earlier legs.
  double active_seconds_ = 0.0;
  bool done_ = false;
};

}  // namespace dx

#endif  // DX_SRC_CORE_SESSION_H_
