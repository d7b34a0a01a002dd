#ifndef DX_SERVICE_CAMPAIGN_H_
#define DX_SERVICE_CAMPAIGN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/core/executor.h"
#include "src/core/session.h"
#include "src/corpus/corpus.h"
#include "src/nn/model.h"

namespace dx {

// Campaign lifecycle. PENDING campaigns are queued but have never executed a
// batch; RUNNING covers both "a worker is stepping it now" and "between
// slices, waiting in the queue". PAUSED/DONE/FAILED/CANCELLED are reached
// only at sync-batch boundaries, which are the engine's checkpoint and
// determinism boundaries — that is what makes pause/resume bit-identical.
enum class CampaignState {
  kPending,
  kRunning,
  kPaused,
  kDone,
  kFailed,
  kCancelled,
};

const char* CampaignStateName(CampaignState state);

// Everything a `submit` carries. Mirrors the CLI's fresh-run flags. With
// `resume` set, the corpus manifest decides the rest, as for the CLI's
// --resume: only corpus_dir and batch_size are read, and Submit sets domain
// and constraint to the recorded keys that status and list report.
struct CampaignSpec {
  std::string domain;          // registry key, e.g. "mnist"
  std::string constraint;      // variant name; "" or "default" = spec default
  std::string metric = "neuron";
  std::string objective = "joint";
  std::string scheduler = "roundrobin";
  int seeds = 100;             // seed inputs drawn from the domain test set
  int max_tests = 1 << 30;
  int max_seed_passes = 1;
  float coverage_goal = 1.1f;
  int max_iterations_per_seed = 0;  // 0 keeps the domain default
  uint64_t rng_seed = 1234;
  int batch_size = 8;
  int sync_interval = 64;
  std::string corpus_dir;      // "" = ephemeral (in-memory only)
  bool resume = false;         // continue the campaign recorded in corpus_dir
};

// Lightweight control-plane snapshot (what `status`, `list`, and /metrics
// read). Never touches the heavyweight execution state.
struct CampaignStatus {
  uint64_t id = 0;
  CampaignState state = CampaignState::kPending;
  std::string domain;
  std::string constraint;
  std::string corpus_dir;
  std::string error;           // FAILED diagnostics
  RunProgress progress;        // campaign-cumulative counters
  ExecutorProfile profile;     // phase timings (observational)
  double tests_per_second = 0.0;
  // On-disk corpus summary, refreshed at every slice boundary for durable
  // campaigns (false for ephemeral ones or before the first slice).
  bool has_corpus_stats = false;
  CorpusStats corpus_stats;
};

// One addressable campaign: the run state that used to live in stack
// variables of a run-to-completion CLI process (seed pool, scheduler +
// coverage inside Session, corpus handle, progress counters), lifted into an
// object the manager can step, pause, and resume.
//
// Threading contract: `exec` members are touched only by the single worker
// currently executing the campaign (the manager's queue discipline
// guarantees an id is either queued or being executed, never both);
// control-plane members are guarded by the manager's mutex.
struct Campaign {
  uint64_t id = 0;
  CampaignSpec spec;

  // --- execution state (worker-only) ---
  std::vector<Model> models;
  std::unique_ptr<Constraint> constraint;
  std::unique_ptr<Session> session;
  std::unique_ptr<Corpus> corpus;
  std::vector<Tensor> seed_pool;
  std::unique_ptr<SessionRun> run;

  // --- control plane (manager mutex) ---
  CampaignState state = CampaignState::kPending;
  bool queued = false;         // id currently sitting in the worker queue
  bool executing = false;      // a worker is inside RunSlice for this id
  std::string error;
  RunProgress progress;
  ExecutorProfile profile;
  std::unique_ptr<RunStats> final_stats;  // set on kDone
  bool has_corpus_stats = false;          // corpus_stats below is meaningful
  CorpusStats corpus_stats;               // refreshed at slice boundaries

  // --- asynchronous requests (checked at batch boundaries) ---
  std::atomic<bool> pause_requested{false};
  std::atomic<bool> cancel_requested{false};
};

}  // namespace dx

#endif  // DX_SERVICE_CAMPAIGN_H_
