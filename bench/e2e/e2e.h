// Shared pieces of the end-to-end benchmark program (dxbench_e2e): run
// options, the result report, and the helpers the workloads
// (workloads.cc) and the per-layer probes (probes.cc) have in common.
#ifndef DX_BENCH_E2E_E2E_H_
#define DX_BENCH_E2E_E2E_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/trace.h"
#include "src/constraints/constraint.h"
#include "src/core/executor.h"
#include "src/core/session.h"
#include "src/corpus/corpus.h"
#include "src/nn/model.h"

namespace dxbench {

// Compute threads every workload is held to: session workers in-process,
// campaign workers plus the shared pool in the daemon.
inline constexpr int kComputeThreads = 3;
// Seed pools are drawn at 1000003 + seed, disjoint from the zoo's train and
// test draws.
inline constexpr uint64_t kPoolSeedBase = 1000003;
// Independent repetitions of a workload's work (and set-up) per run.
inline constexpr int kRepeats = 5;
// Untimed multi-threaded load right before each measured phase.
inline constexpr double kWarmupSeconds = 2.0;
// Set-ups far shorter than a millisecond are repeated until they add up to
// kSetupSeconds (at most kMaxSetups times), so their median rests on
// enough samples.
inline constexpr double kSetupSeconds = 0.25;
inline constexpr size_t kMaxSetups = 1000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  // Sizes the fixed work of a run: each workload's seed pool is scaled so
  // the measured phase takes about this long on the reference host.
  double seconds = 20.0;
  std::string work_dir;   // Scratch for corpora; removed at exit.
  std::string trace_out;  // Non-empty: traced run, trace JSON written here.
};

// What proves two runs produced the same outputs.
struct Digest {
  int64_t tests = 0;
  int64_t forward_passes = 0;
  uint64_t inputs_fnv = 1469598103934665603ull;  // FNV-1a offset basis.

  void AddBytes(const void* data, size_t n);
  void AddTensor(const dx::Tensor& t);
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Counts one attempted operation; a failed one also records `error`.
  void Op(bool ok, const std::string& error = "");
  // Records a failure that is not an operation (a correctness check).
  void Fail(const std::string& error);

  const std::map<std::string, std::pair<double, std::string>>& metrics() const {
    return metrics_;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }
  bool correct() const { return failed_ == 0 && errors_.empty(); }

  Digest digest;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> errors_;
};

struct Context {
  const Options& options;
  Tracer& tracer;
  Report& report;

  bool traced() const { return tracer.enabled(); }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Runs fn() inside a span and returns its wall time in seconds.
template <typename F>
double Timed(Tracer& tracer, const char* name, F&& fn) {
  ScopedSpan span(tracer, name);
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

double Median(std::vector<double> values);
// Nearest-rank percentile (p in [0, 100]); +inf entries sort last.
double Percentile(std::vector<double> values, double p);

// `n` fresh inputs of a domain from the pool seed of this run.
std::vector<dx::Tensor> MakePool(const std::string& domain, int n, uint64_t seed);

// The wiring every in-process campaign shares: Table-2 engine defaults of
// the domain, joint objective, 100 iterations per seed, 3 workers, batch 8,
// 24 seeds per sync batch (three chunks, one per worker).
dx::SessionConfig CampaignConfig(const std::string& domain, const std::string& metric,
                                 const std::string& scheduler, uint64_t seed,
                                 bool profile_phases);

// One in-process campaign: trained models, constraint, session, optional
// corpus and the open run. Members are declared so that destruction runs
// the run, then the session, then what they borrow.
struct Campaign {
  std::vector<dx::Model> models;
  std::unique_ptr<dx::Constraint> constraint;
  std::unique_ptr<dx::Corpus> corpus;
  std::unique_ptr<dx::Session> session;
  std::unique_ptr<dx::SessionRun> run;
};

// Loads the domain's trio (span setup.models), builds the default constraint
// and the session, opens a corpus at `corpus_dir` when non-empty, and
// begins the run (span session.begin_run).
std::unique_ptr<Campaign> SetUpCampaign(Context& ctx, const std::string& domain,
                                        const dx::SessionConfig& config,
                                        const std::vector<dx::Tensor>& pool,
                                        const std::string& corpus_dir);

// Steps a throwaway campaign of `config` over `pool` for kWarmupSeconds,
// untimed. On a VM host the first second or so of multi-threaded load after
// the vCPUs sat idle runs up to three times slower; measuring straight after
// this keeps that ramp out of the numbers.
void WarmUp(Context& ctx, const std::string& domain, const dx::SessionConfig& config,
            const std::vector<dx::Tensor>& pool);

// Step-by-step result of driving a campaign to completion.
struct CampaignResult {
  double seconds = 0.0;            // Wall time of every Step call.
  std::vector<double> step_ms;     // One per sync batch that ran.
  dx::ExecutorProfile phases;      // Executor phase deltas (traced runs).
  dx::RunStats stats;
};

// Steps the run until it reports completion (span session.step per batch,
// with the executor phase deltas as arguments when traced).
CampaignResult DriveCampaign(Context& ctx, Campaign& campaign);

// Re-predicts every generated test through compiled plans and checks that it
// still matches its recorded labels/outputs and that the models disagree.
void VerifyTests(Context& ctx, const dx::Session& session,
                 const std::vector<dx::GeneratedTest>& tests);

// Folds a finished campaign into the digest.
void DigestStats(Digest* digest, const dx::RunStats& stats);

// Replays the recorded corpus at `raw_dir`, then writes and verifies its
// dedup and distill derivatives. Every step is an operation of the report.
struct CorpusPasses {
  double replay_s = 0.0;
  double dedup_s = 0.0;
  double distill_s = 0.0;
  double verify_s = 0.0;  // Both derived-corpus verifications.
  uint64_t input_entries = 0;  // Of the recording both passes read.
  uint64_t dedup_kept = 0;
  uint64_t distill_kept = 0;
  double total_s() const { return replay_s + dedup_s + distill_s + verify_s; }
};
CorpusPasses RunCorpusPasses(Context& ctx, dx::Session& session, const std::string& raw_dir);

// A daemon campaign request, as sent over the ctl socket.
struct DaemonCampaign {
  std::string domain;
  std::string metric = "neuron";
  std::string scheduler = "roundrobin";
  int seeds = 24;
};

// What one open-loop drive of an in-process daemon measured.
struct DaemonDrive {
  std::vector<double> setup_s;        // Daemon::Start + submits, per set-up.
  double mix_s = 0.0;                 // First submit to the last DONE.
  std::vector<double> status_ms;      // From each request's due time; inf = failed.
  std::vector<double> batch_ms;       // Step time of each campaign sync batch.
  std::vector<double> late_ms;        // How late each request was sent.
  std::vector<double> first_batch_s;  // Per campaign, from its submit.
  std::vector<double> done_s;         // Per campaign, from its submit.
  int64_t tests = 0;
  int64_t seeds_tried = 0;
  int64_t seeds_skipped = 0;
  int64_t iterations = 0;
  double mean_coverage = 0.0;         // Mean over campaigns.
  dx::ExecutorProfile phases;         // Summed over campaigns (traced runs).
  Digest digest;                      // Of the `results` replies.
};

// Starts an in-process daemon (2 campaign workers, 1 compute thread, one
// batch per slice) and submits `campaigns`: first as an untimed stand-in
// that runs for kWarmupSeconds, then timed until the timed set-ups add up to
// `min_setup_s` (at least once), each but the last cancelled and stopped
// right away. On the last, one client sends `status` at 100 req/s
// round-robin over the campaigns and scrapes /metrics at 1 Hz until every
// campaign is DONE, then lists and fetches results, and stops the daemon.
DaemonDrive DriveDaemon(Context& ctx, const std::vector<DaemonCampaign>& campaigns,
                        double min_setup_s);

// ---- Per-layer metrics (traced runs only; probes.cc) ---------------------
//
// Every traced run reports every per-layer metric. A layer the workload
// does not exercise is probed on the workload's own domain and wiring, so
// its numbers stay put on that workload while the ones it does exercise
// move.

// nn.*: batch-8 forward/backward of the MNIST and tabular trios, and
// per-layer GFLOP/s of the MNIST trio's conv2d/dense layers.
void ProbeNn(Context& ctx);
// coverage.* and constraints.*: the session's metric and constraint on
// `inputs` (at least 8 samples).
void ProbeCoverageAndConstraint(Context& ctx, dx::Session& session,
                                const dx::Constraint& constraint,
                                const std::vector<dx::Tensor>& inputs);
// corpus.*: re-drives the write sequence of the recorded corpus at
// `raw_dir` (entries, journal batches, checkpoints) into a scratch corpus.
void ProbeCorpusWrites(Context& ctx, const std::string& raw_dir);
// maintenance.*, from the spans and counts of RunCorpusPasses.
void ReportMaintenance(Context& ctx, const CorpusPasses& passes);
// service.*, from a daemon drive.
void ReportService(Context& ctx, const DaemonDrive& drive);
// models.load_ms and session.begin_run_ms, from the set-up spans.
void ReportSetupSpans(Context& ctx);
// executor.* and session.* from executor phases gathered over `wall_s`
// seconds of kComputeThreads-wide execution.
void ReportExecutor(Context& ctx, const dx::ExecutorProfile& phases, double wall_s,
                    int64_t tests, int64_t seeds_tried, int64_t seeds_skipped,
                    int64_t iterations);
// For workloads that record no corpus: records a short leg of `config` into
// a scratch corpus, runs the corpus passes over it, and reports corpus.* and
// maintenance.* from it.
void ProbeRecording(Context& ctx, const std::string& domain, const dx::SessionConfig& config);

// ---- Workloads (workloads.cc) -------------------------------------------

struct Workload {
  const char* name;
  void (*run)(Context& ctx);
};
const std::vector<Workload>& Workloads();

}  // namespace dxbench

#endif  // DX_BENCH_E2E_E2E_H_
