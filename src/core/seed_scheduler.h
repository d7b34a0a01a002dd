// SeedScheduler: the pluggable seed ordering/recycling policy of the engine.
//
// The session asks the scheduler which seed to try next and reports back the
// outcome (difference found? how much coverage was gained?) at every sync
// point, in schedule order — so a scheduler sees a deterministic feedback
// stream regardless of how many workers processed the seeds in parallel.
//
// Schedulers are never serialized. A corpus journals every Next()/Report()
// stream, and a resumed session replays the journal through a freshly Reset
// scheduler, so a scheduler's Next() sequence must depend only on Reset's
// arguments and the Report() stream it has seen.
//
// Built-ins, selected by name through MakeSeedScheduler:
//   "roundrobin"     Algorithm 1's policy: cycle the seed list in order for
//                    up to max_passes passes.
//   "coverage-gain"  First pass in order, then each later pass replays seeds
//                    in descending order of accumulated coverage gain (plus
//                    a bonus for having produced a difference), recycling
//                    productive seeds first.
#ifndef DX_SRC_CORE_SEED_SCHEDULER_H_
#define DX_SRC_CORE_SEED_SCHEDULER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace dx {

class SeedScheduler {
 public:
  virtual ~SeedScheduler() = default;

  virtual std::string name() const = 0;

  // Called once at the start of a run.
  virtual void Reset(int num_seeds, int max_passes) = 0;

  // Index of the next seed to schedule, or -1 when the run is exhausted.
  // Called serially by the session coordinator (never concurrently).
  virtual int Next() = 0;

  // Outcome feedback for a scheduled seed, reported in schedule order.
  virtual void Report(int seed_index, bool found_test, float coverage_gain);
};

// Algorithm 1: cycle seeds 0..n-1, up to max_passes times.
class RoundRobinScheduler : public SeedScheduler {
 public:
  std::string name() const override { return "roundrobin"; }
  void Reset(int num_seeds, int max_passes) override;
  int Next() override;

 private:
  int num_seeds_ = 0;
  int max_passes_ = 0;
  int pass_ = 0;
  int cursor_ = 0;
};

// Pass 1 in order; later passes sorted by accumulated coverage gain.
class CoverageGainScheduler : public SeedScheduler {
 public:
  // `found_bonus` is added to a seed's score each time it yields a
  // difference-inducing input (keeps productive seeds hot even when coverage
  // has plateaued).
  explicit CoverageGainScheduler(float found_bonus = 1e-4f);

  std::string name() const override { return "coverage-gain"; }
  void Reset(int num_seeds, int max_passes) override;
  int Next() override;
  void Report(int seed_index, bool found_test, float coverage_gain) override;

 private:
  float found_bonus_;
  int num_seeds_ = 0;
  int max_passes_ = 0;
  int pass_ = 0;
  int cursor_ = 0;
  bool need_sort_ = false;
  std::vector<double> score_;
  std::vector<int> order_;
};

// ---- Factory -----------------------------------------------------------------------------

using SeedSchedulerFactory = std::function<std::unique_ptr<SeedScheduler>()>;

// Registers (or replaces) a scheduler under `name` for MakeSeedScheduler,
// so plug-ins are selectable by string key from the CLI and SessionConfig.
void RegisterSeedScheduler(const std::string& name, SeedSchedulerFactory factory);

// Builds the scheduler registered under `name` ("roundrobin",
// "coverage-gain"; the aliases "round-robin" and "gain" are accepted);
// throws std::invalid_argument for unknown names.
std::unique_ptr<SeedScheduler> MakeSeedScheduler(const std::string& name);

// Registered scheduler names, sorted (for --list-schedulers and validation).
std::vector<std::string> SeedSchedulerNames();

}  // namespace dx

#endif  // DX_SRC_CORE_SEED_SCHEDULER_H_
