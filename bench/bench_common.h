// Shared infrastructure for the per-table/figure bench binaries.
//
// Every bench reproduces one table or figure from the paper. Scale knobs:
//   --seeds N   seeds per run (default kDefaultSeeds; the paper uses 2000 —
//               pass --seeds 2000 to match at ~10-100x the runtime)
//   --runs N    repetitions for averaged timings (default 10, as the paper)
//   DEEPXPLORE_FAST=1  shrinks the model zoo (see src/models/zoo.h)
#ifndef DX_BENCH_BENCH_COMMON_H_
#define DX_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/core/session.h"
#include "src/models/zoo.h"

namespace dx::bench {

inline constexpr int kDefaultSeeds = 100;

struct BenchArgs {
  int seeds = kDefaultSeeds;
  int runs = 10;
};

BenchArgs ParseArgs(int argc, char** argv);

// Prints the bench banner: which table/figure, and the scale caveat.
void PrintHeader(const std::string& experiment, const std::string& description,
                 const BenchArgs& args);

// The domain's default constraint, from its DomainSpec (lighting for the
// vision domains, the feature rules for the malware domains, ...).
std::unique_ptr<Constraint> DefaultConstraint(const std::string& domain_key);

// Table 2's per-domain hyperparameters (λ1, λ2, s, t), from the DomainSpec.
EngineConfig DefaultConfig(const std::string& domain_key);

// Algorithm 1 as the paper runs it over `engine`: the default wiring (neuron
// coverage, joint objective, round-robin, one worker) with one seed per sync
// batch, so every seed's coverage objective sees the coverage of all seeds
// before it and a run bounded by max_tests stops right after the last hit.
SessionConfig PaperConfig(const EngineConfig& engine);

// Session wiring over the domain's Table 2 defaults: named coverage metric
// and worker count, joint objective, round-robin scheduling.
SessionConfig DefaultSessionConfig(const std::string& domain_key, const std::string& metric,
                                   int workers);

// Human-readable hyperparameter string for table rows, e.g. "1 / 0.1 / 10 / 0".
std::string HyperparamString(const EngineConfig& config, const std::string& domain_key);

// First n test-set inputs of the domain (deterministic seed pool).
std::vector<Tensor> SeedPool(const std::string& domain_key, int n);

// Raw pointers into a trained-model vector.
std::vector<Model*> Pointers(std::vector<Model>& models);

// Directory for generated artifacts (images); created on demand.
std::string ArtifactDir();

// Mean wall-clock seconds until the first difference-inducing input, over
// `runs` runs with distinct engine seeds and disjoint seed-pool offsets (the
// metric of Tables 9, 10, and 11).
double MeanTimeToFirstDifference(std::vector<Model>& models, const Constraint& constraint,
                                 const EngineConfig& config,
                                 const std::vector<Tensor>& pool, int runs);

}  // namespace dx::bench

#endif  // DX_BENCH_BENCH_COMMON_H_
