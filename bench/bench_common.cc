#include "bench/bench_common.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>

#include "src/core/domain.h"

namespace dx::bench {

BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      args.seeds = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      args.runs = std::atoi(argv[++i]);
    } else {
      std::cerr << "unknown flag: " << argv[i] << " (supported: --seeds N, --runs N)\n";
      std::exit(2);
    }
  }
  if (const char* env = std::getenv("DEEPXPLORE_BENCH_SEEDS")) {
    args.seeds = std::atoi(env);
  }
  return args;
}

void PrintHeader(const std::string& experiment, const std::string& description,
                 const BenchArgs& args) {
  std::cout << "==================================================================\n"
            << experiment << ": " << description << "\n"
            << "(seeds=" << args.seeds << ", runs=" << args.runs
            << "; paper used 2000 seeds on a GTX-1070 laptop — absolute numbers\n"
            << " differ, the qualitative shape is what must match)\n"
            << "==================================================================\n";
}

std::unique_ptr<Constraint> DefaultConstraint(const std::string& domain_key) {
  return MakeDomainConstraint(GetDomain(domain_key), "default");
}

EngineConfig DefaultConfig(const std::string& domain_key) {
  // The domain's Table 2 row lives in its DomainSpec (engine_defaults);
  // benches run the paper's longer per-seed budget on top of it.
  EngineConfig config = GetDomain(domain_key).engine_defaults;
  config.max_iterations_per_seed = 100;
  return config;
}

SessionConfig PaperConfig(const EngineConfig& engine) {
  SessionConfig config;
  config.engine = engine;
  config.batch_size = 1;
  config.sync_interval = 1;
  return config;
}

SessionConfig DefaultSessionConfig(const std::string& domain_key, const std::string& metric,
                                   int workers) {
  SessionConfig config;
  config.engine = DefaultConfig(domain_key);
  config.metric = metric;
  config.workers = workers;
  // Fixed (worker-independent, so results stay identical across scaling
  // rows) but sized for the scaling bench: 32 seeds per sync batch in
  // executor chunks of 4 gives 8 parallel units per batch.
  config.sync_interval = 32;
  config.batch_size = 4;
  return config;
}

std::string HyperparamString(const EngineConfig& config, const std::string& domain_key) {
  const std::string s =
      domain_key == "drebin" ? "N/A" : (domain_key == "pdf" ? "0.1" : "10/255");
  std::string out = std::to_string(config.lambda1);
  out.erase(out.find_last_not_of('0') + 1);
  out.erase(out.find_last_not_of('.') + 1);
  std::string l2 = std::to_string(config.lambda2);
  l2.erase(l2.find_last_not_of('0') + 1);
  l2.erase(l2.find_last_not_of('.') + 1);
  return out + " / " + l2 + " / " + s + " / 0";
}

std::vector<Tensor> SeedPool(const std::string& domain_key, int n) {
  const Dataset& test = ModelZoo::TestSet(domain_key);
  std::vector<Tensor> seeds;
  seeds.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    seeds.push_back(test.inputs[static_cast<size_t>(i % test.size())]);
  }
  return seeds;
}

std::vector<Model*> Pointers(std::vector<Model>& models) {
  std::vector<Model*> ptrs;
  ptrs.reserve(models.size());
  for (Model& m : models) {
    ptrs.push_back(&m);
  }
  return ptrs;
}

double MeanTimeToFirstDifference(std::vector<Model>& models, const Constraint& constraint,
                                 const EngineConfig& config,
                                 const std::vector<Tensor>& pool, int runs) {
  double total = 0.0;
  for (int run = 0; run < runs; ++run) {
    EngineConfig run_config = config;
    run_config.rng_seed = config.rng_seed + static_cast<uint64_t>(run) * 7919;
    Session session(Pointers(models), &constraint, PaperConfig(run_config));
    // Scan a bounded window of the pool: a run that exhausts it contributes
    // its full scan time (an upper bound, like the paper's timeout handling).
    std::vector<Tensor> window;
    for (size_t i = 0; i < std::min<size_t>(pool.size(), 8); ++i) {
      window.push_back(pool[(i + static_cast<size_t>(run) * 13) % pool.size()]);
    }
    RunOptions options;
    options.max_tests = 1;
    total += session.Run(window, options).seconds;
  }
  return total / runs;
}

std::string ArtifactDir() {
  const char* env = std::getenv("DEEPXPLORE_ARTIFACT_DIR");
  const std::string dir = env != nullptr ? env : "bench_artifacts";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

}  // namespace dx::bench
