// Table 2: "Number of difference-inducing inputs found by DeepXplore for
// each tested DNN" with the per-domain hyperparameters (λ1 / λ2 / s / t).
//
// Each DNN row targets that model as the deviator (forced j) over the seed
// pool, exactly reproducing the per-DNN accounting of the paper. The paper
// uses 2000 seeds; pass --seeds 2000 to match.
#include <algorithm>
#include <iostream>
#include <map>

#include "bench/bench_common.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace dx {
namespace {

const std::map<std::string, int>& PaperCounts() {
  static const std::map<std::string, int> counts = {
      {"MNI_C1", 1073}, {"MNI_C2", 1968}, {"MNI_C3", 827},  {"IMG_C1", 1969},
      {"IMG_C2", 1976}, {"IMG_C3", 1996}, {"DRV_C1", 1720}, {"DRV_C2", 1866},
      {"DRV_C3", 1930}, {"PDF_C1", 1103}, {"PDF_C2", 789},  {"PDF_C3", 1253},
      {"APP_C1", 2000}, {"APP_C2", 2000}, {"APP_C3", 2000},
  };
  return counts;
}

int Run(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Table 2",
                     "difference-inducing inputs per DNN (forced-deviator runs)", args);
  TablePrinter table({"DNN name", "Hyperparams (l1/l2/s/t)", "# Diffs found",
                      "# Diffs (paper, 2000 seeds)", "Diff rate"});
  for (const std::string& domain : PaperDomainKeys()) {
    std::vector<Model> models = ModelZoo::TrainedDomain(domain);
    const auto names = DomainModelNames(domain);
    const auto constraint = bench::DefaultConstraint(domain);
    // The ImageNet stand-in costs ~10x more per iteration; scale its pool.
    const int domain_seeds =
        domain == "imagenet" ? std::min(args.seeds, 30) : args.seeds;
    const std::vector<Tensor> seeds = bench::SeedPool(domain, domain_seeds);
    for (int target = 0; target < static_cast<int>(models.size()); ++target) {
      EngineConfig config = bench::DefaultConfig(domain);
      config.forced_target_model = target;
      config.rng_seed = 1000 + static_cast<uint64_t>(target);
      Session session(bench::Pointers(models), constraint.get(), bench::PaperConfig(config));
      RunOptions opts;
      const RunStats stats = session.Run(seeds, opts);
      table.AddRow({names[static_cast<size_t>(target)],
                    bench::HyperparamString(config, domain),
                    std::to_string(stats.tests.size()),
                    std::to_string(PaperCounts().at(names[static_cast<size_t>(target)])),
                    TablePrinter::Percent(static_cast<double>(stats.tests.size()) /
                                          std::max(1, stats.seeds_tried))});
    }
  }
  std::cout << table.ToString()
            << "Expected shape: every DNN yields difference-inducing inputs from a\n"
               "large fraction of seeds; the Drebin MLPs saturate fastest (discrete\n"
               "feature flips), matching the paper's 2000/2000 rows.\n";
  return 0;
}

}  // namespace
}  // namespace dx

int main(int argc, char** argv) { return dx::Run(argc, argv); }
