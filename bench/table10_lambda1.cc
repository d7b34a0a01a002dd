// Table 10: "The variation in DeepXplore runtime (in seconds) while
// generating the first difference-inducing input for the tested DNNs with
// different λ1" — λ1 ∈ {0.5, 1, 2, 3}, 10-run average per dataset.
#include <algorithm>
#include <iostream>

#include "bench/bench_common.h"
#include "src/util/table.h"

namespace dx {
namespace {

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  args.runs = std::min(args.runs, 3);  // Each run scans up to 8 seeds per cell.
  bench::PrintHeader("Table 10", "time to first difference vs lambda1", args);
  const std::vector<float> lambdas = {0.5f, 1.0f, 2.0f, 3.0f};

  TablePrinter table({"Dataset", "l1=0.5", "l1=1", "l1=2", "l1=3"});
  for (const std::string& domain : PaperDomainKeys()) {
    std::vector<Model> models = ModelZoo::TrainedDomain(domain);
    const auto constraint = bench::DefaultConstraint(domain);
    const std::vector<Tensor> pool = bench::SeedPool(domain, args.seeds);
    std::vector<std::string> row = {DomainName(domain)};
    for (const float l1 : lambdas) {
      EngineConfig config = bench::DefaultConfig(domain);
      config.lambda1 = l1;
      config.rng_seed = 901;
      const double secs =
          bench::MeanTimeToFirstDifference(models, *constraint, config, pool, args.runs);
      row.push_back(TablePrinter::Num(secs, 3) + " s");
    }
    table.AddRow(std::move(row));
  }
  std::cout << table.ToString()
            << "Paper shape: optimal lambda1 is dataset-dependent (MNIST/VirusTotal\n"
               "prefer larger lambda1 — push the deviator harder; Driving/ImageNet\n"
               "have a shallow interior optimum).\n";
  return 0;
}

}  // namespace
}  // namespace dx

int main(int argc, char** argv) { return dx::Run(argc, argv); }
