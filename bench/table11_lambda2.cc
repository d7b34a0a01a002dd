// Table 11: "The variation in DeepXplore runtime (in seconds) while
// generating the first difference-inducing input for the tested DNNs with
// different λ2" — λ2 ∈ {0.5, 1, 2, 3}, 10-run average per dataset.
#include <algorithm>
#include <iostream>

#include "bench/bench_common.h"
#include "src/util/table.h"

namespace dx {
namespace {

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  args.runs = std::min(args.runs, 3);  // Each run scans up to 8 seeds per cell.
  bench::PrintHeader("Table 11", "time to first difference vs lambda2", args);
  const std::vector<float> lambdas = {0.5f, 1.0f, 2.0f, 3.0f};

  TablePrinter table({"Dataset", "l2=0.5", "l2=1", "l2=2", "l2=3"});
  for (const std::string& domain : PaperDomainKeys()) {
    std::vector<Model> models = ModelZoo::TrainedDomain(domain);
    const auto constraint = bench::DefaultConstraint(domain);
    const std::vector<Tensor> pool = bench::SeedPool(domain, args.seeds);
    std::vector<std::string> row = {DomainName(domain)};
    for (const float l2 : lambdas) {
      EngineConfig config = bench::DefaultConfig(domain);
      config.lambda2 = l2;
      config.rng_seed = 902;
      const double secs =
          bench::MeanTimeToFirstDifference(models, *constraint, config, pool, args.runs);
      row.push_back(TablePrinter::Num(secs, 3) + " s");
    }
    table.AddRow(std::move(row));
  }
  std::cout << table.ToString()
            << "Paper shape: lambda2 = 0.5 is (near-)optimal everywhere — diverting\n"
               "more of the gradient budget to covering neurons slows down finding\n"
               "the first difference.\n";
  return 0;
}

}  // namespace
}  // namespace dx

int main(int argc, char** argv) { return dx::Run(argc, argv); }
