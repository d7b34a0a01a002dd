// Table 5: "The increase in diversity (L1-distance) in the difference-
// inducing inputs found by DeepXplore while using neuron coverage as part of
// the optimization goal" — three repetitions on MNIST with λ2 = 0 vs λ2 = 1,
// reporting average L1 diversity, neuron coverage at t = 0.25, and the raw
// number of differences.
#include <iostream>

#include "bench/bench_common.h"
#include "src/analysis/diversity.h"
#include "src/util/table.h"

namespace dx {
namespace {

struct ExpResult {
  float diversity = 0.0f;
  float coverage = 0.0f;
  int diffs = 0;
};

ExpResult RunOnce(std::vector<Model>& models, const Constraint& constraint,
                  const std::vector<Tensor>& seeds, float lambda2, uint64_t rng_seed) {
  EngineConfig config = bench::DefaultConfig("mnist");
  config.lambda2 = lambda2;
  config.coverage.threshold = 0.25f;
  config.rng_seed = rng_seed;
  Session session(bench::Pointers(models), &constraint, bench::PaperConfig(config));
  const RunStats stats = session.Run(seeds, RunOptions{});
  ExpResult result;
  // L1 over [0,1] pixels; the paper's absolute scale differs (0-255 pixels,
  // different seed pool) — the with/without-coverage *increase* is the claim.
  result.diversity = AverageSeedL1Diversity(stats.tests, seeds);
  result.coverage = session.MeanCoverage();
  result.diffs = static_cast<int>(stats.tests.size());
  return result;
}

int Run(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Table 5", "diversity of MNIST difference-inducing inputs, lambda2 = 0 vs 1", args);
  std::vector<Model> models = ModelZoo::TrainedDomain("mnist");
  const auto constraint = bench::DefaultConstraint("mnist");
  const std::vector<Tensor> seeds = bench::SeedPool("mnist", args.seeds);

  TablePrinter table({"Exp. #", "Avg. diversity (l2=0)", "NC (l2=0)", "# Diffs (l2=0)",
                      "Avg. diversity (l2=1)", "NC (l2=1)", "# Diffs (l2=1)"});
  float div_gain = 0.0f;
  for (int exp = 1; exp <= 3; ++exp) {
    const ExpResult without =
        RunOnce(models, *constraint, seeds, 0.0f, 100 + static_cast<uint64_t>(exp));
    const ExpResult with =
        RunOnce(models, *constraint, seeds, 1.0f, 100 + static_cast<uint64_t>(exp));
    div_gain += with.diversity - without.diversity;
    table.AddRow({std::to_string(exp), TablePrinter::Num(without.diversity, 1),
                  TablePrinter::Percent(without.coverage), std::to_string(without.diffs),
                  TablePrinter::Num(with.diversity, 1),
                  TablePrinter::Percent(with.coverage), std::to_string(with.diffs)});
  }
  std::cout << table.ToString()
            << "Paper (2000 seeds): diversity 237.9->283.3 / 194.6->253.2 / 170.8->182.7,\n"
               "NC +1-2 points, fewer raw diffs with coverage on.\n"
            << "Shape check: lambda2 = 1 increased average diversity by "
            << TablePrinter::Num(div_gain / 3.0f, 1) << " L1 units on average; "
            << (div_gain > 0.0f ? "PASS" : "MISMATCH") << "\n";
  return 0;
}

}  // namespace
}  // namespace dx

int main(int argc, char** argv) { return dx::Run(argc, argv); }
