// Table 8: "Total time taken by DeepXplore to achieve 100% neuron coverage
// for different DNNs averaged over 10 runs. The last column shows the number
// of seed inputs."
//
// As in the paper, fully connected layers are excluded on the vision domains
// (their neurons are very hard to activate). Each run cycles fresh seeds
// until every model's tracker is full (or a wall-clock cap is hit, reported
// as ">cap").
#include <algorithm>
#include <iostream>
#include <map>

#include "bench/bench_common.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace dx {
namespace {

constexpr double kCapSeconds = 30.0;

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  args.runs = std::min(args.runs, 2);  // Each run can take tens of seconds.
  bench::PrintHeader("Table 8", "time to reach 100% neuron coverage (excl. FC layers)",
                     args);
  TablePrinter table({"Dataset", "Time to 100% cov", "Coverage reached", "# seeds used",
                      "Paper time C1/C2/C3", "Paper #seeds"});
  const std::map<std::string, std::string> paper_time = {
      {"mnist", "6.6 / 6.8 / 7.6 s"},
      {"imagenet", "43.6 / 45.3 / 42.7 s"},
      {"driving", "11.7 / 12.3 / 9.8 s"},
      {"pdf", "31.1 / 29.7 / 23.2 s"},
      {"drebin", "180.2 / 196.4 / 152.9 s"}};
  const std::map<std::string, int> paper_seeds = {
      {"mnist", 9}, {"imagenet", 35}, {"driving", 12}, {"pdf", 6}, {"drebin", 16}};
  for (const std::string& domain : PaperDomainKeys()) {
    std::vector<Model> models = ModelZoo::TrainedDomain(domain);
    const auto constraint = bench::DefaultConstraint(domain);
    const bool vision = domain == "mnist" || domain == "imagenet" || domain == "driving";
    double total_seconds = 0.0;
    double total_cov = 0.0;
    int total_seeds = 0;
    bool capped = false;
    for (int run = 0; run < args.runs; ++run) {
      EngineConfig config = bench::DefaultConfig(domain);
      config.coverage.exclude_dense = vision;
      config.rng_seed = 500 + static_cast<uint64_t>(run);
      Session session(bench::Pointers(models), constraint.get(), bench::PaperConfig(config));
      const std::vector<Tensor> seeds = bench::SeedPool(domain, args.seeds);
      RunOptions opts;
      opts.coverage_goal = 1.0f;
      opts.max_seed_passes = 50;
      opts.max_seconds = kCapSeconds;
      const RunStats stats = session.Run(seeds, opts);
      total_seconds += stats.seconds;
      total_cov += session.MeanCoverage();
      total_seeds += stats.seeds_tried;
      capped = capped || (session.MeanCoverage() < 1.0f && stats.seconds >= kCapSeconds);
    }
    const double avg_s = total_seconds / args.runs;
    table.AddRow({DomainName(domain),
                  (capped ? ">" : "") + TablePrinter::Num(avg_s, 1) + " s",
                  TablePrinter::Percent(total_cov / args.runs),
                  std::to_string(total_seeds / args.runs), paper_time.at(domain),
                  std::to_string(paper_seeds.at(domain))});
  }
  std::cout << table.ToString()
            << "Expected shape: full coverage needs only a handful of seeds; the\n"
               "malware MLP domains need few seeds but more per-seed iterations.\n";
  return 0;
}

}  // namespace
}  // namespace dx

int main(int argc, char** argv) { return dx::Run(argc, argv); }
