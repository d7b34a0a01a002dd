// Table 12: "Changes in the number of iterations DeepXplore takes, on
// average, to find the first difference inducing inputs as the type and
// numbers of differences between the test DNNs increase."
//
// Control: LeNet-1 trained on the full digit training set. Variants differ in
// (1) how many training samples were removed, (2) how many extra filters each
// conv layer has, (3) how many extra training epochs were run. The paper's
// deltas are scaled to our training set (1500 samples vs the paper's 60000);
// a '-' marks timeout, as in the paper.
#include <iostream>

#include "bench/bench_common.h"
#include "src/constraints/constraint.h"
#include "src/models/trainer.h"
#include "src/util/table.h"

namespace dx {
namespace {

constexpr int kTimeoutIterations = 1000;
constexpr uint64_t kInitSeed = 4242;

Model TrainLenet1Variant(const Dataset& train, int drop_samples, int extra_filters,
                         int extra_epochs) {
  Model model = ModelZoo::BuildCustomLenet1(4 + extra_filters, 12 + extra_filters,
                                            kInitSeed + static_cast<uint64_t>(extra_filters));
  Dataset subset = train;
  if (drop_samples > 0) {
    subset.inputs.resize(static_cast<size_t>(train.size() - drop_samples));
    subset.targets.resize(static_cast<size_t>(train.size() - drop_samples));
  }
  TrainConfig cfg;
  cfg.epochs = 8 + extra_epochs;
  cfg.learning_rate = 3e-3f;
  cfg.seed = 99;       // Identical optimizer stream: a zero-delta variant is the control.
  cfg.shuffle = false;  // Sequential batches keep divergence graded in the delta.
  Trainer::Fit(&model, subset, cfg);
  return model;
}

// Average iterations to the first difference between `control` and `variant`
// over `seeds` seeds; returns -1 when every seed timed out.
double AvgIterations(Model& control, Model& variant, const std::vector<Tensor>& pool,
                     int seeds) {
  // Unconstrained per-pixel search: near-identical models disagree only in
  // tiny input regions that the rigid lighting transform cannot reach.
  static const UnconstrainedImage constraint_obj;
  const Constraint* constraint = &constraint_obj;
  EngineConfig config = bench::DefaultConfig("mnist");
  config.step = 2.0f / 255.0f;
  config.max_iterations_per_seed = kTimeoutIterations;
  config.forced_target_model = 1;  // Push the variant away from the control.
  config.rng_seed = 903;
  Session session({&control, &variant}, constraint, bench::PaperConfig(config));
  const std::vector<Tensor> window(pool.begin(), pool.begin() + seeds);
  const RunStats stats = session.Run(window, RunOptions{});
  if (stats.tests.empty()) {
    return -1.0;
  }
  // Seeds without a difference count as timeouts.
  const int64_t timeouts = seeds - static_cast<int64_t>(stats.tests.size());
  return static_cast<double>(stats.total_iterations + timeouts * kTimeoutIterations) / seeds;
}

std::string Cell(double avg) {
  return avg < 0 ? "-*" : TablePrinter::Num(avg, 1);
}

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  args.seeds = std::min(args.seeds, 12);  // Timeout rows cost 1000 iters/seed.
  bench::PrintHeader("Table 12", "iterations to first difference vs model similarity",
                     args);
  const Dataset& train = ModelZoo::TrainSet("mnist");
  const std::vector<Tensor> pool = bench::SeedPool("mnist", args.seeds);

  Model control = TrainLenet1Variant(train, 0, 0, 0);

  {
    TablePrinter table({"Training samples removed", "0", "1", "25", "100", "375"});
    std::vector<std::string> row = {"# iterations"};
    for (const int drop : {0, 1, 25, 100, 375}) {
      Model variant = TrainLenet1Variant(train, drop, 0, 0);
      row.push_back(Cell(AvgIterations(control, variant, pool, args.seeds)));
    }
    table.AddRow(std::move(row));
    std::cout << table.ToString();
  }
  {
    TablePrinter table({"Extra filters per conv layer", "0", "1", "2", "3", "4"});
    std::vector<std::string> row = {"# iterations"};
    for (const int filters : {0, 1, 2, 3, 4}) {
      Model variant = TrainLenet1Variant(train, 0, filters, 0);
      row.push_back(Cell(AvgIterations(control, variant, pool, args.seeds)));
    }
    table.AddRow(std::move(row));
    std::cout << table.ToString();
  }
  {
    TablePrinter table({"Extra training epochs", "0", "2", "4", "8", "16"});
    std::vector<std::string> row = {"# iterations"};
    for (const int epochs : {0, 2, 4, 8, 16}) {
      Model variant = TrainLenet1Variant(train, 0, 0, epochs);
      row.push_back(Cell(AvgIterations(control, variant, pool, args.seeds)));
    }
    table.AddRow(std::move(row));
    std::cout << table.ToString();
  }
  std::cout << "*- timeout after " << kTimeoutIterations << " iterations (identical or\n"
            << "near-identical models), as in the paper. Expected shape: iterations\n"
            << "drop monotonically as the variant diverges from the control; the\n"
            << "zero-delta column times out.\n"
            << "Paper (60000-sample MNIST): samples {-,-,616,504,257}; filters\n"
            << "{-,70,54,33,19}; epochs {-,454,434,349,210}.\n";
  return 0;
}

}  // namespace
}  // namespace dx

int main(int argc, char** argv) { return dx::Run(argc, argv); }
