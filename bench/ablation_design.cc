// Ablation study of the reproduction's design choices (DESIGN.md §5):
//
//  A. Gradient RMS-normalization on/off — without it the raw gradient of a
//     saturated softmax vanishes and the fixed step size s stops meaning
//     anything (the reference implementation normalizes; the paper does not
//     discuss it).
//  B. Occlusion-rectangle placement: greedy max-gradient-mass vs random —
//     the paper only says DeepXplore is "free to choose any values of i, j".
//  C. Coverage objective weight λ2 = 0 vs the default — complements Table 5
//     with the time-to-first-difference view.
//
// All cells measure difference-inducing yield and mean time-to-first over the
// MNIST and Driving stand-ins.
#include <iostream>

#include "bench/bench_common.h"
#include "src/constraints/image_constraints.h"
#include "src/util/table.h"

namespace dx {
namespace {

struct CellResult {
  int diffs = 0;
  double seconds = 0.0;
};

CellResult RunCell(std::vector<Model>& models, const Constraint& constraint,
                   EngineConfig config, const std::vector<Tensor>& seeds) {
  config.rng_seed = 2024;
  Session session(bench::Pointers(models), &constraint, bench::PaperConfig(config));
  const RunStats stats = session.Run(seeds, RunOptions{});
  return {static_cast<int>(stats.tests.size()), stats.seconds};
}

std::string Fmt(const CellResult& r, int seeds) {
  return std::to_string(r.diffs) + "/" + std::to_string(seeds) + " in " +
         TablePrinter::Num(r.seconds, 1) + "s";
}

int Run(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Ablation", "design choices: gradient norm, placement, coverage",
                     args);
  const int n = std::min(args.seeds, 60);

  // A: gradient normalization (MNIST, lighting).
  {
    std::vector<Model> models = ModelZoo::TrainedDomain("mnist");
    const auto constraint = bench::DefaultConstraint("mnist");
    const auto seeds = bench::SeedPool("mnist", n);
    TablePrinter table({"Gradient scaling", "Diffs found"});
    EngineConfig on = bench::DefaultConfig("mnist");
    EngineConfig off = on;
    off.normalize_gradient = false;
    table.AddRow({"RMS-normalized (default)", Fmt(RunCell(models, *constraint, on, seeds), n)});
    table.AddRow({"raw gradient", Fmt(RunCell(models, *constraint, off, seeds), n)});
    std::cout << "A. gradient normalization (MNIST, lighting):\n" << table.ToString();
    std::cout << "Expected: raw gradients find far fewer differences — saturated\n"
                 "softmax gradients are too small for a fixed step.\n\n";
  }

  // B: occlusion placement (Driving).
  {
    std::vector<Model> models = ModelZoo::TrainedDomain("driving");
    const auto seeds = bench::SeedPool("driving", n);
    EngineConfig config = bench::DefaultConfig("driving");
    config.step = 25.0f / 255.0f;
    TablePrinter table({"Rectangle placement", "Diffs found"});
    const OcclusionConstraint greedy(10, 10,
                                     OcclusionConstraint::Placement::kMaxGradientMass);
    const OcclusionConstraint random(10, 10, OcclusionConstraint::Placement::kRandom);
    table.AddRow({"max-gradient-mass (default)", Fmt(RunCell(models, greedy, config, seeds), n)});
    table.AddRow({"random per iteration", Fmt(RunCell(models, random, config, seeds), n)});
    std::cout << "B. occlusion placement (Driving, 10x10 rectangle):\n" << table.ToString();
    std::cout << "Expected: greedy placement needs fewer iterations per difference.\n\n";
  }

  // C: coverage objective weight (MNIST).
  {
    std::vector<Model> models = ModelZoo::TrainedDomain("mnist");
    const auto constraint = bench::DefaultConstraint("mnist");
    const auto seeds = bench::SeedPool("mnist", n);
    TablePrinter table({"lambda2", "Diffs found"});
    for (const float l2 : {0.0f, 0.1f, 1.0f}) {
      EngineConfig config = bench::DefaultConfig("mnist");
      config.lambda2 = l2;
      table.AddRow({TablePrinter::Num(l2), Fmt(RunCell(models, *constraint, config, seeds), n)});
    }
    std::cout << "C. coverage weight lambda2 (MNIST):\n" << table.ToString();
    std::cout << "Expected: small positive lambda2 costs little yield while (per\n"
                 "Table 5) buying diversity; large lambda2 trades diffs for coverage.\n";
  }
  return 0;
}

}  // namespace
}  // namespace dx

int main(int argc, char** argv) { return dx::Run(argc, argv); }
