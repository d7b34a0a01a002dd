// §7.3 "Detecting training data pollution attack".
//
// Two LeNet-5 models: one trained on clean digits, one on a polluted set
// where 30% of the 9s are relabeled as 1. DeepXplore generates inputs the two
// models disagree on (clean says 9, polluted says 1); the training samples
// most SSIM-similar to those inputs are flagged as polluted. The paper
// reports 95.6% of polluted samples correctly identified.
#include <iostream>

#include "bench/bench_common.h"
#include "src/analysis/pollution.h"
#include "src/constraints/image_constraints.h"
#include "src/data/dataset.h"
#include "src/models/trainer.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace dx {
namespace {

int Run(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Extra (7.3)", "training-data pollution detection via SSIM matching",
                     args);
  const Dataset& clean_train = ModelZoo::TrainSet("mnist");
  Dataset polluted_train = clean_train;
  Rng pollution_rng(31337);
  const std::vector<int> polluted =
      PolluteLabels(&polluted_train, /*from=*/9, /*to=*/1, 0.3, pollution_rng);
  std::cout << "polluted " << polluted.size() << " training samples (9 -> 1)\n";

  const auto train_lenet5 = [](const Dataset& data) {
    Model model = ModelZoo::Build("MNI_C3", 5150);
    TrainConfig cfg;
    cfg.epochs = 8;
    cfg.learning_rate = 3e-3f;
    cfg.seed = 17;
    Trainer::Fit(&model, data, cfg);
    return model;
  };
  Model clean_model = train_lenet5(clean_train);
  Model polluted_model = train_lenet5(polluted_train);

  // Difference-inducing inputs where the models split exactly along the
  // pollution: clean: 9, polluted: 1.
  LightingConstraint constraint;
  EngineConfig config = bench::DefaultConfig("mnist");
  config.forced_target_model = 1;
  config.rng_seed = 909;
  Session session({&clean_model, &polluted_model}, &constraint, bench::PaperConfig(config));
  // Seed from digit-9 test images: the pollution lives on the 9 -> 1 label
  // boundary, so that is where the two models' decision logic diverges.
  const Dataset& test_set = ModelZoo::TestSet("mnist");
  std::vector<Tensor> pool;
  for (int i = 0; i < test_set.size(); ++i) {
    if (test_set.Label(i) == 9) {
      pool.push_back(test_set.inputs[static_cast<size_t>(i)]);
    }
  }
  std::vector<Tensor> attack_inputs;
  for (const GeneratedTest& test : session.Run(pool, RunOptions{}).tests) {
    if (test.labels[0] == 9 && test.labels[1] == 1 && attack_inputs.size() < 25) {
      attack_inputs.push_back(test.input);
    }
  }
  std::cout << "generated " << attack_inputs.size()
            << " inputs classified 9 by the clean model and 1 by the polluted one\n";
  if (attack_inputs.empty()) {
    std::cout << "no witness inputs found; increase --seeds\n";
    return 1;
  }

  const auto result = DetectPollutedSamples(polluted_train, /*polluted_label=*/1,
                                            attack_inputs, polluted,
                                            /*neighbors_per_test=*/20);
  TablePrinter table({"Flagged", "Precision", "Recall", "Paper precision"});
  table.AddRow({std::to_string(result.flagged.size()),
                TablePrinter::Percent(result.precision),
                TablePrinter::Percent(result.recall), "95.6%"});
  std::cout << table.ToString()
            << "Expected shape: flagged samples are overwhelmingly the truly\n"
               "polluted ones (high precision).\n";
  return 0;
}

}  // namespace
}  // namespace dx

int main(int argc, char** argv) { return dx::Run(argc, argv); }
