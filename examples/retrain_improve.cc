// Retraining scenario (paper §7.3): difference-inducing inputs, auto-labeled
// by majority vote over the ensemble, are appended to the training set and
// fix the weakest model's erroneous behaviors — no human labeling involved.
//
//   $ ./retrain_improve
#include <iostream>

#include "src/analysis/retraining.h"
#include "src/constraints/image_constraints.h"
#include "src/core/session.h"
#include "src/data/synthetic_digits.h"
#include "src/models/trainer.h"
#include "src/models/zoo.h"
#include "src/util/table.h"

int main() {
  using namespace dx;
  const Dataset& train = ModelZoo::TrainSet("mnist");
  const Dataset& test = ModelZoo::TestSet("mnist");

  // A deliberately under-trained LeNet-1 (accuracy headroom).
  Model weak = ModelZoo::Build("MNI_C1", 31);
  TrainConfig base_cfg;
  base_cfg.epochs = 2;
  base_cfg.learning_rate = 1.5e-3f;
  Trainer::Fit(&weak, train, base_cfg);
  std::cout << "base accuracy: " << Trainer::Accuracy(weak, test) << "\n";

  // Generate corner cases with the full trio as cross-referencing oracles.
  std::vector<Model> voters = ModelZoo::TrainedDomain("mnist");
  std::vector<Model*> voter_ptrs;
  for (Model& m : voters) {
    voter_ptrs.push_back(&m);
  }
  LightingConstraint constraint;
  SessionConfig config;
  config.engine.lambda1 = 2.0f;
  config.engine.step = 10.0f / 255.0f;
  Session session(voter_ptrs, &constraint, config);

  const Dataset pool = MakeSyntheticDigits(400, 777);
  RunOptions options;
  options.max_tests = 100;
  std::vector<Tensor> corner_cases;
  for (const GeneratedTest& result : session.Run(pool.inputs, options).tests) {
    corner_cases.push_back(result.input);
  }
  std::cout << "generated " << corner_cases.size()
            << " difference-inducing inputs; labeling by majority vote\n";

  const Dataset augmented = AugmentWithVotedLabels(train, corner_cases, voter_ptrs);
  const auto curve = RetrainAccuracyCurve(&weak, augmented, test, 5, 32);

  TablePrinter table({"Retrain epoch", "Test accuracy"});
  for (size_t e = 0; e < curve.size(); ++e) {
    table.AddRow({std::to_string(e), TablePrinter::Percent(curve[e])});
  }
  std::cout << table.ToString();
  std::cout << (curve.back() > curve.front() ? "accuracy improved" : "no improvement")
            << " (+" << TablePrinter::Percent(curve.back() - curve.front()) << ")\n";
  return curve.back() > curve.front() ? 0 : 1;
}
