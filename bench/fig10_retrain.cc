// Figure 10: "Improvement in accuracy of three LeNet DNNs when the training
// set is augmented with the same number of inputs generated by random
// selection, adversarial testing, and DeepXplore" — 5 retrain epochs, +100
// augmented samples.
//
// DeepXplore inputs get labels by majority vote over the ensemble (no manual
// labeling); adversarial/random use ground-truth labels as the paper does.
// The base models are deliberately under-trained (2 epochs) so there is
// accuracy headroom, mirroring the paper's 90-97% starting band.
#include <iostream>

#include "bench/bench_common.h"
#include "src/analysis/retraining.h"
#include "src/baselines/adversarial.h"
#include "src/baselines/random_testing.h"
#include "src/data/synthetic_digits.h"
#include "src/models/trainer.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace dx {
namespace {

constexpr int kAugment = 100;
constexpr int kEpochs = 5;

Model TrainBase(const std::string& name, const Dataset& train) {
  Model model = ModelZoo::Build(name, 4711);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.learning_rate = 1.5e-3f;
  cfg.seed = 11;
  Trainer::Fit(&model, train, cfg);
  return model;
}

std::string Curve(const std::vector<float>& accs) {
  std::string out;
  for (size_t i = 0; i < accs.size(); ++i) {
    out += (i > 0 ? " " : "") + TablePrinter::Percent(accs[i]);
  }
  return out;
}

int Run(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Figure 10", "retraining accuracy: DeepXplore vs adversarial vs random",
                     args);
  const Dataset& train = ModelZoo::TrainSet("mnist");
  const Dataset& test = ModelZoo::TestSet("mnist");
  // A fresh pool of unlabeled-looking digits the base training never saw.
  const Dataset extra_pool = MakeSyntheticDigits(600, 999);

  double dx_final = 0.0;
  double adv_final = 0.0;
  double rand_final = 0.0;
  for (const std::string& name : DomainModelNames("mnist")) {
    // Voters for majority labeling: the full trained zoo trio.
    std::vector<Model> voters = ModelZoo::TrainedDomain("mnist");
    std::vector<Model*> voter_ptrs = bench::Pointers(voters);

    // DeepXplore difference-inducing inputs grown from the extra pool.
    const auto constraint = bench::DefaultConstraint("mnist");
    EngineConfig config = bench::DefaultConfig("mnist");
    config.rng_seed = 907;
    Session session(voter_ptrs, constraint.get(), bench::PaperConfig(config));
    std::vector<Tensor> pool;
    for (const Tensor& x : extra_pool.inputs) {
      pool.push_back(x);
    }
    RunOptions opts;
    opts.max_tests = kAugment;
    opts.max_seed_passes = 4;
    const RunStats stats = session.Run(pool, opts);
    std::vector<Tensor> dx_inputs;
    for (const GeneratedTest& t : stats.tests) {
      dx_inputs.push_back(t.input);
    }

    Rng rng(908);
    Model adv_target = TrainBase(name, train);
    std::vector<Tensor> adv_inputs =
        AdversarialInputs(adv_target, extra_pool, kAugment, 0.12f, rng);
    std::vector<Tensor> rand_inputs = RandomInputs(extra_pool, kAugment, rng);

    // Augmented datasets. DeepXplore: majority-vote labels; baselines:
    // ground-truth labels (random picks keep theirs; adversarial keeps the
    // source label, the paper's manual-labeling assumption).
    Dataset dx_aug = AugmentWithVotedLabels(train, dx_inputs, voter_ptrs);
    Dataset adv_aug = train;
    Dataset rand_aug = train;
    const auto rand_idx = rng.SampleWithoutReplacement(extra_pool.size(), kAugment);
    for (int i = 0; i < kAugment; ++i) {
      adv_aug.Add(adv_inputs[static_cast<size_t>(i)],
                  static_cast<float>(extra_pool.Label(i)));
      rand_aug.Add(rand_inputs[static_cast<size_t>(i)],
                   static_cast<float>(extra_pool.Label(rand_idx[static_cast<size_t>(i)])));
    }

    TablePrinter table({"Strategy", "Accuracy per retrain epoch (0..5)"});
    Model m_dx = TrainBase(name, train);
    const auto dx_curve = RetrainAccuracyCurve(&m_dx, dx_aug, test, kEpochs, 21);
    Model m_adv = TrainBase(name, train);
    const auto adv_curve = RetrainAccuracyCurve(&m_adv, adv_aug, test, kEpochs, 21);
    Model m_rand = TrainBase(name, train);
    const auto rand_curve = RetrainAccuracyCurve(&m_rand, rand_aug, test, kEpochs, 21);
    table.AddRow({"DeepXplore (" + std::to_string(dx_inputs.size()) + " voted inputs)",
                  Curve(dx_curve)});
    table.AddRow({"Adversarial (FGSM)", Curve(adv_curve)});
    table.AddRow({"Random", Curve(rand_curve)});
    std::cout << "(" << name << ")\n" << table.ToString();
    dx_final += dx_curve.back();
    adv_final += adv_curve.back();
    rand_final += rand_curve.back();
  }
  std::cout << "Final-epoch averages: DeepXplore " << TablePrinter::Percent(dx_final / 3)
            << ", adversarial " << TablePrinter::Percent(adv_final / 3) << ", random "
            << TablePrinter::Percent(rand_final / 3) << "\n"
            << "Paper shape: DeepXplore augmentation ends 1-3% above adversarial and\n"
            << "random after 5 epochs.\n";
  return 0;
}

}  // namespace
}  // namespace dx

int main(int argc, char** argv) { return dx::Run(argc, argv); }
