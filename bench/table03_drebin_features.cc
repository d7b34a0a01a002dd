// Table 3: "The features added to the manifest file by DeepXplore for
// generating two sample malware inputs which Android app classifiers
// incorrectly mark as benign."
//
// Picks malware seeds the whole ensemble agrees are malware, runs the engine
// over them with the Drebin add-only manifest constraint until two inputs
// flip a model to benign, and prints the manifest features that were added (before=0 ->
// after=1), top-3 first — the paper's exact presentation.
#include <algorithm>
#include <iostream>

#include "bench/bench_common.h"
#include "src/data/drebin.h"
#include "src/tensor/ops.h"
#include "src/util/table.h"

namespace dx {
namespace {

int Run(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Table 3", "manifest features added for malware->benign evasions",
                     args);

  std::vector<Model> models = ModelZoo::TrainedDomain("drebin");
  const auto constraint = bench::DefaultConstraint("drebin");
  EngineConfig config = bench::DefaultConfig("drebin");
  config.max_iterations_per_seed = 200;
  config.rng_seed = 77;
  Session session(bench::Pointers(models), constraint.get(), bench::PaperConfig(config));

  // The evasion scenario: seeds that every model (correctly) calls malware.
  const Dataset& test = ModelZoo::TestSet("drebin");
  std::vector<Tensor> seeds;
  std::vector<int> test_index;  // Test-set position of each seed.
  const std::vector<Prediction> predictions = session.Predict(SamplePointers(test.inputs));
  for (int i = 0; i < test.size(); ++i) {
    const std::vector<int>& labels = predictions[static_cast<size_t>(i)].labels;
    if (test.Label(i) == kDrebinMalwareClass &&
        std::all_of(labels.begin(), labels.end(), [](int l) { return l == kDrebinMalwareClass; })) {
      seeds.push_back(test.inputs[static_cast<size_t>(i)]);
      test_index.push_back(i);
    }
  }
  // With two classes, every difference from an all-malware consensus has
  // some model calling the app benign.
  RunOptions options;
  options.max_tests = 2;
  const RunStats stats = session.Run(seeds, options);
  int produced = 0;
  for (const GeneratedTest& result : stats.tests) {
    ++produced;
    const Tensor& seed = seeds[static_cast<size_t>(result.seed_index)];
    std::vector<int> added;
    for (int f = 0; f < kDrebinFeatureCount; ++f) {
      if (seed[f] == 0.0f && result.input[f] == 1.0f) {
        added.push_back(f);
      }
    }
    std::cout << "input " << produced << " (seed #"
              << test_index[static_cast<size_t>(result.seed_index)] << ", " << added.size()
              << " manifest feature(s) added, " << result.iterations
              << " iterations, deviating model "
              << DomainModelNames("drebin")[static_cast<size_t>(result.deviating_model)]
              << "):\n";
    TablePrinter table({"feature", "before", "after"});
    const size_t top = std::min<size_t>(3, added.size());
    for (size_t k = 0; k < top; ++k) {
      table.AddRow({DrebinFeatureName(added[k]), "0", "1"});
    }
    std::cout << table.ToString();
  }
  if (produced == 0) {
    std::cout << "no malware->benign evasion found (increase --seeds)\n";
    return 1;
  }
  std::cout << "Every modified feature lives in the manifest and was only ever\n"
               "added (0 -> 1), matching the paper's constraint semantics.\n";
  return 0;
}

}  // namespace
}  // namespace dx

int main(int argc, char** argv) { return dx::Run(argc, argv); }
