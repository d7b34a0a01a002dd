// Table 4: "The top-3 most in(de)cremented features for generating two
// sample malware inputs which PDF classifiers incorrectly mark as benign."
//
// Same protocol as Table 3 for the Contagio/VirusTotal stand-in: malicious
// seed PDFs, per-feature Šrndic-rule constraint, report the three features
// whose raw counts moved the most (before -> after).
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench/bench_common.h"
#include "src/data/pdf.h"
#include "src/tensor/ops.h"
#include "src/util/table.h"

namespace dx {
namespace {

int Run(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Table 4", "most-changed PDF features for malware->benign evasions",
                     args);

  std::vector<Model> models = ModelZoo::TrainedDomain("pdf");
  const auto constraint = bench::DefaultConstraint("pdf");
  EngineConfig config = bench::DefaultConfig("pdf");
  config.max_iterations_per_seed = 300;
  config.rng_seed = 78;
  Session session(bench::Pointers(models), constraint.get(), bench::PaperConfig(config));

  const Dataset& test = ModelZoo::TestSet("pdf");
  std::vector<Tensor> seeds;
  std::vector<int> test_index;  // Test-set position of each seed.
  const std::vector<Prediction> predictions = session.Predict(SamplePointers(test.inputs));
  for (int i = 0; i < test.size(); ++i) {
    const std::vector<int>& labels = predictions[static_cast<size_t>(i)].labels;
    if (test.Label(i) == kPdfMalwareClass &&
        std::all_of(labels.begin(), labels.end(), [](int l) { return l == kPdfMalwareClass; })) {
      seeds.push_back(test.inputs[static_cast<size_t>(i)]);
      test_index.push_back(i);
    }
  }
  // With two classes, every difference from an all-malware consensus has
  // some model calling the PDF benign.
  RunOptions options;
  options.max_tests = 2;
  const RunStats stats = session.Run(seeds, options);
  int produced = 0;
  for (const GeneratedTest& result : stats.tests) {
    ++produced;
    const Tensor& seed = seeds[static_cast<size_t>(result.seed_index)];
    // Rank features by |raw delta|.
    std::vector<std::pair<float, int>> deltas;
    for (int f = 0; f < kPdfFeatureCount; ++f) {
      const float before = PdfRawValue(f, seed[f]);
      const float after = PdfRawValue(f, result.input[f]);
      if (before != after) {
        deltas.emplace_back(std::abs(after - before), f);
      }
    }
    std::sort(deltas.begin(), deltas.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::cout << "input " << produced << " (seed #"
              << test_index[static_cast<size_t>(result.seed_index)] << ", " << deltas.size()
              << " feature(s) changed, " << result.iterations << " iterations):\n";
    TablePrinter table({"feature", "before", "after"});
    for (size_t k = 0; k < std::min<size_t>(3, deltas.size()); ++k) {
      const int f = deltas[k].second;
      table.AddRow({PdfFeatureSpecs()[static_cast<size_t>(f)].name,
                    TablePrinter::Num(PdfRawValue(f, seed[f]), 0),
                    TablePrinter::Num(PdfRawValue(f, result.input[f]), 0)});
    }
    std::cout << table.ToString();
  }
  if (produced == 0) {
    std::cout << "no malware->benign evasion found (increase --seeds)\n";
    return 1;
  }
  std::cout << "Expected shape (paper's Table 4): structural counters like size /\n"
               "count_font / count_endobj grow; frozen features never move.\n";
  return 0;
}

}  // namespace
}  // namespace dx

int main(int argc, char** argv) { return dx::Run(argc, argv); }
