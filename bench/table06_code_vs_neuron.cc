// Table 6: "Comparison of code coverage and neuron coverage for 10 randomly
// selected inputs from the original test set of each DNN."
//
// Code coverage = statement coverage of the inference interpreter
// (OpCoverage); neuron coverage uses t = 0.75 with per-layer min-max scaling,
// exactly the paper's §7.1 protocol. The expected shape: code coverage is
// 100% everywhere after even one input, neuron coverage stays far below.
#include <iostream>

#include "bench/bench_common.h"
#include "src/baselines/random_testing.h"
#include "src/coverage/neuron_coverage.h"
#include "src/coverage/op_coverage.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace dx {
namespace {

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Table 6", "code coverage vs neuron coverage, 10 random inputs", args);

  TablePrinter table({"Dataset", "Code cov C1", "Code cov C2", "Code cov C3",
                      "Neuron cov C1", "Neuron cov C2", "Neuron cov C3"});
  bool shape_holds = true;
  for (const std::string& domain : PaperDomainKeys()) {
    std::vector<std::string> row = {DomainName(domain)};
    std::vector<std::string> neuron_cells;
    Rng rng(42);
    const Dataset& test = ModelZoo::TestSet(domain);
    const auto inputs = RandomInputs(test, 10, rng);
    for (const std::string& name : DomainModelNames(domain)) {
      const Model model = ModelZoo::Trained(name);
      OpCoverage code(model);
      CoverageOptions opts;
      opts.threshold = 0.75f;
      opts.scale_per_layer = true;
      NeuronCoverageTracker neurons(model, opts);
      for (const Tensor& x : inputs) {
        code.RecordForward(model, x);
      }
      neurons.UpdateBatch(model, bench::PlanTrace(model, inputs));
      row.push_back(TablePrinter::Percent(code.Coverage(), 0));
      neuron_cells.push_back(TablePrinter::Percent(neurons.Coverage()));
      shape_holds = shape_holds && code.Coverage() == 1.0f && neurons.Coverage() < 0.75f;
    }
    for (auto& cell : neuron_cells) {
      row.push_back(std::move(cell));
    }
    table.AddRow(std::move(row));
  }
  std::cout << table.ToString()
            << "Paper: code coverage 100% everywhere; neuron coverage 0.3%-33.1%\n"
               "(model- and dataset-dependent). Shape check: "
            << (shape_holds ? "PASS" : "MISMATCH") << "\n";
  return 0;
}

}  // namespace
}  // namespace dx

int main(int argc, char** argv) { return dx::Run(argc, argv); }
