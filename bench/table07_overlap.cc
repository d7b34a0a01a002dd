// Table 7: "Average number of overlaps among activated neurons for a pair of
// inputs of the same class and different classes" on LeNet-5 (MNI_C3).
//
// 100 same-class pairs vs 100 different-class pairs; reports the average
// number of activated neurons per input and the average overlap. Expected
// shape: same-class pairs share substantially more activated neurons.
#include <algorithm>
#include <iostream>
#include <set>

#include "bench/bench_common.h"
#include "src/coverage/neuron_coverage.h"
#include "src/nn/execution_plan.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace dx {
namespace {

struct PairStats {
  double avg_activated = 0.0;
  double avg_overlap = 0.0;
};

int64_t Key(const NeuronId& id) { return static_cast<int64_t>(id.layer) * 100000 + id.index; }

PairStats Measure(const Model& model, const NeuronCoverageTracker& tracker,
                  const Dataset& data, bool same_class, int pairs, Rng& rng) {
  PairStats stats;
  ExecutionPlan plan = model.Compile(2);
  int done = 0;
  while (done < pairs) {
    const int a = static_cast<int>(rng.UniformInt(0, data.size() - 1));
    const int b = static_cast<int>(rng.UniformInt(0, data.size() - 1));
    if (a == b || (data.Label(a) == data.Label(b)) != same_class) {
      continue;
    }
    const BatchTrace& trace = plan.ForwardBatch(
        StackSamples({&data.inputs[static_cast<size_t>(a)], &data.inputs[static_cast<size_t>(b)]}),
        2);
    const auto act_a = tracker.Activated(model, trace, 0);
    const auto act_b = tracker.Activated(model, trace, 1);
    std::set<int64_t> set_a;
    for (const NeuronId& id : act_a) {
      set_a.insert(Key(id));
    }
    int overlap = 0;
    for (const NeuronId& id : act_b) {
      overlap += set_a.count(Key(id)) > 0 ? 1 : 0;
    }
    stats.avg_activated += 0.5 * (static_cast<double>(act_a.size()) + act_b.size());
    stats.avg_overlap += overlap;
    ++done;
  }
  stats.avg_activated /= pairs;
  stats.avg_overlap /= pairs;
  return stats;
}

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Table 7", "activated-neuron overlap: same vs different class pairs",
                     args);
  const Model model = ModelZoo::Trained("MNI_C3");
  CoverageOptions opts;
  opts.threshold = 0.25f;
  NeuronCoverageTracker tracker(model, opts);
  const Dataset& test = ModelZoo::TestSet("mnist");
  Rng rng(7);
  const PairStats diff = Measure(model, tracker, test, /*same_class=*/false, 100, rng);
  const PairStats same = Measure(model, tracker, test, /*same_class=*/true, 100, rng);

  TablePrinter table({"", "Total neurons", "Avg. activated", "Avg. overlap"});
  table.AddRow({"Diff. class", std::to_string(tracker.total_neurons()),
                TablePrinter::Num(diff.avg_activated, 1), TablePrinter::Num(diff.avg_overlap, 1)});
  table.AddRow({"Same class", std::to_string(tracker.total_neurons()),
                TablePrinter::Num(same.avg_activated, 1), TablePrinter::Num(same.avg_overlap, 1)});
  std::cout << table.ToString()
            << "Paper (LeNet-5, 268 neurons): diff-class 83.6 activated / 45.9 overlap;\n"
               "same-class 84.1 activated / 74.2 overlap.\n"
            << "Shape check: same-class overlap > diff-class overlap: "
            << (same.avg_overlap > diff.avg_overlap ? "PASS" : "MISMATCH") << "\n";
  return 0;
}

}  // namespace
}  // namespace dx

int main(int argc, char** argv) { return dx::Run(argc, argv); }
