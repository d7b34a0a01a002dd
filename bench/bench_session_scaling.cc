// Session worker-scaling bench: tests/sec and mean coverage at 1/2/4/8
// workers on the synthetic-digits (MNIST) model pair.
//
// Because the session's batch-synchronized parallel runner is deterministic
// for a fixed rng seed regardless of the worker count, every row generates
// the *same* difference-inducing inputs — only the wall clock changes, so
// the speedup column isolates the runner overhead.
//
// Emits a JSON record (stdout and <artifact dir>/session_scaling.json) so
// successive PRs can track the perf trajectory; the checked-in baseline
// lives at bench/baselines/session_scaling.json.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/constraints/image_constraints.h"
#include "src/core/session.h"
#include "src/util/table.h"

namespace {

using namespace dx;
using namespace dx::bench;

struct ScalingRow {
  int workers = 1;
  int tests = 0;
  double seconds = 0.0;
  double tests_per_sec = 0.0;
  float mean_coverage = 0.0f;
  double speedup = 1.0;
};

std::string ToJson(const std::vector<ScalingRow>& rows, int seeds) {
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"session_scaling\",\n"
      << "  \"domain\": \"mnist\",\n"
      << "  \"models\": [\"MNI_C1\", \"MNI_C2\"],\n"
      << "  \"metric\": \"neuron\",\n"
      << "  \"seeds\": " << seeds << ",\n"
      // Speedups are bounded by the host cores; record them so later PRs
      // compare like with like.
      << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScalingRow& r = rows[i];
    out << "    {\"workers\": " << r.workers << ", \"tests\": " << r.tests
        << ", \"seconds\": " << r.seconds << ", \"tests_per_sec\": " << r.tests_per_sec
        << ", \"mean_coverage\": " << r.mean_coverage << ", \"speedup\": " << r.speedup
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  PrintHeader("Session scaling",
              "tests/sec and coverage vs. worker count (MNIST pair)", args);

  std::vector<Model> models = ModelZoo::TrainedDomain("mnist");
  std::vector<Model*> pair = {&models[0], &models[1]};
  LightingConstraint constraint;
  const std::vector<Tensor> pool = SeedPool("mnist", args.seeds);

  std::vector<ScalingRow> rows;
  for (const int workers : {1, 2, 4, 8}) {
    SessionConfig config = DefaultSessionConfig("mnist", "neuron", workers);
    Session session(pair, &constraint, config);
    const RunStats stats = session.Run(pool, RunOptions{});
    ScalingRow row;
    row.workers = workers;
    row.tests = static_cast<int>(stats.tests.size());
    row.seconds = stats.seconds;
    row.tests_per_sec =
        stats.seconds > 0.0 ? static_cast<double>(row.tests) / stats.seconds : 0.0;
    row.mean_coverage = stats.mean_coverage;
    row.speedup = !rows.empty() && row.seconds > 0.0 ? rows[0].seconds / row.seconds : 1.0;
    rows.push_back(row);
    std::cerr << "workers=" << workers << ": " << row.tests << " tests in "
              << row.seconds << " s\n";
  }

  TablePrinter table({"Workers", "Tests", "Seconds", "Tests/sec", "Mean coverage",
                      "Speedup vs 1"});
  for (const ScalingRow& r : rows) {
    table.AddRow({std::to_string(r.workers), std::to_string(r.tests),
                  TablePrinter::Num(r.seconds, 2), TablePrinter::Num(r.tests_per_sec, 2),
                  TablePrinter::Percent(r.mean_coverage),
                  TablePrinter::Num(r.speedup, 2) + "x"});
  }
  std::cout << table.ToString();

  // Determinism check: every worker count must find the same tests.
  bool consistent = true;
  for (const ScalingRow& r : rows) {
    consistent = consistent && r.tests == rows[0].tests;
  }
  if (!consistent) {
    std::cerr << "ERROR: test counts differ across worker counts\n";
    return 1;
  }

  const std::string json = ToJson(rows, args.seeds);
  std::cout << json;
  const std::string path = ArtifactDir() + "/session_scaling.json";
  std::ofstream file(path);
  file << json;
  std::cout << "json written to " << path << "\n";
  return 0;
}
