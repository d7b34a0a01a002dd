// Steady-state execution-plan throughput: the compiled zero-allocation path
// (Model::Compile + ExecutionPlan::ForwardBatch / BackwardInputBatch) on one
// conv-heavy model (MNI_C1) and one dense-heavy model (PDF_C1). Ops:
// "forward", "forward+backward", and "backward" (gradient sweep alone over
// warm activations — the gradient-ascent inner-loop shape).
//
// Once the plan is warm, an iteration touches only pre-sized slabs and arena
// scratch, and runs the im2col+GEMM kernels. Before timing, the plan is
// checked inline against the per-sample scalar oracle (Model::Forward /
// BackwardInput) under the same ULP/abs tolerances the test suite uses (they
// accumulate in different orders, so bit-identity is not the contract here).
//
// Emits a JSON record (stdout and <artifact dir>/plan_steady_state.json);
// the checked-in baseline lives at bench/baselines/plan_steady_state.json.
// The CI Release job runs this bench once as a smoke test so the plan path
// cannot bit-rot in optimized builds.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/nn/execution_plan.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace {

using namespace dx;
using namespace dx::bench;

enum class Op { kForward, kForwardBackward, kBackward };

const char* OpName(Op op) {
  switch (op) {
    case Op::kForward: return "forward";
    case Op::kForwardBackward: return "forward+backward";
    case Op::kBackward: return "backward";
  }
  return "?";
}

struct Row {
  std::string model;
  std::string op;         // "forward", "forward+backward", or "backward"
  int batch = 8;
  double plan_sps = 0.0;  // samples/sec, compiled plan
};

// Minimal mirror of the test suite's ULP/abs tolerance check (the bench can
// not link gtest): an element passes within `max_abs` absolutely or within
// `max_ulp` representable floats. Same bounds as tests/test_util.h.
int64_t UlpKey(float f) {
  int32_t i;
  std::memcpy(&i, &f, sizeof(i));
  return i >= 0 ? int64_t{i} : int64_t{std::numeric_limits<int32_t>::min()} - i;
}

bool BuffersNear(const float* got, const float* want, int64_t n, int64_t max_ulp,
                 float max_abs) {
  for (int64_t i = 0; i < n; ++i) {
    if (std::abs(got[i] - want[i]) <= max_abs) {
      continue;
    }
    if (!(std::isfinite(got[i]) && std::isfinite(want[i]))) {
      return false;
    }
    const int64_t d = UlpKey(got[i]) - UlpKey(want[i]);
    if ((d < 0 ? -d : d) > max_ulp) {
      return false;
    }
  }
  return true;
}

Row BenchOne(const Model& model, int batch, Op op, int reps) {
  Rng rng(7);
  const Tensor stacked =
      Tensor::RandUniform(BatchedShape(batch, model.input_shape()), rng);
  const int last = model.num_layers() - 1;
  const Tensor seed =
      Tensor::RandUniform(BatchedShape(batch, model.output_shape()), rng, -1.0f, 1.0f);

  ExecutionPlan plan = model.Compile(batch);

  // Correctness before timing: the plan (GEMM/SIMD) path must reproduce the
  // per-sample scalar oracle within the kernel tolerances (forward 512 ULP /
  // 1e-5 abs, backward 8192 ULP / 1e-4 abs — see tests/test_util.h).
  {
    const BatchTrace& got = plan.ForwardBatch(stacked, batch);
    const Tensor& got_g = plan.BackwardInputBatch(last, seed);
    for (int b = 0; b < batch; ++b) {
      const ForwardTrace want = model.Forward(SliceSample(stacked, b));
      for (int l = 0; l < model.num_layers(); ++l) {
        const Tensor g = got.SampleOutput(l, b);
        const Tensor& w = want.outputs[static_cast<size_t>(l)];
        if (g.numel() != w.numel() ||
            !BuffersNear(g.data(), w.data(), w.numel(), 512, 1e-5f)) {
          std::cerr << "ERROR: plan forward diverges from the scalar oracle ("
                    << model.name() << ", sample " << b << ", layer " << l << ")\n";
          std::exit(1);
        }
      }
      const Tensor want_g = model.BackwardInput(want, last, SliceSample(seed, b));
      const Tensor got_gb = SliceSample(got_g, b);
      if (got_gb.numel() != want_g.numel() ||
          !BuffersNear(got_gb.data(), want_g.data(), want_g.numel(), 8192, 1e-4f)) {
        std::cerr << "ERROR: plan backward diverges from the scalar oracle ("
                  << model.name() << ", sample " << b << ")\n";
        std::exit(1);
      }
    }
  }

  Row row;
  row.model = model.name();
  row.op = OpName(op);
  row.batch = batch;
  // The backward op times the gradient sweep alone: activations stay warm
  // from one forward — the shape of the gradient-ascent inner loop, which
  // reuses each forward across several ascent steps.
  const bool forward = op != Op::kBackward;
  const bool backward = op != Op::kForward;
  plan.ForwardBatch(stacked, batch);  // Warm the slabs at this width.
  Timer timer;
  for (int r = 0; r < reps; ++r) {
    if (forward) {
      plan.ForwardBatch(stacked, batch);
    }
    if (backward) {
      plan.BackwardInputBatch(last, seed);
    }
  }
  row.plan_sps = static_cast<double>(reps) * batch / timer.ElapsedSeconds();
  return row;
}

std::string ToJson(const std::vector<Row>& rows) {
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"plan_steady_state\",\n"
      << "  \"models\": [\"MNI_C1\", \"PDF_C1\"],\n"
      << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"model\": \"" << r.model << "\", \"op\": \"" << r.op
        << "\", \"batch\": " << r.batch << ", \"plan_samples_per_sec\": " << r.plan_sps
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  PrintHeader("Plan steady state", "compiled ExecutionPlan throughput", args);

  std::vector<Row> rows;
  for (const char* name : {"MNI_C1", "PDF_C1"}) {
    const Model model = ModelZoo::Build(name, 7);
    for (const Op op : {Op::kForward, Op::kForwardBackward, Op::kBackward}) {
      for (const int batch : {1, 8}) {
        const Tensor probe = Tensor::Zeros(model.input_shape());
        Timer probe_timer;
        model.Forward(probe);
        const double per_sample = std::max(1e-7, probe_timer.ElapsedSeconds());
        const int cost_factor = op == Op::kForward ? 1 : op == Op::kBackward ? 2 : 3;
        const int reps =
            std::max(3, static_cast<int>(0.3 / (per_sample * batch * cost_factor)));
        rows.push_back(BenchOne(model, batch, op, reps));
        const Row& r = rows.back();
        std::cerr << r.model << " " << r.op << " batch=" << r.batch << ": " << r.plan_sps
                  << " samples/s\n";
      }
    }
  }

  TablePrinter table({"Model", "Op", "Batch", "Plan s/s"});
  for (const Row& r : rows) {
    table.AddRow({r.model, r.op, std::to_string(r.batch), TablePrinter::Num(r.plan_sps, 0)});
  }
  std::cout << table.ToString();

  const std::string json = ToJson(rows);
  std::cout << json;
  const std::string path = ArtifactDir() + "/plan_steady_state.json";
  std::ofstream file(path);
  file << json;
  std::cout << "json written to " << path << "\n";
  return 0;
}
