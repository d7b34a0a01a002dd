// dxbench_e2e: runs one named workload of the end-to-end benchmark in this
// process and prints one JSON result line (metrics with units, operation
// counts, the output digest and the host fingerprint) as the last line of
// stdout. bench/e2e/run.py builds it, warms the model cache, runs it and
// checks the results; see bench/e2e/README.md.
//
//   dxbench_e2e --workload NAME --work-dir DIR [--seed N] [--seconds S]
//               [--trace-out FILE]
//
// DIR is scratch space for corpora; it is emptied first and removed at exit.
//   dxbench_e2e --warm
#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench/e2e/e2e.h"
#include "src/models/zoo.h"
#include "src/tensor/simd.h"
#include "src/util/json.h"
#include "src/util/thread_pool.h"

#ifndef DXBENCH_BUILD_TYPE
#define DXBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using dx::Json;
using dxbench::Workloads;

// Every domain a workload or probe touches.
constexpr const char* kDomains[] = {"mnist", "tabular", "speech", "pdf", "drebin", "driving"};

std::string WorkloadNames() {
  std::string names;
  for (const dxbench::Workload& w : Workloads()) {
    names += names.empty() ? "" : " | ";
    names += w.name;
  }
  return names;
}

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "dxbench_e2e: " << error << "\n"
            << "usage: dxbench_e2e --workload NAME --work-dir DIR [--seed N] [--seconds S] "
               "[--trace-out FILE]\n"
            << "       dxbench_e2e --warm\n"
            << "workloads: " << WorkloadNames() << "\n";
  std::exit(2);
}

uint64_t ParseU64(const std::string& flag, const std::string& value) {
  uint64_t out = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out, 10);
  if (ec != std::errc{} || ptr != end || value.empty()) {
    Usage("invalid value for " + flag + ": \"" + value + "\" (expected an unsigned integer)");
  }
  return out;
}

double ParsePositive(const std::string& flag, const std::string& value) {
  double out = 0.0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end || !std::isfinite(out) || out <= 0.0) {
    Usage("invalid value for " + flag + ": \"" + value + "\" (expected a positive number)");
  }
  return out;
}

int Warm() {
  for (const char* domain : kDomains) {
    dx::ModelZoo::TrainedDomain(domain);
  }
  return 0;
}

int AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 0;
  }
  return CPU_COUNT(&set);
}

Json Fingerprint() {
  Json f = Json::Object();
  f["cpus"] = Json(AllowedCpus());
  f["simd_backend"] = Json(dx::SimdBackendName());
  f["simd_lanes"] = Json(dx::SimdLanes());
  f["global_pool_threads"] = Json(dx::ThreadPool::Global().num_threads());
#if defined(__clang__)
  f["compiler"] = Json(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  f["compiler"] = Json(std::string("gcc ") + __VERSION__);
#else
  f["compiler"] = Json("unknown");
#endif
  f["build_type"] = Json(DXBENCH_BUILD_TYPE);
  const char* fast = std::getenv("DEEPXPLORE_FAST");
  f["deepxplore_fast"] = Json(fast != nullptr && fast[0] == '1');
  return f;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

}  // namespace

int main(int argc, char** argv) {
  dxbench::Options options;
  bool warm = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--warm") {
      warm = true;
      continue;
    }
    if (flag == "--help" || flag == "-h") {
      Usage("help");
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = ParseU64(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = ParsePositive(flag, value);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (warm) {
    return Warm();
  }
  const dxbench::Workload* workload = nullptr;
  for (const dxbench::Workload& w : Workloads()) {
    if (options.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    Usage("unknown workload \"" + options.workload + "\"");
  }
  if (options.work_dir.empty()) {
    Usage("missing --work-dir");
  }
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);

  dxbench::Tracer tracer(!options.trace_out.empty(), size_t{1} << 18);
  dxbench::Report report;
  dxbench::Context ctx{options, tracer, report};
  try {
    workload->run(ctx);
  } catch (const std::exception& e) {
    report.Fail(std::string("workload aborted: ") + e.what());
  }
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  std::filesystem::remove_all(options.work_dir);
  if (tracer.enabled() && !tracer.WriteChromeJson(options.trace_out)) {
    report.Fail("cannot write trace " + options.trace_out);
  }

  Json out = Json::Object();
  out["workload"] = Json(options.workload);
  out["seed"] = Json(options.seed);
  out["seconds"] = Json(options.seconds);
  out["traced"] = Json(tracer.enabled());
  out["dropped_spans"] = Json(static_cast<uint64_t>(tracer.dropped()));
  out["fingerprint"] = Fingerprint();
  Json digest = Json::Object();
  char fnv[17];
  std::snprintf(fnv, sizeof(fnv), "%016llx",
                static_cast<unsigned long long>(report.digest.inputs_fnv));
  digest["tests"] = Json(report.digest.tests);
  digest["forward_passes"] = Json(report.digest.forward_passes);
  digest["inputs_fnv1a"] = Json(std::string(fnv));
  out["digest"] = std::move(digest);
  out["correct"] = Json(report.correct());
  out["attempted"] = Json(report.attempted());
  out["failed"] = Json(report.failed());
  Json errors = Json::Array();
  for (const std::string& e : report.errors()) {
    errors.Append(Json(e));
  }
  out["errors"] = std::move(errors);
  Json metrics = Json::Object();
  for (const auto& [name, value] : report.metrics()) {
    Json m = Json::Object();
    m["value"] = Json(value.first);
    m["unit"] = Json(value.second);
    metrics[name] = std::move(m);
  }
  out["metrics"] = std::move(metrics);
  if (tracer.enabled()) {
    Json spans = Json::Object();
    for (const auto& [name, s] : tracer.Stats()) {
      Json span = Json::Object();
      span["count"] = Json(s.count);
      span["total_s"] = Json(s.total_s);
      span["self_s"] = Json(s.self_s);
      spans[name] = std::move(span);
    }
    out["spans"] = std::move(spans);
  }
  std::cout << out.Dump() << std::endl;
  return report.correct() ? 0 : 1;
}
