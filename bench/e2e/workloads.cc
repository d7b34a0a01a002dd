// The four named workloads. Each one is fixed work derived from --seed and
// sized from --seconds by a per-workload rate calibrated on the reference
// host (4 cores, AVX2, Release), so a faster engine finishes the same work
// sooner and the exact metrics repeat for a given seed.
#include <algorithm>
#include <cmath>
#include <numeric>

#include "bench/e2e/e2e.h"
#include "src/core/domain.h"

namespace dxbench {
namespace {

using dx::Tensor;

// Seeds for `seconds` of work at `seeds_per_s`, in whole sync batches.
int PoolSize(double seconds, double seeds_per_s) {
  const long batches = std::lround(seconds * seeds_per_s / 24.0);
  return static_cast<int>(std::max(1L, batches)) * 24;
}

// Each run measures kRepeats independent repetitions of its work and
// reports medians over them, so a few seconds of interference on the host
// moves one repetition instead of the run. Step latencies pool every sync
// batch of every repetition; the exact metrics cover all of them.
void SetEndToEnd(Context& ctx, const std::vector<double>& tests_per_s,
                 const std::vector<double>& job_s, const std::vector<double>& step_ms,
                 const std::vector<double>& setup_s, double mean_coverage, double tests,
                 double seeds_tried) {
  Report& r = ctx.report;
  r.Set("tests_per_s", Median(tests_per_s), "1/s");
  r.Set("latency_p50_ms", Percentile(step_ms, 50), "ms");
  r.Set("latency_p90_ms", Percentile(step_ms, 90), "ms");
  r.Set("setup_s", Median(setup_s), "s");
  r.Set("job_s", Median(job_s), "s");
  r.Set("mean_coverage", mean_coverage, "ratio");
  r.Set("tests_per_seed", seeds_tried > 0.0 ? tests / seeds_tried : 0.0, "ratio");
}

struct InProcess {
  const char* domain;
  const char* metric;
  const char* scheduler;
  double seeds_per_s;  // Calibration of the fixed work (see file comment).
  bool corpus;         // Record each campaign, then replay and compact it.
  // One-campaign daemon seeds/s: the traced run's service probe gets a
  // tenth of --seconds of work.
  double probe_seeds_per_s;
};

// Closed-loop campaign drivers on one Session each, with kComputeThreads
// workers: after the warm-up, the run's pool is split into kRepeats
// campaigns, all set up first, then stepped back to back; with `corpus`
// each recording is then replayed, deduped and distilled.
void RunInProcess(Context& ctx, const InProcess& w) {
  const Options& o = ctx.options;
  const int per = PoolSize(o.seconds / kRepeats, w.seeds_per_s);
  const std::vector<Tensor> all = MakePool(w.domain, per * kRepeats, o.seed);
  std::vector<std::vector<Tensor>> pools;
  for (int r = 0; r < kRepeats; ++r) {
    pools.emplace_back(all.begin() + r * per, all.begin() + (r + 1) * per);
  }
  const dx::SessionConfig config =
      CampaignConfig(w.domain, w.metric, w.scheduler, o.seed, ctx.traced());
  const auto corpus_dir = [&](const std::string& name) {
    return w.corpus ? o.work_dir + "/" + name : std::string();
  };

  WarmUp(ctx, w.domain, config, pools[0]);
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<Campaign>> campaigns;
  for (int r = 0; r < kRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    campaigns.push_back(SetUpCampaign(ctx, w.domain, config, pools[static_cast<size_t>(r)],
                                      corpus_dir("corpus" + std::to_string(r))));
    setup_s.push_back(SecondsSince(t0));
  }
  for (double total = 0.0; total < kSetupSeconds && setup_s.size() < kMaxSetups;) {
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<Campaign> extra =
        SetUpCampaign(ctx, w.domain, config, pools[0], corpus_dir("corpus-extra"));
    setup_s.push_back(SecondsSince(t0));
    total = std::accumulate(setup_s.begin(), setup_s.end(), 0.0);
  }

  std::vector<CampaignResult> results;
  for (const auto& campaign : campaigns) {
    results.push_back(DriveCampaign(ctx, *campaign));
  }

  std::vector<double> tests_per_s, job_s, latency_ms;
  double coverage = 0.0;
  int64_t tests = 0, tried = 0, skipped = 0, iterations = 0;
  double step_s = 0.0;
  dx::ExecutorProfile phases;
  CorpusPasses passes;  // Per-recording means.
  for (int r = 0; r < kRepeats; ++r) {
    Campaign& c = *campaigns[static_cast<size_t>(r)];
    const CampaignResult& res = results[static_cast<size_t>(r)];
    const double found = static_cast<double>(res.stats.tests.size());
    double job = res.seconds;
    if (w.corpus) {
      c.run.reset();  // Ends the leg: the recording is synced and closed.
      const CorpusPasses p =
          RunCorpusPasses(ctx, *c.session, corpus_dir("corpus" + std::to_string(r)));
      job += p.total_s();
      passes.replay_s += p.replay_s / kRepeats;
      passes.dedup_s += p.dedup_s / kRepeats;
      passes.distill_s += p.distill_s / kRepeats;
      passes.verify_s += p.verify_s / kRepeats;
      passes.input_entries += p.input_entries;
      passes.dedup_kept += p.dedup_kept;
      passes.distill_kept += p.distill_kept;
    }
    VerifyTests(ctx, *c.session, res.stats.tests);
    DigestStats(&ctx.report.digest, res.stats);
    tests_per_s.push_back(res.seconds > 0.0 ? found / res.seconds : 0.0);
    job_s.push_back(job);
    latency_ms.insert(latency_ms.end(), res.step_ms.begin(), res.step_ms.end());
    coverage += res.stats.mean_coverage / kRepeats;
    tests += static_cast<int64_t>(res.stats.tests.size());
    tried += res.stats.seeds_tried;
    skipped += res.stats.seeds_skipped;
    iterations += res.stats.total_iterations;
    step_s += res.seconds;
    phases += res.phases;
  }
  SetEndToEnd(ctx, tests_per_s, job_s, latency_ms, setup_s, coverage,
              static_cast<double>(tests), static_cast<double>(tried));
  if (!ctx.traced()) {
    return;
  }
  Campaign& last = *campaigns.back();
  ReportSetupSpans(ctx);
  ReportExecutor(ctx, phases, step_s, tests, tried, skipped, iterations);
  ProbeCoverageAndConstraint(ctx, *last.session, *last.constraint, pools.back());
  if (w.corpus) {
    ProbeCorpusWrites(ctx, corpus_dir("corpus" + std::to_string(kRepeats - 1)));
    ReportMaintenance(ctx, passes);
  } else {
    ProbeRecording(ctx, w.domain, config);
  }
  ProbeNn(ctx);
  // The service layer: one campaign of this wiring through a daemon.
  ReportService(ctx, DriveDaemon(ctx,
                                 {{w.domain, w.metric, w.scheduler,
                                   PoolSize(o.seconds / 10, w.probe_seeds_per_s)}},
                                 0.0));
}

// Conv-bound: LeNet trio, neuron coverage.
void MnistConv(Context& ctx) {
  RunInProcess(ctx, {"mnist", "neuron", "roundrobin", 120.0, false, 80.0});
}

// Per-call-overhead-bound: tiny dense GEMMs, k-multisection coverage,
// coverage-gain scheduling, many short sync batches.
void TabularKmnc(Context& ctx) {
  RunInProcess(ctx, {"tabular", "kmultisection", "coverage-gain", 2700.0, false, 1600.0});
}

// tabular-kmnc plus a corpus: the only workload that writes and reads one.
void TabularCorpus(Context& ctx) {
  RunInProcess(ctx, {"tabular", "kmultisection", "coverage-gain", 540.0, true, 1600.0});
}

// Many interleaved sessions on one shared pool behind the service layer:
// four campaigns (conv1d, two MLP trios, and the regression driving trio)
// submitted at once to an in-process daemon, polled open-loop.
void DaemonMix(Context& ctx) {
  const double s = ctx.options.seconds;
  // Single-worker seeds/s of each domain, scaled so the four campaigns
  // together keep the daemon's three compute threads busy for about `s`.
  constexpr double kShare = 0.5;
  const std::vector<DaemonCampaign> campaigns = {
      {"speech", "neuron", "roundrobin", PoolSize(s * kShare, 280.0)},
      {"pdf", "neuron", "roundrobin", PoolSize(s * kShare, 104.0)},
      {"drebin", "neuron", "roundrobin", PoolSize(s * kShare, 169.0)},
      {"driving", "neuron", "roundrobin", PoolSize(s * kShare, 36.0)},
  };
  // Daemon::Start plus four submits takes under a millisecond, mostly in
  // the kernel, so it is timed like the in-process set-ups.
  const DaemonDrive d = DriveDaemon(ctx, campaigns, kSetupSeconds);
  Digest& digest = ctx.report.digest;
  digest.tests += d.digest.tests;
  digest.forward_passes += d.digest.forward_passes;
  digest.AddBytes(&d.digest.inputs_fnv, sizeof(d.digest.inputs_fnv));
  SetEndToEnd(ctx, {d.mix_s > 0.0 ? static_cast<double>(d.tests) / d.mix_s : 0.0}, {d.mix_s},
              d.batch_ms, d.setup_s, d.mean_coverage, static_cast<double>(d.tests),
              static_cast<double>(d.seeds_tried));
  if (!ctx.traced()) {
    return;
  }
  ReportExecutor(ctx, d.phases, d.mix_s, d.tests, d.seeds_tried, d.seeds_skipped,
                 d.iterations);
  ReportService(ctx, d);
  // What the daemon does per campaign at first pick-up, timed in-process.
  // The pdf campaign's session stands in for the coverage and corpus
  // probes: the "auto" deduper picks SSIM for speech's {1,1,128} inputs,
  // which rejects them.
  std::unique_ptr<Campaign> probe;
  for (const DaemonCampaign& c : campaigns) {
    const std::vector<Tensor> pool = MakePool(c.domain, 24, ctx.options.seed);
    std::unique_ptr<Campaign> campaign = SetUpCampaign(
        ctx, c.domain, CampaignConfig(c.domain, c.metric, c.scheduler, ctx.options.seed, true),
        pool, "");
    campaign->run.reset();
    if (c.domain == "pdf") {
      probe = std::move(campaign);
    }
  }
  ReportSetupSpans(ctx);
  ProbeCoverageAndConstraint(ctx, *probe->session, *probe->constraint,
                             MakePool("pdf", 24, ctx.options.seed));
  ProbeRecording(ctx, "pdf", probe->session->config());
  ProbeNn(ctx);
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"mnist-conv", MnistConv},
      {"tabular-kmnc", TabularKmnc},
      {"tabular-corpus", TabularCorpus},
      {"daemon-mix", DaemonMix},
  };
  return workloads;
}

}  // namespace dxbench
