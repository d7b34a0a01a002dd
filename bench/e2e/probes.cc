// Per-layer metrics of the traced run. Timings are means of the spans the
// benchmark records around each call into a layer's public API.
#include <algorithm>
#include <filesystem>
#include <sstream>

#include "bench/e2e/e2e.h"
#include "src/core/domain.h"
#include "src/core/executor.h"
#include "src/coverage/coverage_metric.h"
#include "src/models/zoo.h"
#include "src/nn/execution_plan.h"
#include "src/tensor/ops.h"
#include "src/tensor/workspace.h"
#include "src/util/rng.h"
#include "src/util/serialize.h"

namespace dxbench {
namespace {

using dx::Tensor;

constexpr int kBatch = 8;
constexpr int kReps = 100;

// Mean duration in seconds of the spans called `name` (0 when none closed).
double MeanSpan(const Tracer& tracer, const std::string& name) {
  const std::map<std::string, Tracer::NameStats> stats = tracer.Stats();
  const auto it = stats.find(name);
  return it == stats.end() || it->second.count == 0
             ? 0.0
             : it->second.total_s / static_cast<double>(it->second.count);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

Tensor StackFirst(const std::vector<Tensor>& inputs, int n) {
  std::vector<const Tensor*> ptrs;
  for (int i = 0; i < n; ++i) {
    ptrs.push_back(&inputs[static_cast<size_t>(i)]);
  }
  return dx::StackSamples(ptrs);
}

// Forward and input-gradient GFLOP/s of each conv2d/dense layer of `model`
// on the batch-`kBatch` trace in `plan`. FLOPs are computed from shapes:
// 2 * batch * outputs * (weights per output channel), both directions.
void ProbeLayerKernels(Context& ctx, const dx::Model& model, const dx::BatchTrace& trace) {
  for (int i = 0; i < model.num_layers(); ++i) {
    const dx::Layer& layer = model.layer(i);
    if (layer.Kind() != "conv2d" && layer.Kind() != "dense") {
      continue;
    }
    const std::string prefix = "nn." + model.name() + ".L" + std::to_string(i);
    const Tensor& in = trace.LayerInput(i);
    Tensor out = trace.outputs[static_cast<size_t>(i)];
    Tensor aux = trace.aux[static_cast<size_t>(i)];
    const Tensor grad_out(out.shape(), 0.01f);
    Tensor grad_in(in.shape());
    const Tensor& weight = *layer.Params()[0];
    const double flops = 2.0 * static_cast<double>(out.numel()) *
                         static_cast<double>(weight.numel() / weight.dim(0));
    dx::Workspace fws;
    dx::Workspace bws;
    const auto forward = [&] {
      fws.Rewind();
      layer.ForwardBatchInto(in, kBatch, false, nullptr, &out, &aux, &fws);
    };
    const auto backward = [&] {
      bws.Rewind();
      layer.BackwardBatchInto(in, out, grad_out, aux, kBatch, &grad_in, &bws, nullptr);
    };
    const char* fwd = ctx.tracer.Intern("probe." + prefix + ".fwd");
    const char* bwd = ctx.tracer.Intern("probe." + prefix + ".bwd");
    forward();
    backward();
    for (int r = 0; r < kReps; ++r) {
      ScopedSpan span(ctx.tracer, fwd);
      forward();
    }
    for (int r = 0; r < kReps; ++r) {
      ScopedSpan span(ctx.tracer, bwd);
      backward();
    }
    ctx.report.Set(prefix + ".fwd_gflops", flops / MeanSpan(ctx.tracer, fwd) * 1e-9,
                   "GFLOP/s");
    ctx.report.Set(prefix + ".bwd_gflops", flops / MeanSpan(ctx.tracer, bwd) * 1e-9,
                   "GFLOP/s");
  }
}

void ProbeCorpusOpen(Context& ctx, const std::string& dir, std::vector<double>* open_s) {
  for (int r = 0; r < 3; ++r) {
    open_s->push_back(Timed(ctx.tracer, "corpus.open", [&] { const dx::Corpus c(dir); }));
  }
}

}  // namespace

void ReportSetupSpans(Context& ctx) {
  ctx.report.Set("models.load_ms", MeanSpan(ctx.tracer, "setup.models") * 1e3, "ms");
  ctx.report.Set("session.begin_run_ms", MeanSpan(ctx.tracer, "session.begin_run") * 1e3,
                 "ms");
}

void ReportExecutor(Context& ctx, const dx::ExecutorProfile& phases, double wall_s,
                    int64_t tests, int64_t seeds_tried, int64_t seeds_skipped,
                    int64_t iterations) {
  Report& r = ctx.report;
  const double us = 1e6 / static_cast<double>(std::max<int64_t>(1, phases.iterations));
  r.Set("executor.stack_us", phases.stack_seconds * us, "us");
  r.Set("executor.forward_us", phases.forward_seconds * us, "us");
  r.Set("executor.backward_layers_us", phases.backward_layers_seconds * us, "us");
  r.Set("executor.objective_accumulate_us", phases.objective_accumulate_seconds * us, "us");
  r.Set("executor.constraint_us", phases.constraint_seconds * us, "us");
  r.Set("executor.coverage_us", phases.coverage_seconds * us, "us");
  r.Set("session.wait_share",
        wall_s > 0.0 ? 1.0 - phases.TotalSeconds() / (wall_s * kComputeThreads) : 0.0,
        "ratio");
  r.Set("session.iters_per_test",
        tests > 0 ? static_cast<double>(iterations) / static_cast<double>(tests) : 0.0,
        "count");
  r.Set("session.skipped_share",
        seeds_tried > 0 ? static_cast<double>(seeds_skipped) / static_cast<double>(seeds_tried)
                        : 0.0,
        "ratio");
}

void ProbeNn(Context& ctx) {
  for (const char* domain : {"mnist", "tabular"}) {
    const std::vector<dx::Model> models = dx::ModelZoo::TrainedDomain(domain);
    const Tensor x = StackFirst(MakePool(domain, kBatch, ctx.options.seed), kBatch);
    for (const dx::Model& model : models) {
      dx::ExecutionPlan plan = model.Compile(kBatch);
      const int last = model.num_layers() - 1;
      const std::string prefix = "nn." + model.name();
      const char* fwd = ctx.tracer.Intern("probe." + prefix + ".fwd");
      const char* bwd = ctx.tracer.Intern("probe." + prefix + ".bwd");
      plan.ForwardBatch(x, kBatch);
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan span(ctx.tracer, fwd);
        plan.ForwardBatch(x, kBatch);
      }
      // The executor's hot call: one sample's input gradient from the
      // output layer, cycling through the batch like the executor does.
      Tensor& seed = plan.AcquireSeed(last);
      seed[0] = 1.0f;
      plan.BackwardSample(0, last, seed);
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan span(ctx.tracer, bwd);
        plan.BackwardSample(r % kBatch, last, seed);
      }
      ctx.report.Set(prefix + ".fwd_us", MeanSpan(ctx.tracer, fwd) * 1e6, "us");
      ctx.report.Set(prefix + ".bwd_us", MeanSpan(ctx.tracer, bwd) * 1e6, "us");
      if (std::string(domain) == "mnist") {
        ProbeLayerKernels(ctx, model, plan.trace());
      }
    }
  }
}

void ProbeCoverageAndConstraint(Context& ctx, dx::Session& session,
                                const dx::Constraint& constraint,
                                const std::vector<Tensor>& inputs) {
  const Tensor x = StackFirst(inputs, kBatch);
  dx::Rng rng(kPoolSeedBase + ctx.options.seed);
  size_t blob_bytes = 0;
  for (int k = 0; k < session.num_models(); ++k) {
    const dx::Model& model = session.model(k);
    dx::CoverageMetric& metric = session.metric(k);
    dx::ExecutionPlan plan = model.Compile(kBatch);
    plan.ForwardBatch(x, kBatch);
    for (int r = 0; r < kReps; ++r) {
      const dx::BatchTrace& sample = plan.SampleTrace(r % kBatch);
      ScopedSpan span(ctx.tracer, "probe.coverage.update");
      metric.UpdateBatch(model, sample);
    }
    for (int r = 0; r < kReps; ++r) {
      dx::NeuronId id;
      ScopedSpan span(ctx.tracer, "probe.coverage.pick");
      metric.PickUncovered(rng, &id);
    }
    std::vector<std::unique_ptr<dx::CoverageMetric>> clones(kReps / 4);
    for (auto& clone : clones) {
      ScopedSpan span(ctx.tracer, "probe.coverage.clone");
      clone = metric.Clone();
    }
    for (const auto& clone : clones) {
      ScopedSpan span(ctx.tracer, "probe.coverage.merge");
      metric.Merge(*clone);
    }
    std::ostringstream blob;
    dx::BinaryWriter writer(blob);
    metric.Serialize(writer);
    blob_bytes += blob.str().size();
  }
  Report& r = ctx.report;
  r.Set("coverage.update_us", MeanSpan(ctx.tracer, "probe.coverage.update") * 1e6, "us");
  r.Set("coverage.pick_us", MeanSpan(ctx.tracer, "probe.coverage.pick") * 1e6, "us");
  r.Set("coverage.clone_us", MeanSpan(ctx.tracer, "probe.coverage.clone") * 1e6, "us");
  r.Set("coverage.merge_us", MeanSpan(ctx.tracer, "probe.coverage.merge") * 1e6, "us");
  r.Set("coverage.blob_kb", static_cast<double>(blob_bytes) / 1024.0, "KiB");

  const Tensor grad = Tensor::Randn(inputs[0].shape(), rng);
  Tensor direction(grad.shape());
  for (int i = 0; i < kReps; ++i) {
    ScopedSpan span(ctx.tracer, "probe.constraints.apply");
    constraint.ApplyInto(grad, inputs[static_cast<size_t>(i % kBatch)], rng, &direction);
  }
  r.Set("constraints.apply_us", MeanSpan(ctx.tracer, "probe.constraints.apply") * 1e6, "us");
}

void ProbeCorpusWrites(Context& ctx, const std::string& raw_dir) {
  std::vector<double> open_s, entry_s, journal_s, delta_s, snapshot_s;
  ProbeCorpusOpen(ctx, raw_dir, &open_s);
  const dx::Corpus src(raw_dir);
  const std::string dst_dir = raw_dir + ".rewrite";
  std::filesystem::remove_all(dst_dir);
  dx::Corpus dst(dst_dir);
  dst.Initialize(src.meta());

  // Entries land batch by batch: a journal batch's `found` records are the
  // entries appended with it. Each checkpoint carries the recording's final
  // coverage blobs, so snapshots are as large as the real ones.
  const auto checkpoint = [&](dx::CorpusCheckpoint cp) {
    const double s = Timed(ctx.tracer, "corpus.checkpoint", [&] { dst.WriteCheckpoint(cp); });
    (dst.Stats().chain_deltas == 0 ? snapshot_s : delta_s).push_back(s);
  };
  const std::vector<dx::GeneratedTest>& entries = src.entries();
  size_t next = 0;
  for (const auto& batch : src.journal()) {
    for (const dx::CorpusCheckpoint::JournalRecord& rec : batch) {
      if (rec.found && next < entries.size()) {
        entry_s.push_back(Timed(ctx.tracer, "corpus.append_entry",
                                [&] { dst.AppendEntry(entries[next]); }));
        ++next;
      }
    }
    journal_s.push_back(
        Timed(ctx.tracer, "corpus.append_journal", [&] { dst.AppendJournalBatch(batch); }));
    dx::CorpusCheckpoint cp = src.checkpoint();
    cp.complete = false;
    cp.num_tests = next;
    cp.num_batches = dst.journal().size();
    checkpoint(cp);
  }
  checkpoint(src.checkpoint());
  if (next != entries.size()) {
    ctx.report.Fail("corpus re-drive placed " + std::to_string(next) + " of " +
                    std::to_string(entries.size()) + " entries");
  }
  ProbeCorpusOpen(ctx, dst_dir, &open_s);

  Report& r = ctx.report;
  r.Set("corpus.append_entry_us", Mean(entry_s) * 1e6, "us");
  r.Set("corpus.append_journal_us", Mean(journal_s) * 1e6, "us");
  r.Set("corpus.checkpoint_delta_us", Mean(delta_s) * 1e6, "us");
  r.Set("corpus.checkpoint_snapshot_ms", Mean(snapshot_s) * 1e3, "ms");
  r.Set("corpus.open_ms", Mean(open_s) * 1e3, "ms");
  r.Set("corpus.bytes_per_entry",
        entries.empty() ? 0.0
                        : static_cast<double>(dst.Stats().entries_bytes) /
                              static_cast<double>(entries.size()),
        "B");
}

void ReportMaintenance(Context& ctx, const CorpusPasses& p) {
  Report& r = ctx.report;
  r.Set("maintenance.replay_s", p.replay_s, "s");
  r.Set("maintenance.dedup_s", p.dedup_s, "s");
  r.Set("maintenance.distill_s", p.distill_s, "s");
  r.Set("maintenance.verify_s", p.verify_s, "s");
  const double input = static_cast<double>(std::max<uint64_t>(1, p.input_entries));
  r.Set("maintenance.dedup_kept_share", static_cast<double>(p.dedup_kept) / input, "ratio");
  r.Set("maintenance.distill_kept_share", static_cast<double>(p.distill_kept) / input, "ratio");
}

void ReportService(Context& ctx, const DaemonDrive& d) {
  Report& r = ctx.report;
  r.Set("service.list_ms", MeanSpan(ctx.tracer, "service.ctl.list") * 1e3, "ms");
  r.Set("service.scrape_ms", MeanSpan(ctx.tracer, "service.http.metrics") * 1e3, "ms");
  r.Set("service.submit_ms", MeanSpan(ctx.tracer, "service.ctl.submit") * 1e3, "ms");
  r.Set("service.ctl_p50_ms", Percentile(d.status_ms, 50), "ms");
  r.Set("service.ctl_p90_ms", Percentile(d.status_ms, 90), "ms");
  r.Set("service.first_batch_ms", Mean(d.first_batch_s) * 1e3, "ms");
  r.Set("service.campaign_s", Mean(d.done_s), "s");
  r.Set("service.gen_late_ms", Mean(d.late_ms), "ms");
}

void ProbeRecording(Context& ctx, const std::string& domain, const dx::SessionConfig& config) {
  const std::vector<Tensor> pool = MakePool(domain, 4 * 24, ctx.options.seed);
  const std::string dir = ctx.options.work_dir + "/probe-corpus";
  std::unique_ptr<Campaign> c;
  {
    ScopedSpan span(ctx.tracer, "probe.record");
    c = SetUpCampaign(ctx, domain, config, pool, dir);
    DriveCampaign(ctx, *c);
    c->run.reset();
  }
  const CorpusPasses passes = RunCorpusPasses(ctx, *c->session, dir);
  ProbeCorpusWrites(ctx, dir);
  ReportMaintenance(ctx, passes);
}

}  // namespace dxbench
