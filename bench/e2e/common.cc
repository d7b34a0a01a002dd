#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>

#include "bench/e2e/e2e.h"
#include "src/core/domain.h"
#include "src/core/executor.h"
#include "src/corpus/dedup.h"
#include "src/corpus/distill.h"
#include "src/models/zoo.h"
#include "src/nn/execution_plan.h"
#include "src/tensor/ops.h"

namespace dxbench {

using dx::Tensor;

void Digest::AddBytes(const void* data, size_t n) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    inputs_fnv ^= bytes[i];
    inputs_fnv *= 1099511628211ull;
  }
}

void Digest::AddTensor(const Tensor& t) {
  AddBytes(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Op(bool ok, const std::string& error) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    errors_.push_back(error);
  }
}

void Report::Fail(const std::string& error) { errors_.push_back(error); }

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

std::vector<Tensor> MakePool(const std::string& domain, int n, uint64_t seed) {
  return dx::GetDomain(domain).make_dataset(n, kPoolSeedBase + seed).inputs;
}

dx::SessionConfig CampaignConfig(const std::string& domain, const std::string& metric,
                                 const std::string& scheduler, uint64_t seed,
                                 bool profile_phases) {
  dx::SessionConfig config;
  config.engine = dx::GetDomain(domain).engine_defaults;
  config.engine.max_iterations_per_seed = 100;
  config.engine.rng_seed = kPoolSeedBase + seed;
  config.metric = metric;
  config.objective = "joint";
  config.scheduler = scheduler;
  config.workers = kComputeThreads;
  config.batch_size = 8;
  config.sync_interval = 24;
  config.profile_phases = profile_phases;
  return config;
}

std::unique_ptr<Campaign> SetUpCampaign(Context& ctx, const std::string& domain,
                                        const dx::SessionConfig& config,
                                        const std::vector<Tensor>& pool,
                                        const std::string& corpus_dir) {
  auto c = std::make_unique<Campaign>();
  {
    ScopedSpan span(ctx.tracer, "setup.models");
    c->models = dx::ModelZoo::TrainedDomain(domain);
  }
  std::vector<dx::Model*> ptrs;
  for (dx::Model& m : c->models) {
    ptrs.push_back(&m);
  }
  {
    ScopedSpan span(ctx.tracer, "setup.session");
    c->constraint = dx::MakeDomainConstraint(dx::GetDomain(domain), "default");
    c->session = std::make_unique<dx::Session>(ptrs, c->constraint.get(), config);
  }
  if (!corpus_dir.empty()) {
    std::filesystem::remove_all(corpus_dir);
    ScopedSpan span(ctx.tracer, "setup.corpus");
    c->corpus = std::make_unique<dx::Corpus>(corpus_dir);
    c->corpus->SetMetadata("domain", domain);
    c->corpus->SetMetadata("constraint",
                           dx::ResolveDomainConstraint(dx::GetDomain(domain), "default"));
  }
  ScopedSpan span(ctx.tracer, "session.begin_run");
  c->run = c->session->BeginRun(pool, dx::RunOptions{}, c->corpus.get());
  return c;
}

void WarmUp(Context& ctx, const std::string& domain, const dx::SessionConfig& config,
            const std::vector<Tensor>& pool) {
  ScopedSpan span(ctx.tracer, "setup.warmup");
  std::unique_ptr<Campaign> c = SetUpCampaign(ctx, domain, config, pool, "");
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < kWarmupSeconds && c->run->Step()) {
  }
}

CampaignResult DriveCampaign(Context& ctx, Campaign& campaign) {
  CampaignResult result;
  dx::ExecutorProfile before = campaign.session->ExecutorPhases();
  const dx::ExecutorProfile start = before;
  while (true) {
    ScopedSpan span(ctx.tracer, "session.step");
    const Clock::time_point t0 = Clock::now();
    bool ran = false;
    bool ok = true;
    std::string error;
    try {
      ran = campaign.run->Step();
    } catch (const std::exception& e) {
      ok = false;
      error = std::string("SessionRun::Step: ") + e.what();
    }
    const double dt = SecondsSince(t0);
    result.seconds += dt;
    ctx.report.Op(ok, error);
    if (!ok || !ran) {
      break;
    }
    result.step_ms.push_back(dt * 1e3);
    if (ctx.traced()) {
      const dx::ExecutorProfile now = campaign.session->ExecutorPhases();
      span.Arg("stack_s", now.stack_seconds - before.stack_seconds);
      span.Arg("forward_s", now.forward_seconds - before.forward_seconds);
      span.Arg("backward_layers_s",
               now.backward_layers_seconds - before.backward_layers_seconds);
      span.Arg("objective_accumulate_s",
               now.objective_accumulate_seconds - before.objective_accumulate_seconds);
      span.Arg("constraint_s", now.constraint_seconds - before.constraint_seconds);
      span.Arg("coverage_s", now.coverage_seconds - before.coverage_seconds);
      span.Arg("iterations", static_cast<double>(now.iterations - before.iterations));
      span.Arg("tests", static_cast<double>(campaign.run->stats().tests.size()));
      before = now;
    }
  }
  const dx::ExecutorProfile end = campaign.session->ExecutorPhases();
  result.phases.stack_seconds = end.stack_seconds - start.stack_seconds;
  result.phases.forward_seconds = end.forward_seconds - start.forward_seconds;
  result.phases.backward_layers_seconds =
      end.backward_layers_seconds - start.backward_layers_seconds;
  result.phases.objective_accumulate_seconds =
      end.objective_accumulate_seconds - start.objective_accumulate_seconds;
  result.phases.constraint_seconds = end.constraint_seconds - start.constraint_seconds;
  result.phases.coverage_seconds = end.coverage_seconds - start.coverage_seconds;
  result.phases.iterations = end.iterations - start.iterations;
  result.stats = campaign.run->Snapshot();
  return result;
}

void VerifyTests(Context& ctx, const dx::Session& session,
                 const std::vector<dx::GeneratedTest>& tests) {
  constexpr int kWidth = 8;
  const int n = static_cast<int>(tests.size());
  std::vector<std::vector<int>> labels(tests.size());
  std::vector<std::vector<float>> outputs(tests.size());
  for (int k = 0; k < session.num_models(); ++k) {
    const dx::Model& model = session.model(k);
    dx::ExecutionPlan plan = model.Compile(kWidth);
    const int last = model.num_layers() - 1;
    for (int begin = 0; begin < n; begin += kWidth) {
      const int width = std::min(kWidth, n - begin);
      std::vector<const Tensor*> batch;
      for (int i = begin; i < begin + width; ++i) {
        batch.push_back(&tests[static_cast<size_t>(i)].input);
      }
      const dx::BatchTrace& trace = plan.ForwardBatch(dx::StackSamples(batch), width);
      for (int b = 0; b < width; ++b) {
        const Tensor out = trace.SampleOutput(last, b);
        outputs[static_cast<size_t>(begin + b)].push_back(out[0]);
        labels[static_cast<size_t>(begin + b)].push_back(static_cast<int>(out.Argmax()));
      }
    }
  }
  int bad = 0;
  for (size_t i = 0; i < tests.size(); ++i) {
    const dx::GeneratedTest& t = tests[i];
    bool ok;
    if (session.regression()) {
      const auto [lo, hi] = std::minmax_element(outputs[i].begin(), outputs[i].end());
      ok = outputs[i] == t.outputs && *hi - *lo > session.config().engine.steering_eps;
    } else {
      ok = labels[i] == t.labels &&
           std::any_of(labels[i].begin(), labels[i].end(),
                       [&](int l) { return l != labels[i][0]; });
    }
    bad += ok ? 0 : 1;
  }
  ctx.report.Op(bad == 0, std::to_string(bad) + " of " + std::to_string(n) +
                              " generated tests are not difference-inducing on re-prediction");
}

void DigestStats(Digest* digest, const dx::RunStats& stats) {
  digest->tests += static_cast<int64_t>(stats.tests.size());
  digest->forward_passes += stats.forward_passes;
  for (const dx::GeneratedTest& t : stats.tests) {
    digest->AddTensor(t.input);
  }
}

namespace {

// Session::Replay of the corpus at `dir` inside span `name`, as one op.
double ReplayOp(Context& ctx, dx::Session& session, const std::string& dir,
                const char* name) {
  return Timed(ctx.tracer, name, [&] {
    try {
      const dx::Corpus corpus(dir);
      const dx::ReplayResult r = session.Replay(corpus);
      ctx.report.Op(r.ok, "replay of " + dir + " diverged: " + r.mismatch);
    } catch (const std::exception& e) {
      ctx.report.Op(false, "replay of " + dir + ": " + e.what());
    }
  });
}

}  // namespace

CorpusPasses RunCorpusPasses(Context& ctx, dx::Session& session, const std::string& raw_dir) {
  CorpusPasses p;
  p.replay_s = ReplayOp(ctx, session, raw_dir, "session.replay");
  try {
    const dx::Corpus raw(raw_dir);
    dx::DedupOptions dedup;
    dedup.out_dir = raw_dir + ".dedup";
    std::filesystem::remove_all(dedup.out_dir);
    dx::MaintenanceReport report;
    p.dedup_s = Timed(ctx.tracer, "maintenance.dedup",
                      [&] { report = dx::DedupCorpus(session, raw, dedup); });
    p.input_entries = report.input_entries;
    p.dedup_kept = report.retained_entries;
    ctx.report.Op(true);
    p.verify_s += ReplayOp(ctx, session, dedup.out_dir, "maintenance.verify");

    dx::DistillOptions distill;
    distill.out_dir = raw_dir + ".distill";
    std::filesystem::remove_all(distill.out_dir);
    p.distill_s = Timed(ctx.tracer, "maintenance.distill",
                        [&] { report = dx::DistillCorpus(session, raw, distill); });
    p.distill_kept = report.retained_entries;
    ctx.report.Op(true);
    p.verify_s += ReplayOp(ctx, session, distill.out_dir, "maintenance.verify");
  } catch (const std::exception& e) {
    ctx.report.Op(false, std::string("corpus maintenance: ") + e.what());
  }
  return p;
}

}  // namespace dxbench
