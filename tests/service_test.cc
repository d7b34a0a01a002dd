// Campaign service: concurrent campaigns multiplexed over one daemon must
// stay bit-identical to standalone Session::Run; pause/resume, daemon
// kill/restart/resume and compacting a live campaign's corpus must not
// change results or damage the corpus; the ctl protocol must reject
// malformed and conflicting requests; /health and /metrics must serve
// parseable introspection (Prometheus text format).
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/constraints/image_constraints.h"
#include "src/core/domain.h"
#include "src/core/session.h"
#include "src/corpus/corpus.h"
#include "src/data/dataset.h"
#include "src/models/zoo.h"
#include "src/nn/dense.h"
#include "src/nn/model.h"
#include "src/nn/softmax_layer.h"
#include "src/service/campaign_manager.h"
#include "src/service/client.h"
#include "src/service/daemon.h"
#include "src/service/net.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace dx {
namespace {

// ---- Toy domains -----------------------------------------------------------
// Two cheap registered domains (tiny dense classifiers over a 2-d task) so
// campaigns train in milliseconds and two concurrent campaigns genuinely
// exercise different domains.

Dataset MakeToyTask(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset ds{"svc_toy", {2}, 2, {}, {}};
  while (ds.size() < n) {
    Tensor x({2});
    x[0] = rng.NextFloat();
    x[1] = rng.NextFloat();
    if (std::abs(x[0] - x[1]) < 0.08f) {
      continue;
    }
    const float label = x[0] > x[1] ? 0.0f : 1.0f;
    ds.Add(std::move(x), label);
  }
  return ds;
}

void RegisterToyDomains() {
  static const bool once = [] {
    const struct {
      const char* key;
      const char* prefix;
      uint64_t data_seed;
    } kDomains[] = {{"svc_toy_a", "SVA", 300}, {"svc_toy_b", "SVB", 400}};
    for (const auto& d : kDomains) {
      DomainSpec spec;
      spec.key = d.key;
      spec.display_name = d.key;
      spec.description = "service_test toy domain";
      spec.make_dataset = [](int n, uint64_t seed) { return MakeToyTask(n, seed); };
      spec.training.train_samples = 500;
      spec.training.test_samples = 60;
      spec.training.epochs = 8;
      spec.training.learning_rate = 5e-3f;
      spec.training.data_seed = d.data_seed;
      spec.training.fast_train_divisor = 1;
      spec.training.fast_test_divisor = 1;
      const int hidden[] = {16, 24, 12};
      for (int m = 0; m < 3; ++m) {
        DomainModelSpec model;
        model.name = std::string(d.prefix) + "_" + std::to_string(m + 1);
        model.arch = "dense-" + std::to_string(hidden[m]);
        model.paper_arch = "out-of-paper toy";
        const int width = hidden[m];
        const std::string name = model.name;
        model.build = [width, name](uint64_t seed) {
          Rng rng(seed);
          Model model_out(name, {2});
          model_out.Emplace<Dense>(2, width, Activation::kRelu).InitParams(rng);
          model_out.Emplace<Dense>(width, 2).InitParams(rng);
          model_out.Emplace<SoftmaxLayer>();
          return model_out;
        };
        spec.models.push_back(std::move(model));
      }
      DomainConstraintSpec constraint;
      constraint.name = "free";
      constraint.make = [] { return std::make_unique<UnconstrainedImage>(); };
      spec.constraints.push_back(std::move(constraint));
      spec.default_constraint = "free";
      spec.engine_defaults.lambda1 = 2.5f;
      spec.engine_defaults.step = 0.05f;
      spec.engine_defaults.max_iterations_per_seed = 120;
      RegisterDomain(std::move(spec));
    }
    return true;
  }();
  (void)once;
}

// ---- Helpers ---------------------------------------------------------------

// What CampaignManager does for a fresh campaign, done standalone: the
// reference results every bit-identity assertion compares against.
RunStats StandaloneRun(const CampaignSpec& spec, int workers) {
  const DomainSpec& domain = GetDomain(spec.domain);
  const std::string constraint_key = ResolveDomainConstraint(domain, spec.constraint);
  std::unique_ptr<Constraint> constraint = MakeDomainConstraint(domain, constraint_key);
  std::vector<Model> models = ModelZoo::TrainedDomain(spec.domain);
  std::vector<Model*> ptrs;
  for (Model& m : models) {
    ptrs.push_back(&m);
  }
  SessionConfig config;
  config.engine = domain.engine_defaults;
  config.engine.rng_seed = spec.rng_seed;
  if (spec.max_iterations_per_seed > 0) {
    config.engine.max_iterations_per_seed = spec.max_iterations_per_seed;
  }
  config.metric = spec.metric;
  config.objective = spec.objective;
  config.scheduler = spec.scheduler;
  config.batch_size = spec.batch_size;
  config.sync_interval = spec.sync_interval;
  config.workers = workers;
  Session session(ptrs, constraint.get(), config);
  const Dataset& test = ModelZoo::TestSet(spec.domain);
  std::vector<Tensor> seeds;
  for (int i = 0; i < spec.seeds; ++i) {
    seeds.push_back(test.inputs[static_cast<size_t>(i) % test.size()]);
  }
  RunOptions options;
  options.max_tests = spec.max_tests;
  options.max_seed_passes = spec.max_seed_passes;
  options.coverage_goal = spec.coverage_goal;
  return session.Run(seeds, options);
}

void ExpectSameResults(const RunStats& daemon_side, const RunStats& standalone) {
  ASSERT_EQ(daemon_side.tests.size(), standalone.tests.size());
  EXPECT_EQ(daemon_side.seeds_tried, standalone.seeds_tried);
  EXPECT_EQ(daemon_side.seeds_skipped, standalone.seeds_skipped);
  EXPECT_EQ(daemon_side.total_iterations, standalone.total_iterations);
  EXPECT_EQ(daemon_side.forward_passes, standalone.forward_passes);
  EXPECT_FLOAT_EQ(daemon_side.mean_coverage, standalone.mean_coverage);
  for (size_t i = 0; i < daemon_side.tests.size(); ++i) {
    EXPECT_EQ(daemon_side.tests[i].input.values(), standalone.tests[i].input.values())
        << "test " << i;
    EXPECT_EQ(daemon_side.tests[i].seed_index, standalone.tests[i].seed_index);
    EXPECT_EQ(daemon_side.tests[i].iterations, standalone.tests[i].iterations);
    EXPECT_EQ(daemon_side.tests[i].deviating_model, standalone.tests[i].deviating_model);
    EXPECT_EQ(daemon_side.tests[i].task_ordinal, standalone.tests[i].task_ordinal);
    EXPECT_EQ(daemon_side.tests[i].labels, standalone.tests[i].labels);
  }
}

CampaignStatus WaitFor(CampaignManager& manager, uint64_t id,
                       const std::function<bool(const CampaignStatus&)>& pred,
                       double timeout_seconds = 60.0) {
  Timer timer;
  CampaignStatus status = manager.Status(id);
  while (!pred(status)) {
    if (timer.ElapsedSeconds() > timeout_seconds) {
      ADD_FAILURE() << "campaign " << id << " stuck in "
                    << CampaignStateName(status.state) << " after "
                    << timeout_seconds << "s (error: " << status.error << ")";
      return status;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    status = manager.Status(id);
  }
  return status;
}

bool Terminal(const CampaignStatus& status) {
  return status.state == CampaignState::kDone ||
         status.state == CampaignState::kFailed ||
         status.state == CampaignState::kCancelled;
}

Json SubmitRequest(const CampaignSpec& spec) {
  Json request = Json::Object();
  request["cmd"] = Json("submit");
  request["domain"] = Json(spec.domain);
  request["seeds"] = Json(spec.seeds);
  request["max_seed_passes"] = Json(spec.max_seed_passes);
  request["max_iterations_per_seed"] = Json(spec.max_iterations_per_seed);
  request["rng_seed"] = Json(spec.rng_seed);
  request["batch_size"] = Json(spec.batch_size);
  request["sync_interval"] = Json(spec.sync_interval);
  if (!spec.corpus_dir.empty()) {
    request["corpus_dir"] = Json(spec.corpus_dir);
  }
  if (spec.resume) {
    request["resume"] = Json(true);
  }
  return request;
}

std::string TempDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "service_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

CampaignSpec ToySpec(const std::string& domain) {
  RegisterToyDomains();
  CampaignSpec spec;
  spec.domain = domain;
  spec.seeds = 14;
  spec.max_seed_passes = 2;
  spec.sync_interval = 4;
  return spec;
}

DaemonOptions TestDaemonOptions() {
  DaemonOptions options;
  options.port = 0;       // ephemeral: tests never collide on ports
  options.http_port = 0;
  options.manager.campaign_workers = 2;
  options.manager.compute_threads = 2;
  options.manager.slice_batches = 1;
  return options;
}

// ---- Bit-identity ----------------------------------------------------------

TEST(ServiceTest, ConcurrentCampaignsMatchStandalone) {
  CampaignSpec spec_a = ToySpec("svc_toy_a");
  CampaignSpec spec_b = ToySpec("svc_toy_b");
  spec_b.seeds = 10;
  spec_b.rng_seed = 77;
  spec_b.batch_size = 3;

  // Standalone references first (also warms the trained-model disk cache).
  // Different worker counts on purpose: the invariant covers any.
  const RunStats standalone_a = StandaloneRun(spec_a, 1);
  const RunStats standalone_b = StandaloneRun(spec_b, 3);
  ASSERT_GT(standalone_a.tests.size() + standalone_b.tests.size(), 0u);

  Daemon daemon(TestDaemonOptions());
  daemon.Start();

  // Submit through the real ctl socket, concurrently in one daemon.
  const Json response_a =
      CtlRequest("127.0.0.1", daemon.port(), SubmitRequest(spec_a));
  const Json response_b =
      CtlRequest("127.0.0.1", daemon.port(), SubmitRequest(spec_b));
  ASSERT_TRUE(response_a.GetBool("ok", false)) << response_a.Dump();
  ASSERT_TRUE(response_b.GetBool("ok", false)) << response_b.Dump();
  const uint64_t id_a = static_cast<uint64_t>(response_a.At("id").AsInt());
  const uint64_t id_b = static_cast<uint64_t>(response_b.At("id").AsInt());

  const CampaignStatus done_a = WaitFor(daemon.manager(), id_a, Terminal);
  const CampaignStatus done_b = WaitFor(daemon.manager(), id_b, Terminal);
  ASSERT_EQ(done_a.state, CampaignState::kDone) << done_a.error;
  ASSERT_EQ(done_b.state, CampaignState::kDone) << done_b.error;

  ExpectSameResults(daemon.manager().Results(id_a), standalone_a);
  ExpectSameResults(daemon.manager().Results(id_b), standalone_b);

  // The ctl `results` view agrees with the in-process stats.
  Json results_request = Json::Object();
  results_request["cmd"] = Json("results");
  results_request["id"] = Json(id_a);
  const Json results = CtlRequest("127.0.0.1", daemon.port(), results_request);
  ASSERT_TRUE(results.GetBool("ok", false)) << results.Dump();
  EXPECT_EQ(results.At("seeds_tried").AsInt(), standalone_a.seeds_tried);
  EXPECT_EQ(results.At("tests").AsArray().size(), standalone_a.tests.size());
}

TEST(ServiceTest, PauseResumeIsBitIdentical) {
  CampaignSpec spec = ToySpec("svc_toy_a");
  // ~28 sync batches with a fat per-seed iteration budget: a wide-enough
  // window that the pause request reliably lands mid-flight.
  spec.max_seed_passes = 8;
  spec.max_iterations_per_seed = 250;
  spec.sync_interval = 4;
  const RunStats standalone = StandaloneRun(spec, 2);

  Daemon daemon(TestDaemonOptions());
  daemon.Start();
  const uint64_t id = daemon.manager().Submit(spec);

  WaitFor(daemon.manager(), id, [](const CampaignStatus& s) {
    return s.progress.batches >= 3 || Terminal(s);
  });
  ASSERT_TRUE(daemon.manager().Pause(id));
  const CampaignStatus paused = WaitFor(daemon.manager(), id, [](const CampaignStatus& s) {
    return s.state == CampaignState::kPaused || Terminal(s);
  });
  ASSERT_EQ(paused.state, CampaignState::kPaused);
  const uint64_t paused_batches = paused.progress.batches;

  // While paused, nothing moves.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(daemon.manager().Status(id).progress.batches, paused_batches);

  ASSERT_TRUE(daemon.manager().Resume(id));
  const CampaignStatus done = WaitFor(daemon.manager(), id, Terminal);
  ASSERT_EQ(done.state, CampaignState::kDone) << done.error;

  ExpectSameResults(daemon.manager().Results(id), standalone);
}

TEST(ServiceTest, DrainRestartResumeIsBitIdentical) {
  const std::string corpus_dir = TempDir("corpus");
  CampaignSpec spec = ToySpec("svc_toy_a");
  spec.max_seed_passes = 8;
  spec.max_iterations_per_seed = 250;
  spec.corpus_dir = corpus_dir;
  CampaignSpec uninterrupted = spec;
  uninterrupted.corpus_dir.clear();
  const RunStats standalone = StandaloneRun(uninterrupted, 2);

  // First daemon: run a few batches, then drain (the graceful-shutdown path
  // `dxplored --drain` takes) and kill the daemon.
  {
    Daemon daemon(TestDaemonOptions());
    daemon.Start();
    const uint64_t id = daemon.manager().Submit(spec);
    WaitFor(daemon.manager(), id, [](const CampaignStatus& s) {
      return s.progress.batches >= 2 || Terminal(s);
    });
    daemon.manager().Drain();
    const CampaignStatus drained = daemon.manager().Status(id);
    ASSERT_EQ(drained.state, CampaignState::kPaused)
        << "drain must checkpoint-and-pause, got "
        << CampaignStateName(drained.state);
    ASSERT_LT(drained.progress.batches,
              static_cast<uint64_t>(standalone.seeds_tried));  // genuinely mid-run
    daemon.Stop();
  }

  // The checkpointed corpus is resumable and complete enough to validate.
  {
    Corpus corpus(corpus_dir);
    ASSERT_TRUE(corpus.initialized());
    ASSERT_TRUE(corpus.has_checkpoint());
    ASSERT_FALSE(corpus.checkpoint().complete);
  }

  // Second daemon (fresh process state): resume from the corpus alone.
  Daemon daemon(TestDaemonOptions());
  daemon.Start();
  CampaignSpec resume_spec;
  resume_spec.corpus_dir = corpus_dir;
  resume_spec.resume = true;
  const Json response =
      CtlRequest("127.0.0.1", daemon.port(), SubmitRequest(resume_spec));
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Dump();
  const uint64_t id = static_cast<uint64_t>(response.At("id").AsInt());
  const CampaignStatus done = WaitFor(daemon.manager(), id, Terminal);
  ASSERT_EQ(done.state, CampaignState::kDone) << done.error;

  ExpectSameResults(daemon.manager().Results(id), standalone);
}

TEST(ServiceTest, CompactingARunningCampaignLeavesItIntact) {
  const std::string corpus_dir = TempDir("corpus");
  CampaignSpec spec = ToySpec("svc_toy_a");
  spec.max_seed_passes = 8;
  spec.max_iterations_per_seed = 250;
  spec.corpus_dir = corpus_dir;
  CampaignSpec uninterrupted = spec;
  uninterrupted.corpus_dir.clear();
  const RunStats standalone = StandaloneRun(uninterrupted, 2);

  // Compact pauses the live campaign at a batch boundary, reads its corpus
  // and requeues it; the campaign then writes on into the same corpus.
  Daemon daemon(TestDaemonOptions());
  daemon.Start();
  const uint64_t id = daemon.manager().Submit(spec);
  WaitFor(daemon.manager(), id, [](const CampaignStatus& s) {
    return s.progress.batches >= 3 || Terminal(s);
  });
  CompactOptions compact;
  compact.out_dir = TempDir("compacted");
  compact.minimize = false;
  const CompactResult result = daemon.manager().Compact(id, compact);
  EXPECT_TRUE(result.verified);
  EXPECT_TRUE(result.resumed);
  const CampaignStatus done = WaitFor(daemon.manager(), id, Terminal);
  ASSERT_EQ(done.state, CampaignState::kDone) << done.error;
  ExpectSameResults(daemon.manager().Results(id), standalone);

  const Corpus corpus(corpus_dir);
  ASSERT_TRUE(corpus.has_checkpoint());
  EXPECT_TRUE(corpus.checkpoint().complete);
  ASSERT_EQ(corpus.entries().size(), standalone.tests.size());
  for (size_t i = 0; i < standalone.tests.size(); ++i) {
    const GeneratedTest& entry = corpus.entries()[i];
    EXPECT_EQ(entry.input.values(), standalone.tests[i].input.values()) << "entry " << i;
    EXPECT_EQ(entry.seed_index, standalone.tests[i].seed_index) << "entry " << i;
    EXPECT_EQ(entry.iterations, standalone.tests[i].iterations) << "entry " << i;
    EXPECT_EQ(entry.deviating_model, standalone.tests[i].deviating_model) << "entry " << i;
    EXPECT_EQ(entry.task_ordinal, standalone.tests[i].task_ordinal) << "entry " << i;
    EXPECT_EQ(entry.labels, standalone.tests[i].labels) << "entry " << i;
  }
}

// ---- Error paths -----------------------------------------------------------

TEST(ServiceTest, MalformedRequestsAreRejected) {
  RegisterToyDomains();
  Daemon daemon(TestDaemonOptions());
  daemon.Start();

  // Raw garbage over the real socket: parse failure becomes an error reply.
  {
    Socket conn = TcpConnect("127.0.0.1", daemon.port());
    WriteAll(conn, "this is not json\n");
    LineReader reader(conn);
    std::string line;
    ASSERT_TRUE(reader.ReadLine(&line));
    const Json response = Json::Parse(line);
    EXPECT_FALSE(response.GetBool("ok", true));
    EXPECT_NE(response.GetString("error", ""), "");
  }

  const auto expect_error = [&](const std::string& request_text,
                                const std::string& fragment) {
    const Json response = daemon.Handle(Json::Parse(request_text));
    EXPECT_FALSE(response.GetBool("ok", true)) << request_text;
    EXPECT_NE(response.GetString("error", "").find(fragment), std::string::npos)
        << request_text << " -> " << response.Dump();
  };
  expect_error(R"({})", "cmd");
  expect_error(R"({"cmd":"frobnicate"})", "unknown cmd");
  expect_error(R"({"cmd":"status"})", "missing key");
  expect_error(R"({"cmd":"status","id":999})", "unknown campaign");
  expect_error(R"({"cmd":"pause","id":"one"})", "expected number");
  expect_error(R"({"cmd":"submit","domain":"no_such_domain"})", "unknown domain");
  expect_error(R"({"cmd":"submit","domain":"svc_toy_a","seeds":0})", "seeds");
  // Plug-in keys and batch_size are checked at submit, not by the worker that
  // would build the session later and fail the campaign.
  expect_error(R"({"cmd":"submit","domain":"svc_toy_a","metric":"no-such-metric"})",
               "metric");
  expect_error(R"({"cmd":"submit","domain":"svc_toy_a","objective":"no-such-objective"})",
               "objective");
  expect_error(R"({"cmd":"submit","domain":"svc_toy_a","scheduler":"no-such-scheduler"})",
               "scheduler");
  expect_error(R"({"cmd":"submit","domain":"svc_toy_a","batch_size":0})", "batch_size");
  expect_error(R"({"cmd":"submit","resume":true})", "corpus_dir");
  expect_error(R"({"cmd":"results","id":12345})", "unknown campaign");
}

TEST(ServiceTest, DoubleSubmitOnOneCorpusIsRejected) {
  Daemon daemon(TestDaemonOptions());
  daemon.Start();
  const std::string corpus_dir = TempDir("corpus");

  // A long-running durable campaign claims the corpus dir...
  CampaignSpec spec = ToySpec("svc_toy_a");
  spec.max_seed_passes = 200;
  spec.corpus_dir = corpus_dir;
  const uint64_t id = daemon.manager().Submit(spec);

  // ...so a second submit against the same dir conflicts while it is live.
  const Json conflict =
      CtlRequest("127.0.0.1", daemon.port(), SubmitRequest(spec));
  EXPECT_FALSE(conflict.GetBool("ok", true));
  EXPECT_NE(conflict.GetString("error", "").find("already in use"),
            std::string::npos)
      << conflict.Dump();

  // Results of a non-DONE campaign are refused too.
  Json results_request = Json::Object();
  results_request["cmd"] = Json("results");
  results_request["id"] = Json(id);
  const Json results = CtlRequest("127.0.0.1", daemon.port(), results_request);
  EXPECT_FALSE(results.GetBool("ok", true));

  // Let the campaign finish at least one batch (so its corpus exists on disk
  // with a checkpoint) before cancelling — a cancel that lands before the
  // first slice tears the campaign down without ever claiming the dir.
  WaitFor(daemon.manager(), id, [](const CampaignStatus& s) {
    return s.progress.batches >= 1 || Terminal(s);
  });
  ASSERT_TRUE(daemon.manager().Cancel(id));
  const CampaignStatus cancelled = WaitFor(daemon.manager(), id, Terminal);
  EXPECT_EQ(cancelled.state, CampaignState::kCancelled);

  // The cancelled campaign checkpointed; a *fresh* submit into its dir must
  // still be refused (resume is the only way to continue a recorded corpus).
  CampaignSpec fresh = ToySpec("svc_toy_a");
  fresh.corpus_dir = corpus_dir;
  EXPECT_THROW(daemon.manager().Submit(fresh), std::invalid_argument);

  // Resuming a directory that holds nothing is refused.
  CampaignSpec bad_resume;
  bad_resume.corpus_dir = TempDir("empty");
  bad_resume.resume = true;
  EXPECT_THROW(daemon.manager().Submit(bad_resume), std::invalid_argument);
}

// ---- Introspection plane ---------------------------------------------------

// A line of the Prometheus text format: comment or `name{labels} value`.
void ExpectPrometheusLine(const std::string& line) {
  if (line.empty() || line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
    return;
  }
  const size_t space = line.rfind(' ');
  ASSERT_NE(space, std::string::npos) << line;
  std::string name = line.substr(0, space);
  const std::string value = line.substr(space + 1);
  const size_t brace = name.find('{');
  if (brace != std::string::npos) {
    ASSERT_EQ(name.back(), '}') << line;
    name = name.substr(0, brace);
  }
  ASSERT_FALSE(name.empty()) << line;
  for (char c : name) {
    ASSERT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')
        << line;
  }
  if (value != "NaN" && value != "+Inf" && value != "-Inf") {
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    ASSERT_EQ(*end, '\0') << "unparseable sample value in: " << line;
  }
}

TEST(ServiceTest, HealthAndMetricsAreServedAndParseable) {
  CampaignSpec spec = ToySpec("svc_toy_a");
  StandaloneRun(spec, 1);  // warm the model cache so the campaign is quick

  Daemon daemon(TestDaemonOptions());
  daemon.Start();
  const uint64_t id = daemon.manager().Submit(spec);
  const CampaignStatus done = WaitFor(daemon.manager(), id, Terminal);
  ASSERT_EQ(done.state, CampaignState::kDone) << done.error;

  // /health over real HTTP.
  const Json health =
      Json::Parse(HttpGet("127.0.0.1", daemon.http_port(), "/health"));
  EXPECT_EQ(health.GetString("status", ""), "ok");
  EXPECT_GE(health.GetInt("campaigns", 0), 1);

  // /metrics over real HTTP: every line must parse, and the families the
  // issue pins (per-campaign tests/s, differences found, coverage %, phase
  // timings) must be present.
  const std::string metrics =
      HttpGet("127.0.0.1", daemon.http_port(), "/metrics");
  std::istringstream lines(metrics);
  std::string line;
  int samples = 0;
  while (std::getline(lines, line)) {
    ExpectPrometheusLine(line);
    if (!line.empty() && line[0] != '#') {
      ++samples;
    }
  }
  EXPECT_GT(samples, 10);
  for (const char* family :
       {"dxplored_campaign_tests_per_second", "dxplored_campaign_tests_total",
        "dxplored_campaign_coverage_ratio", "dxplored_executor_phase_seconds",
        "dxplored_campaigns_submitted_total", "dxplored_uptime_seconds"}) {
    EXPECT_NE(metrics.find(family), std::string::npos) << "missing " << family;
  }
  EXPECT_NE(metrics.find("phase=\"forward\""), std::string::npos);
  EXPECT_NE(metrics.find("domain=\"svc_toy_a\""), std::string::npos);

  // Unknown paths 404 (HttpGet surfaces non-200 as an exception).
  EXPECT_THROW(HttpGet("127.0.0.1", daemon.http_port(), "/nope"),
               std::runtime_error);
}

}  // namespace
}  // namespace dx
