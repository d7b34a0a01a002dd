#include "src/service/daemon.h"

#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "src/service/metrics.h"
#include "src/tensor/simd.h"

namespace dx {
namespace {

// FNV-1a over the tensor's float bytes: a stable input digest so `results`
// responses can be diffed across daemon and standalone runs without shipping
// whole tensors over the wire.
uint64_t TensorDigest(const Tensor& t) {
  uint64_t hash = 1469598103934665603ull;
  const float* data = t.data();
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(data);
  const size_t n = static_cast<size_t>(t.numel()) * sizeof(float);
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

Json Error(const std::string& message) {
  Json response = Json::Object();
  response["ok"] = Json(false);
  response["error"] = Json(message);
  return response;
}

Json Ok() {
  Json response = Json::Object();
  response["ok"] = Json(true);
  return response;
}

Json StatusJson(const CampaignStatus& status) {
  Json j = Json::Object();
  j["id"] = Json(status.id);
  j["state"] = Json(CampaignStateName(status.state));
  j["domain"] = Json(status.domain);
  j["constraint"] = Json(status.constraint);
  j["corpus_dir"] = Json(status.corpus_dir);
  if (!status.error.empty()) {
    j["error"] = Json(status.error);
  }
  j["batches"] = Json(status.progress.batches);
  j["seeds_tried"] = Json(status.progress.seeds_tried);
  j["seeds_skipped"] = Json(status.progress.seeds_skipped);
  j["tests_found"] = Json(status.progress.tests_found);
  j["total_iterations"] = Json(status.progress.total_iterations);
  j["forward_passes"] = Json(status.progress.forward_passes);
  j["mean_coverage"] = Json(static_cast<double>(status.progress.mean_coverage));
  j["seconds"] = Json(status.progress.seconds);
  j["tests_per_second"] = Json(status.tests_per_second);
  return j;
}

// An int field of a submit request. A value outside int is an error naming
// the field, not a silent wrap (4294967297 seeds is not 1 seed).
int IntField(const Json& request, const std::string& key, int fallback) {
  const int64_t value = request.GetInt(key, fallback);
  if (value < std::numeric_limits<int>::min() || value > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(key + " " + std::to_string(value) + " is out of range");
  }
  return static_cast<int>(value);
}

CampaignSpec SpecFromRequest(const Json& request) {
  CampaignSpec spec;
  spec.domain = request.GetString("domain", "");
  spec.constraint = request.GetString("constraint", "");
  spec.metric = request.GetString("metric", spec.metric);
  spec.objective = request.GetString("objective", spec.objective);
  spec.scheduler = request.GetString("scheduler", spec.scheduler);
  spec.seeds = IntField(request, "seeds", spec.seeds);
  spec.max_tests = IntField(request, "max_tests", spec.max_tests);
  spec.max_seed_passes = IntField(request, "max_seed_passes", spec.max_seed_passes);
  spec.coverage_goal = static_cast<float>(
      request.GetNumber("coverage_goal", static_cast<double>(spec.coverage_goal)));
  spec.max_iterations_per_seed =
      IntField(request, "max_iterations_per_seed", spec.max_iterations_per_seed);
  spec.rng_seed = static_cast<uint64_t>(request.GetInt("rng_seed", 1234));
  spec.batch_size = IntField(request, "batch_size", spec.batch_size);
  spec.sync_interval = IntField(request, "sync_interval", spec.sync_interval);
  spec.corpus_dir = request.GetString("corpus_dir", "");
  spec.resume = request.GetBool("resume", false);
  return spec;
}

}  // namespace

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  manager_ = std::make_unique<CampaignManager>(options_.manager);
}

Daemon::~Daemon() { Stop(); }

void Daemon::Start() {
  ctl_listener_ = TcpListen(options_.host, options_.port, &port_);
  http_server_.Start(options_.host, options_.http_port,
                     [this](const std::string& path) { return HandleHttp(path); });
  stopping_.store(false);
  ctl_thread_ = std::thread([this] { ServeCtl(); });
  uptime_.Reset();
  started_ = true;
}

void Daemon::Stop() {
  if (!started_) {
    return;
  }
  started_ = false;
  stopping_.store(true);
  try {
    Socket poke = TcpConnect(options_.host, port_);
  } catch (const std::exception&) {
  }
  ctl_thread_.join();
  ctl_listener_.Close();
  http_server_.Stop();
  manager_.reset();  // joins campaign workers (campaigns keep checkpoints)
}

void Daemon::WaitForShutdown() {
  while (!drain_requested_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  manager_->Drain();
}

void Daemon::ServeCtl() {
  while (!stopping_.load()) {
    Socket conn = TcpAccept(ctl_listener_);
    if (!conn.valid() || stopping_.load()) {
      if (stopping_.load()) {
        return;
      }
      continue;
    }
    SetRecvTimeout(conn, 5000);
    LineReader reader(conn);
    std::string line;
    if (!reader.ReadLine(&line)) {
      continue;
    }
    requests_total_.fetch_add(1);
    Json response;
    try {
      response = Handle(Json::Parse(line));
    } catch (const std::exception& e) {
      response = Error(e.what());
    }
    try {
      WriteAll(conn, response.Dump() + "\n");
    } catch (const std::exception&) {
      // Client vanished; drop the response.
    }
  }
}

Json Daemon::Handle(const Json& request) {
  if (!request.is_object()) {
    return Error("request must be a JSON object");
  }
  const std::string cmd = request.GetString("cmd", "");
  if (cmd.empty()) {
    return Error("missing \"cmd\"");
  }
  try {
    if (cmd == "ping") {
      Json response = Ok();
      response["pong"] = Json(true);
      return response;
    }
    if (cmd == "submit") {
      const uint64_t id = manager_->Submit(SpecFromRequest(request));
      Json response = Ok();
      response["id"] = Json(id);
      return response;
    }
    if (cmd == "status") {
      const uint64_t id = static_cast<uint64_t>(request.At("id").AsInt());
      Json response = Ok();
      response["campaign"] = StatusJson(manager_->Status(id));
      return response;
    }
    if (cmd == "list") {
      Json campaigns = Json::Array();
      for (const CampaignStatus& status : manager_->List()) {
        campaigns.Append(StatusJson(status));
      }
      Json response = Ok();
      response["campaigns"] = std::move(campaigns);
      return response;
    }
    if (cmd == "pause" || cmd == "resume" || cmd == "cancel") {
      const uint64_t id = static_cast<uint64_t>(request.At("id").AsInt());
      bool applied = false;
      if (cmd == "pause") {
        applied = manager_->Pause(id);
      } else if (cmd == "resume") {
        applied = manager_->Resume(id);
      } else {
        applied = manager_->Cancel(id);
      }
      Json response = Ok();
      response["applied"] = Json(applied);
      response["campaign"] = StatusJson(manager_->Status(id));
      return response;
    }
    if (cmd == "results") {
      const uint64_t id = static_cast<uint64_t>(request.At("id").AsInt());
      const RunStats stats = manager_->Results(id);
      Json response = Ok();
      response["seeds_tried"] = Json(stats.seeds_tried);
      response["seeds_skipped"] = Json(stats.seeds_skipped);
      response["total_iterations"] = Json(stats.total_iterations);
      response["forward_passes"] = Json(stats.forward_passes);
      response["mean_coverage"] = Json(static_cast<double>(stats.mean_coverage));
      response["seconds"] = Json(stats.seconds);
      Json tests = Json::Array();
      for (const GeneratedTest& test : stats.tests) {
        Json t = Json::Object();
        t["seed_index"] = Json(test.seed_index);
        t["iterations"] = Json(test.iterations);
        t["deviating_model"] = Json(test.deviating_model);
        t["task_ordinal"] = Json(test.task_ordinal);
        t["input_digest"] = Json(std::to_string(TensorDigest(test.input)));
        Json labels = Json::Array();
        for (int label : test.labels) {
          labels.Append(Json(label));
        }
        t["labels"] = std::move(labels);
        Json outputs = Json::Array();
        for (float output : test.outputs) {
          outputs.Append(Json(static_cast<double>(output)));
        }
        t["outputs"] = std::move(outputs);
        tests.Append(std::move(t));
      }
      response["tests"] = std::move(tests);
      return response;
    }
    if (cmd == "compact") {
      const uint64_t id = static_cast<uint64_t>(request.At("id").AsInt());
      CompactOptions opts;
      opts.out_dir = request.GetString("out_dir", "");
      opts.distill = request.GetBool("distill", opts.distill);
      opts.dedup = request.GetBool("dedup", opts.dedup);
      opts.minimize = request.GetBool("minimize", opts.minimize);
      opts.deduper = request.GetString("deduper", opts.deduper);
      opts.threshold = static_cast<float>(
          request.GetNumber("threshold", static_cast<double>(opts.threshold)));
      const CompactResult result = manager_->Compact(id, opts);
      Json response = Ok();
      response["out_dir"] = Json(result.out_dir);
      response["entries_before"] = Json(result.entries_before);
      response["entries_after"] = Json(result.entries_after);
      response["verified"] = Json(result.verified);
      response["resumed"] = Json(result.resumed);
      response["seconds"] = Json(result.seconds);
      Json reports = Json::Array();
      for (const MaintenanceReport& report : result.reports) {
        Json r = Json::Object();
        r["transform"] = Json(report.transform);
        r["input_entries"] = Json(static_cast<uint64_t>(report.input_entries));
        r["retained_entries"] = Json(static_cast<uint64_t>(report.retained_entries));
        r["modified_entries"] = Json(static_cast<uint64_t>(report.modified_entries));
        r["reverted_values"] = Json(static_cast<uint64_t>(report.reverted_values));
        r["seconds"] = Json(report.seconds);
        reports.Append(std::move(r));
      }
      response["reports"] = std::move(reports);
      return response;
    }
    if (cmd == "drain") {
      RequestDrain();
      Json response = Ok();
      response["draining"] = Json(true);
      return response;
    }
    return Error("unknown cmd \"" + cmd + "\"");
  } catch (const std::exception& e) {
    return Error(e.what());
  }
}

Json Daemon::HealthJson() {
  Json health = Json::Object();
  health["status"] = Json("ok");
  health["uptime_seconds"] = Json(uptime_.ElapsedSeconds());
  health["draining"] = Json(manager_->draining() || drain_requested_.load());
  int running = 0;
  const std::vector<CampaignStatus> campaigns = manager_->List();
  for (const CampaignStatus& c : campaigns) {
    if (c.state == CampaignState::kRunning) {
      ++running;
    }
  }
  health["campaigns"] = Json(static_cast<int64_t>(campaigns.size()));
  health["running"] = Json(running);
  return health;
}

std::string Daemon::MetricsText() {
  const std::vector<CampaignStatus> campaigns = manager_->List();
  PrometheusWriter writer;

  writer.Family("dxplored_uptime_seconds", "Daemon uptime.", "gauge");
  writer.Sample("dxplored_uptime_seconds", {}, uptime_.ElapsedSeconds());
  // Build provenance: which SIMD backend the layer kernels were compiled
  // for (info-style gauge, value is the lane width).
  writer.Family("dxplored_simd_lanes",
                "Float lanes of the compiled SIMD backend (labelled by "
                "backend name).",
                "gauge");
  writer.Sample("dxplored_simd_lanes", {{"backend", SimdBackendName()}},
                static_cast<double>(SimdLanes()));
  writer.Family("dxplored_ctl_requests_total",
                "Ctl socket requests received.", "counter");
  writer.Sample("dxplored_ctl_requests_total", {},
                static_cast<double>(requests_total_.load()));
  writer.Family("dxplored_campaigns_submitted_total",
                "Campaigns ever submitted.", "counter");
  writer.Sample("dxplored_campaigns_submitted_total", {},
                static_cast<double>(manager_->submitted_total()));

  writer.Family("dxplored_campaigns", "Campaigns by lifecycle state.", "gauge");
  static const CampaignState kStates[] = {
      CampaignState::kPending, CampaignState::kRunning, CampaignState::kPaused,
      CampaignState::kDone,    CampaignState::kFailed,  CampaignState::kCancelled,
  };
  for (CampaignState state : kStates) {
    int count = 0;
    for (const CampaignStatus& c : campaigns) {
      if (c.state == state) {
        ++count;
      }
    }
    writer.Sample("dxplored_campaigns", {{"state", CampaignStateName(state)}},
                  count);
  }

  int64_t tests_total = 0;
  for (const CampaignStatus& c : campaigns) {
    tests_total += c.progress.tests_found;
  }
  writer.Family("dxplored_tests_total",
                "Difference-inducing inputs found across all campaigns.",
                "counter");
  writer.Sample("dxplored_tests_total", {}, static_cast<double>(tests_total));

  writer.Family("dxplored_campaign_tests_total",
                "Difference-inducing inputs found by one campaign.", "counter");
  writer.Family("dxplored_campaign_seeds_tried_total",
                "Seeds attempted by one campaign.", "counter");
  writer.Family("dxplored_campaign_batches_total",
                "Sync batches completed by one campaign.", "counter");
  writer.Family("dxplored_campaign_forward_passes_total",
                "Model forward passes spent by one campaign.", "counter");
  writer.Family("dxplored_campaign_coverage_ratio",
                "Mean neuron coverage of one campaign (0-1).", "gauge");
  writer.Family("dxplored_campaign_tests_per_second",
                "Difference-inducing inputs per active second.", "gauge");
  writer.Family("dxplored_campaign_active_seconds",
                "Active (not paused) stepping wall time.", "counter");
  for (const CampaignStatus& c : campaigns) {
    const PrometheusWriter::Labels labels = {
        {"campaign", std::to_string(c.id)},
        {"domain", c.domain},
        {"state", CampaignStateName(c.state)},
    };
    writer.Sample("dxplored_campaign_tests_total", labels,
                  c.progress.tests_found);
    writer.Sample("dxplored_campaign_seeds_tried_total", labels,
                  c.progress.seeds_tried);
    writer.Sample("dxplored_campaign_batches_total", labels,
                  static_cast<double>(c.progress.batches));
    writer.Sample("dxplored_campaign_forward_passes_total", labels,
                  static_cast<double>(c.progress.forward_passes));
    writer.Sample("dxplored_campaign_coverage_ratio", labels,
                  static_cast<double>(c.progress.mean_coverage));
    writer.Sample("dxplored_campaign_tests_per_second", labels,
                  c.tests_per_second);
    writer.Sample("dxplored_campaign_active_seconds", labels,
                  c.progress.seconds);
  }

  writer.Family("dxplored_executor_phase_seconds",
                "Batched-executor wall time by phase (ExecutorProfile).",
                "counter");
  for (const CampaignStatus& c : campaigns) {
    const std::pair<const char*, double> phases[] = {
        {"stack", c.profile.stack_seconds},
        {"forward", c.profile.forward_seconds},
        {"backward_layers", c.profile.backward_layers_seconds},
        {"objective_accumulate", c.profile.objective_accumulate_seconds},
        {"constraint", c.profile.constraint_seconds},
        {"coverage", c.profile.coverage_seconds},
    };
    for (const auto& [phase, seconds] : phases) {
      writer.Sample("dxplored_executor_phase_seconds",
                    {{"campaign", std::to_string(c.id)}, {"phase", phase}},
                    seconds);
    }
  }

  // Corpus plane: on-disk shape of each durable campaign's corpus (cached at
  // slice boundaries) and the compaction counters.
  writer.Family("dxplored_corpus_entries",
                "Recorded difference-inducing entries in a campaign's corpus.",
                "gauge");
  writer.Family("dxplored_corpus_bytes",
                "On-disk corpus footprint in bytes.", "gauge");
  writer.Family("dxplored_corpus_checkpoint_records",
                "Corpus checkpoints by kind: snapshot is 1 once checkpoints.bin "
                "holds one; delta counts those kept in memory since.",
                "gauge");
  for (const CampaignStatus& c : campaigns) {
    if (!c.has_corpus_stats) {
      continue;
    }
    const PrometheusWriter::Labels labels = {
        {"campaign", std::to_string(c.id)},
        {"domain", c.domain},
    };
    writer.Sample("dxplored_corpus_entries", labels,
                  static_cast<double>(c.corpus_stats.num_entries));
    writer.Sample("dxplored_corpus_bytes", labels,
                  static_cast<double>(c.corpus_stats.total_bytes));
    writer.Sample("dxplored_corpus_checkpoint_records",
                  {{"campaign", std::to_string(c.id)}, {"kind", "snapshot"}},
                  static_cast<double>(c.corpus_stats.chain_snapshots));
    writer.Sample("dxplored_corpus_checkpoint_records",
                  {{"campaign", std::to_string(c.id)}, {"kind", "delta"}},
                  static_cast<double>(c.corpus_stats.chain_deltas));
  }

  writer.Family("dxplored_compactions_total",
                "Corpus compactions served via the compact ctl command.",
                "counter");
  writer.Sample("dxplored_compactions_total", {},
                static_cast<double>(manager_->compactions_total()));
  CompactResult last;
  if (manager_->LastCompaction(&last)) {
    writer.Family("dxplored_compaction_entries",
                  "Corpus entries in/out of the last compaction.", "gauge");
    writer.Sample("dxplored_compaction_entries", {{"stage", "input"}},
                  static_cast<double>(last.entries_before));
    writer.Sample("dxplored_compaction_entries", {{"stage", "output"}},
                  static_cast<double>(last.entries_after));
    writer.Family("dxplored_compaction_seconds",
                  "Wall time of the last compaction.", "gauge");
    writer.Sample("dxplored_compaction_seconds", {}, last.seconds);
  }
  return writer.text();
}

HttpServer::Response Daemon::HandleHttp(const std::string& path) {
  HttpServer::Response response;
  if (path == "/health") {
    response.content_type = "application/json";
    response.body = HealthJson().Dump() + "\n";
  } else if (path == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = MetricsText();
  } else {
    response.status = 404;
    response.body = "not found; try /health or /metrics\n";
  }
  return response;
}

}  // namespace dx
