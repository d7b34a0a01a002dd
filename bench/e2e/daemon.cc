// Drives an in-process dxplored Daemon through its public ctl and HTTP
// sockets, the way a remote operator would.
#include <exception>
#include <limits>
#include <thread>

#include "bench/e2e/e2e.h"
#include "src/service/client.h"
#include "src/service/daemon.h"
#include "src/util/json.h"

namespace dxbench {
namespace {

using dx::Json;

constexpr const char* kHost = "127.0.0.1";
constexpr auto kStatusPeriod = std::chrono::milliseconds(10);  // 100 req/s.
constexpr auto kScrapePeriod = std::chrono::seconds(1);
constexpr auto kSpinAhead = std::chrono::microseconds(500);
constexpr double kTimeoutS = 150.0;

// One ctl round trip inside span `span`, counted as one operation: a
// transport failure or an {"ok":false} reply fails it.
bool Ctl(Context& ctx, int port, const Json& request, const char* span, Json* reply) {
  ScopedSpan s(ctx.tracer, span);
  try {
    *reply = dx::CtlRequest(kHost, port, request);
  } catch (const std::exception& e) {
    ctx.report.Op(false, std::string(span) + ": " + e.what());
    return false;
  }
  const bool ok = reply->GetBool("ok", false);
  ctx.report.Op(ok, std::string(span) + ": " + reply->GetString("error", "not ok"));
  return ok;
}

void Scrape(Context& ctx, int http_port) {
  ScopedSpan s(ctx.tracer, "service.http.metrics");
  try {
    const std::string body = dx::HttpGet(kHost, http_port, "/metrics");
    ctx.report.Op(body.find("dxplored_tests_total") != std::string::npos,
                  "/metrics lacks dxplored_tests_total");
  } catch (const std::exception& e) {
    ctx.report.Op(false, std::string("/metrics: ") + e.what());
  }
}

Json SubmitRequest(const DaemonCampaign& c, uint64_t seed) {
  Json r = Json::Object();
  r["cmd"] = Json("submit");
  r["domain"] = Json(c.domain);
  r["metric"] = Json(c.metric);
  r["scheduler"] = Json(c.scheduler);
  r["seeds"] = Json(c.seeds);
  r["max_iterations_per_seed"] = Json(100);
  r["rng_seed"] = Json(kPoolSeedBase + seed);
  r["batch_size"] = Json(8);
  r["sync_interval"] = Json(24);
  return r;
}

Json IdRequest(const char* cmd, uint64_t id) {
  Json r = Json::Object();
  r["cmd"] = Json(cmd);
  r["id"] = Json(id);
  return r;
}

}  // namespace

DaemonDrive DriveDaemon(Context& ctx, const std::vector<DaemonCampaign>& campaigns,
                        double min_setup_s) {
  DaemonDrive d;
  dx::DaemonOptions options;
  options.host = kHost;
  options.port = 0;
  options.http_port = 0;
  options.manager.campaign_workers = 2;
  options.manager.compute_threads = 1;
  options.manager.slice_batches = 1;

  const size_t n = campaigns.size();
  std::unique_ptr<dx::Daemon> daemon;
  std::vector<uint64_t> ids(n, 0);
  std::vector<Clock::time_point> submitted(n);
  // Set-up 0 is a stand-in whose campaigns run for kWarmupSeconds, untimed.
  // Timed set-ups follow until they add up to `min_setup_s` (at least one);
  // all but the last are stopped right away, and the measured mix runs on
  // the last.
  double setup_total_s = 0.0;
  for (int s = 0;; ++s) {
    daemon.reset();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(ctx.tracer, "setup.daemon_start");
      daemon = std::make_unique<dx::Daemon>(options);
      daemon->Start();
    }
    for (size_t j = 0; j < n; ++j) {
      Json reply;
      submitted[j] = Clock::now();
      if (!Ctl(ctx, daemon->port(), SubmitRequest(campaigns[j], ctx.options.seed),
               "service.ctl.submit", &reply)) {
        return d;
      }
      ids[j] = static_cast<uint64_t>(reply.At("id").AsInt());
    }
    if (s > 0) {
      d.setup_s.push_back(SecondsSince(t0));
      setup_total_s += d.setup_s.back();
      if (setup_total_s >= min_setup_s || d.setup_s.size() >= kMaxSetups) {
        break;
      }
    } else {
      ScopedSpan span(ctx.tracer, "setup.warmup");
      std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
    }
    // Cancelled campaigns skip their first batch unless a worker already
    // started it, so Stop returns sooner.
    for (const uint64_t id : ids) {
      daemon->manager().Cancel(id);
    }
    daemon->Stop();
  }

  // Open loop: request i is due at start + i * period, whatever happened to
  // request i - 1; latency counts from the due time.
  d.first_batch_s.assign(n, -1.0);
  d.done_s.assign(n, -1.0);
  std::vector<int64_t> seen_batches(n, 0);
  std::vector<double> seen_seconds(n, 0.0);
  size_t remaining = n;
  const Clock::time_point start = Clock::now();
  Clock::time_point next_scrape = start;
  for (int64_t i = 0; remaining > 0; ++i) {
    const Clock::time_point due = start + i * kStatusPeriod;
    // Sleep to just short of the due time, then spin: a timer wake-up on a
    // VM is late by 0.1 ms or more, as long as the reply itself, and that
    // lateness belongs to the client, not to the daemon.
    std::this_thread::sleep_until(due - kSpinAhead);
    while (Clock::now() < due) {
    }
    d.late_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    const size_t j = static_cast<size_t>(i) % n;
    Json reply;
    if (!Ctl(ctx, daemon->port(), IdRequest("status", ids[j]), "service.ctl.status", &reply)) {
      d.status_ms.push_back(std::numeric_limits<double>::infinity());
    } else {
      const Clock::time_point now = Clock::now();
      d.status_ms.push_back(std::chrono::duration<double, std::milli>(now - due).count());
      const Json& c = reply.At("campaign");
      const std::string state = c.GetString("state", "");
      const double since_submit = std::chrono::duration<double>(now - submitted[j]).count();
      const int64_t batches = c.GetInt("batches", 0);
      if (d.first_batch_s[j] < 0 && batches >= 1) {
        d.first_batch_s[j] = since_submit;
      }
      // The campaign's active seconds grow only inside its sync batches, so
      // their growth per batch is the batch's step time, however the status
      // polls fell; batches stepped between two polls share it evenly.
      if (batches > seen_batches[j]) {
        const double active_s = c.GetNumber("seconds", 0.0);
        const double per_batch_ms = (active_s - seen_seconds[j]) * 1e3 /
                                    static_cast<double>(batches - seen_batches[j]);
        d.batch_ms.insert(d.batch_ms.end(), static_cast<size_t>(batches - seen_batches[j]),
                          per_batch_ms);
        seen_batches[j] = batches;
        seen_seconds[j] = active_s;
      }
      if (d.done_s[j] < 0 && state == "DONE") {
        d.done_s[j] = since_submit;
        d.mix_s = std::max(d.mix_s, std::chrono::duration<double>(now - submitted[0]).count());
        --remaining;
      } else if (state == "FAILED" || state == "CANCELLED") {
        ctx.report.Fail("campaign " + std::to_string(ids[j]) + " ended " + state + ": " +
                        c.GetString("error", ""));
        return d;
      }
    }
    if (Clock::now() >= next_scrape) {
      Scrape(ctx, daemon->http_port());
      next_scrape += kScrapePeriod;
    }
    if (SecondsSince(start) > kTimeoutS) {
      ctx.report.Fail("daemon campaigns not DONE after " + std::to_string(kTimeoutS) + " s");
      return d;
    }
  }

  Json list = Json::Object();
  list["cmd"] = Json("list");
  for (int k = 0; k < 10; ++k) {
    Json reply;
    Ctl(ctx, daemon->port(), list, "service.ctl.list", &reply);
  }
  double coverage_sum = 0.0;
  for (size_t j = 0; j < n; ++j) {
    Json reply;
    if (!Ctl(ctx, daemon->port(), IdRequest("results", ids[j]), "service.ctl.results",
             &reply)) {
      continue;
    }
    const std::vector<Json>& tests = reply.At("tests").AsArray();
    d.tests += static_cast<int64_t>(tests.size());
    d.seeds_tried += reply.GetInt("seeds_tried", 0);
    d.seeds_skipped += reply.GetInt("seeds_skipped", 0);
    d.iterations += reply.GetInt("total_iterations", 0);
    coverage_sum += reply.GetNumber("mean_coverage", 0.0);
    d.digest.tests += static_cast<int64_t>(tests.size());
    d.digest.forward_passes += reply.GetInt("forward_passes", 0);
    for (const Json& t : tests) {
      const std::string digest = t.GetString("input_digest", "");
      d.digest.AddBytes(digest.data(), digest.size());
    }
    if (ctx.traced()) {
      d.phases += daemon->manager().Status(ids[j]).profile;
    }
  }
  d.mean_coverage = n > 0 ? coverage_sum / static_cast<double>(n) : 0.0;
  Scrape(ctx, daemon->http_port());
  daemon->Stop();
  return d;
}

}  // namespace dxbench
