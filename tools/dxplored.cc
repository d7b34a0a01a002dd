// dxplored: the DeepXplore campaign service daemon.
//
// Hosts a CampaignManager (many concurrent campaigns over one shared compute
// pool and trained-model cache) behind a newline-delimited-JSON ctl socket
// and an HTTP introspection plane (/health, /metrics). See
// docs/ARCHITECTURE.md "Campaign service".
//
//   dxplored [--host H] [--port P] [--http-port P] [--campaign-workers N]
//            [--compute-threads N] [--slice N]
//   dxplored --drain [--host H] [--port P]
//
// The daemon runs until a `drain` ctl request (or SIGINT/SIGTERM): it stops
// accepting submissions, checkpoints every running campaign at its next sync
// batch boundary, and exits 0 — durable campaigns resume bit-identically via
// `dxplorectl submit corpus_dir=... resume=true` after a restart.
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "src/service/client.h"
#include "src/service/daemon.h"
#include "src/util/parse.h"

namespace {

constexpr const char* kUsage = R"(usage:
  dxplored [options]           run the campaign service
  dxplored --drain [options]   ask a running daemon to shut down gracefully

options:
  --host H              bind/connect address            (default: 127.0.0.1)
  --port P              ctl socket port; 0 = ephemeral  (default: 7077)
  --http-port P         /health + /metrics port; 0 = ephemeral (default: 7078)
  --campaign-workers N  concurrent campaign slices      (default: 2)
  --compute-threads N   shared executor pool threads; 0 = cores-1
  --slice N             sync batches per scheduling slice (default: 1)
)";

dx::Daemon* g_daemon = nullptr;

void HandleSignal(int) {
  if (g_daemon != nullptr) {
    g_daemon->RequestDrain();  // async-signal-safe: a relaxed atomic store
  }
}

}  // namespace

int main(int argc, char** argv) {
  dx::DaemonOptions options;
  bool drain = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::cerr << arg << " needs a value\n" << kUsage;
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        std::cout << kUsage;
        return 0;
      } else if (arg == "--drain") {
        drain = true;
      } else if (arg == "--host") {
        options.host = next();
      } else if (arg == "--port") {
        options.port = dx::ParseNumber<int>(arg, next());
      } else if (arg == "--http-port") {
        options.http_port = dx::ParseNumber<int>(arg, next());
      } else if (arg == "--campaign-workers") {
        options.manager.campaign_workers = dx::ParseNumber<int>(arg, next());
      } else if (arg == "--compute-threads") {
        options.manager.compute_threads = dx::ParseNumber<int>(arg, next());
      } else if (arg == "--slice") {
        options.manager.slice_batches = dx::ParseNumber<int>(arg, next());
      } else {
        std::cerr << "unknown option " << arg << "\n" << kUsage;
        return 2;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "dxplored: " << e.what() << "\n";
    return 2;
  }

  if (drain) {
    try {
      dx::Json request = dx::Json::Object();
      request["cmd"] = dx::Json("drain");
      dx::Json response = dx::CtlRequest(options.host, options.port, request);
      std::cout << response.Dump() << "\n";
      return response.GetBool("ok", false) ? 0 : 1;
    } catch (const std::exception& e) {
      std::cerr << "dxplored --drain: " << e.what() << "\n";
      return 3;
    }
  }

  try {
    dx::Daemon daemon(options);
    daemon.Start();
    g_daemon = &daemon;
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    // One parseable line for scripts (ephemeral ports land here).
    std::cout << "dxplored listening ctl=" << daemon.port()
              << " http=" << daemon.http_port() << std::endl;
    daemon.WaitForShutdown();
    std::cout << "dxplored drained; all campaigns checkpointed" << std::endl;
    g_daemon = nullptr;
    daemon.Stop();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "dxplored: " << e.what() << "\n";
    return 1;
  }
}
