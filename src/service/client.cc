#include "src/service/client.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/service/net.h"
#include "src/util/parse.h"
#include "src/util/timer.h"

namespace dx {
namespace {

constexpr const char* kUsage = R"(usage: dxplorectl [options] COMMAND [args]

options:
  --host H            daemon host                     (default: 127.0.0.1)
  --port P            ctl socket port                 (default: 7077)
  --http-port P       introspection (HTTP) port       (default: 7078)

commands:
  ping                          liveness check
  submit KEY=VALUE...           submit a campaign; keys mirror the CLI flags:
                                domain, constraint, metric, objective,
                                scheduler, seeds, max_tests, max_seed_passes,
                                coverage_goal, max_iterations_per_seed,
                                rng_seed, batch_size, sync_interval,
                                corpus_dir, resume (true/false)
  status ID                     one campaign's status
  list                          all campaigns
  pause ID                      pause at the next batch boundary
  resume ID                     requeue a paused campaign
  cancel ID                     cancel at the next batch boundary
  results ID                    final stats + test digests of a DONE campaign
  compact ID KEY=VALUE...       run corpus maintenance over a durable
                                campaign's corpus (pauses a live campaign at
                                its next batch boundary, resumes it after).
                                Keys: out_dir (required), distill, dedup,
                                minimize (true/false; default distill+dedup),
                                deduper (auto|ssim|l2|feature-box), threshold
  wait ID [--timeout-seconds S] poll until the campaign is terminal
                                (exit 0 iff DONE; default timeout 300)
  drain                         graceful daemon shutdown (checkpoints all)
  get PATH                      HTTP GET on the introspection port
                                (e.g. get /health, get /metrics)
)";

// Integer-valued submit keys (everything else is a string except the
// explicitly typed ones below).
bool IsIntKey(const std::string& key) {
  static const char* kIntKeys[] = {
      "seeds",         "max_tests",  "max_seed_passes", "max_iterations_per_seed",
      "rng_seed",      "batch_size", "sync_interval",   "id",
  };
  for (const char* k : kIntKeys) {
    if (key == k) {
      return true;
    }
  }
  return false;
}

Json ParseSubmitArgs(const std::vector<std::string>& args, size_t start) {
  Json request = Json::Object();
  request["cmd"] = Json("submit");
  for (size_t i = start; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("submit arguments are KEY=VALUE; got \"" + arg + "\"");
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "resume") {
      request[key] = Json(value == "true" || value == "1");
    } else if (key == "coverage_goal") {
      request[key] = Json(ParseNumber<double>(key, value));
    } else if (IsIntKey(key)) {
      request[key] = Json(ParseNumber<int64_t>(key, value));
    } else {
      request[key] = Json(value);
    }
  }
  return request;
}

}  // namespace

Json CtlRequest(const std::string& host, int port, const Json& request) {
  Socket conn = TcpConnect(host, port);
  SetRecvTimeout(conn, 30000);
  WriteAll(conn, request.Dump() + "\n");
  LineReader reader(conn);
  std::string line;
  if (!reader.ReadLine(&line)) {
    throw std::runtime_error("ctl: connection closed before response");
  }
  return Json::Parse(line);
}

std::string HttpGet(const std::string& host, int port, const std::string& path) {
  Socket conn = TcpConnect(host, port);
  SetRecvTimeout(conn, 30000);
  WriteAll(conn, "GET " + path + " HTTP/1.0\r\nHost: " + host + "\r\n\r\n");
  LineReader reader(conn);
  std::string status_line;
  if (!reader.ReadLine(&status_line)) {
    throw std::runtime_error("http: no response");
  }
  // "HTTP/1.0 200 OK"
  std::istringstream parts(status_line);
  std::string version, status;
  parts >> version >> status;
  if (status != "200") {
    throw std::runtime_error("http: " + path + " -> " + status_line);
  }
  size_t content_length = std::string::npos;
  std::string header;
  while (reader.ReadLine(&header) && !header.empty()) {
    const std::string kPrefix = "Content-Length:";
    if (header.compare(0, kPrefix.size(), kPrefix) == 0) {
      content_length =
          static_cast<size_t>(std::strtoull(header.c_str() + kPrefix.size(), nullptr, 10));
    }
  }
  std::string body;
  if (content_length != std::string::npos) {
    reader.ReadExact(content_length, &body);
  } else {
    // No length header: read until close.
    std::string line;
    while (reader.ReadLine(&line)) {
      body += line;
      body += "\n";
    }
  }
  return body;
}

int CtlMain(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 7077;
  int http_port = 7078;
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    args.emplace_back(argv[i]);
  }
  // Every request is built, and every number in it parsed, before the first
  // connection: a malformed value exits 2 without reaching the daemon.
  try {
    size_t pos = 0;
    while (pos < args.size() && args[pos].rfind("--", 0) == 0) {
      const std::string& flag = args[pos];
      if (flag == "--help" || flag == "-h") {
        std::cout << kUsage;
        return 0;
      }
      if (pos + 1 >= args.size()) {
        std::cerr << flag << " needs a value\n" << kUsage;
        return 2;
      }
      const std::string& value = args[pos + 1];
      if (flag == "--host") {
        host = value;
      } else if (flag == "--port") {
        port = ParseNumber<int>(flag, value);
      } else if (flag == "--http-port") {
        http_port = ParseNumber<int>(flag, value);
      } else {
        std::cerr << "unknown option " << flag << "\n" << kUsage;
        return 2;
      }
      pos += 2;
    }
    if (pos >= args.size()) {
      std::cerr << kUsage;
      return 2;
    }
    const std::string command = args[pos];

    if (command == "get") {
      if (pos + 1 >= args.size()) {
        std::cerr << "get needs a PATH\n";
        return 2;
      }
      std::cout << HttpGet(host, http_port, args[pos + 1]);
      return 0;
    }

    Json request = Json::Object();
    if (command == "ping" || command == "list" || command == "drain") {
      request["cmd"] = Json(command);
    } else if (command == "submit") {
      request = ParseSubmitArgs(args, pos + 1);
    } else if (command == "compact") {
      if (pos + 1 >= args.size()) {
        std::cerr << "compact needs a campaign ID\n";
        return 2;
      }
      request["cmd"] = Json("compact");
      request["id"] = Json(ParseNumber<int64_t>("campaign ID", args[pos + 1]));
      for (size_t i = pos + 2; i < args.size(); ++i) {
        const std::string& arg = args[i];
        const size_t eq = arg.find('=');
        if (eq == std::string::npos) {
          throw std::invalid_argument("compact arguments are KEY=VALUE; got \"" +
                                      arg + "\"");
        }
        const std::string key = arg.substr(0, eq);
        const std::string value = arg.substr(eq + 1);
        if (key == "distill" || key == "dedup" || key == "minimize") {
          request[key] = Json(value == "true" || value == "1");
        } else if (key == "threshold") {
          request[key] = Json(ParseNumber<double>(key, value));
        } else {
          request[key] = Json(value);
        }
      }
    } else if (command == "status" || command == "pause" || command == "resume" ||
               command == "cancel" || command == "results") {
      if (pos + 1 >= args.size()) {
        std::cerr << command << " needs a campaign ID\n";
        return 2;
      }
      request["cmd"] = Json(command);
      request["id"] = Json(ParseNumber<int64_t>("campaign ID", args[pos + 1]));
    } else if (command == "wait") {
      if (pos + 1 >= args.size()) {
        std::cerr << "wait needs a campaign ID\n";
        return 2;
      }
      const int64_t id = ParseNumber<int64_t>("campaign ID", args[pos + 1]);
      double timeout_seconds = 300.0;
      if (pos + 3 < args.size() && args[pos + 2] == "--timeout-seconds") {
        timeout_seconds = ParseNumber<double>(args[pos + 2], args[pos + 3]);
      }
      Json status_request = Json::Object();
      status_request["cmd"] = Json("status");
      status_request["id"] = Json(id);
      Timer timer;
      while (true) {
        Json response = CtlRequest(host, port, status_request);
        if (!response.GetBool("ok", false)) {
          std::cout << response.Dump() << "\n";
          return 1;
        }
        const std::string state = response.At("campaign").GetString("state", "");
        if (state == "DONE" || state == "FAILED" || state == "CANCELLED") {
          std::cout << response.Dump() << "\n";
          return state == "DONE" ? 0 : 1;
        }
        if (timer.ElapsedSeconds() > timeout_seconds) {
          std::cerr << "wait: campaign " << id << " still " << state << " after "
                    << timeout_seconds << "s\n";
          return 1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
    } else {
      std::cerr << "unknown command \"" << command << "\"\n" << kUsage;
      return 2;
    }

    Json response = CtlRequest(host, port, request);
    std::cout << response.Dump() << "\n";
    return response.GetBool("ok", false) ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    std::cerr << "dxplorectl: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "dxplorectl: " << e.what() << "\n";
    return 3;
  }
}

}  // namespace dx
