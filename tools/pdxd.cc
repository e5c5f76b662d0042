// pdxd — the PDE-as-a-service daemon.
//
// Serves peer data exchange settings over a line-delimited JSON protocol
// (see serve/protocol.h) with snapshot-isolated reads and a single-writer
// batched chase per tenant, plus an optional Prometheus /metrics HTTP
// endpoint.
//
// Usage:
//   pdxd --listen unix:/tmp/pdxd.sock [--metrics tcp:127.0.0.1:9464]
//        [--threads N] [--chase-threads N] [--max-chase-steps N]
//        [--max-solver-nodes N] [--deadline-ms MS] [--setting FILE]...
//
// --listen / --metrics take "unix:PATH" or "tcp:HOST:PORT" (TCP port 0
// lets the kernel pick; the resolved address is printed on stdout as
// "listening <addr>" / "metrics <addr>" so scripts can scrape it).
// --setting preloads a tenant at startup; repeatable.
//
// Numeric flags are parsed whole and range-checked before the server
// starts; anything else is a usage error (exit 2) naming the flag:
//   --threads, --chase-threads  0..256 (0 = hardware concurrency)
//   --max-chase-steps, --max-solver-nodes  1..10^12
//   --deadline-ms  1..86400000 (one day)
//
// The daemon exits on SIGINT/SIGTERM or a `shutdown` request, after a
// graceful drain: in-flight requests finish, admitted writes publish.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/string_util.h"
#include "serve/server.h"

namespace pdx {
namespace serve {
namespace {

std::atomic<bool> g_interrupted{false};

void HandleSignal(int) { g_interrupted.store(true, std::memory_order_relaxed); }

StatusOr<std::string> ReadFileText(const std::string& path) {
  std::ifstream file(path);
  if (!file) return NotFoundError(StrCat("cannot open ", path));
  std::ostringstream text;
  text << file.rdbuf();
  return std::move(text).str();
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --listen unix:PATH|tcp:HOST:PORT\n"
      "          [--metrics unix:PATH|tcp:HOST:PORT] [--threads N]\n"
      "          [--chase-threads N] [--max-chase-steps N]\n"
      "          [--max-solver-nodes N] [--deadline-ms MS]\n"
      "          [--setting FILE]...\n",
      argv0);
  return 2;
}

// Parses `text` as the value of the integer flag `flag` into `*out`, or
// reports the flag and its range on stderr and returns false.
bool ParseIntFlag(const std::string& flag, const char* text, int64_t min,
                  int64_t max, int64_t* out) {
  StatusOr<int64_t> value = ParseInt64InRange(text, min, max);
  if (!value.ok()) {
    std::fprintf(stderr, "pdxd: %s: %s\n", flag.c_str(),
                 value.status().message().c_str());
    return false;
  }
  *out = *value;
  return true;
}

int Main(int argc, char** argv) {
  constexpr int64_t kMaxThreads = 256;
  constexpr int64_t kMaxBudget = 1'000'000'000'000;
  constexpr int64_t kMaxDeadlineMs = 86'400'000;
  ServerOptions options;
  std::vector<std::string> preload;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    int64_t n = 0;
    bool ok = true;
    if (flag == "--listen" && (v = value())) {
      options.address = v;
    } else if (flag == "--metrics" && (v = value())) {
      options.metrics_address = v;
    } else if (flag == "--threads" && (v = value())) {
      ok = ParseIntFlag(flag, v, 0, kMaxThreads, &n);
      options.worker_threads = static_cast<int>(n);
    } else if (flag == "--chase-threads" && (v = value())) {
      ok = ParseIntFlag(flag, v, 0, kMaxThreads, &n);
      options.tenant.chase_threads = static_cast<int>(n);
    } else if (flag == "--max-chase-steps" && (v = value())) {
      ok = ParseIntFlag(flag, v, 1, kMaxBudget,
                        &options.tenant.max_chase_steps);
    } else if (flag == "--max-solver-nodes" && (v = value())) {
      ok = ParseIntFlag(flag, v, 1, kMaxBudget,
                        &options.tenant.max_solver_nodes);
    } else if (flag == "--deadline-ms" && (v = value())) {
      ok = ParseIntFlag(flag, v, 1, kMaxDeadlineMs,
                        &options.protocol.default_deadline_ms);
    } else if (flag == "--setting" && (v = value())) {
      preload.push_back(v);
    } else {
      std::fprintf(stderr, "pdxd: bad flag %s\n", flag.c_str());
      return Usage(argv[0]);
    }
    if (!ok) return Usage(argv[0]);
  }
  if (options.address.empty()) {
    std::fprintf(stderr, "pdxd: --listen is required\n");
    return Usage(argv[0]);
  }

  auto server = Server::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "pdxd: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  for (const std::string& path : preload) {
    auto text = ReadFileText(path);
    if (!text.ok()) {
      std::fprintf(stderr, "pdxd: %s\n", text.status().ToString().c_str());
      return 1;
    }
    auto tenant = (*server)->registry().Load(*text);
    if (!tenant.ok()) {
      std::fprintf(stderr, "pdxd: %s: %s\n", path.c_str(),
                   tenant.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded %s as tenant %s\n", path.c_str(),
                (*tenant)->id().c_str());
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::printf("listening %s\n", (*server)->address().c_str());
  if (!(*server)->metrics_address().empty()) {
    std::printf("metrics %s\n", (*server)->metrics_address().c_str());
  }
  std::fflush(stdout);

  // Park until a shutdown request (protocol verb) or a signal; the drain
  // itself must run on this thread, not a connection handler's.
  while (!(*server)->WaitForShutdownRequest(std::chrono::milliseconds(200))) {
    if (g_interrupted.load(std::memory_order_relaxed)) break;
  }
  std::fprintf(stderr, "pdxd: draining\n");
  (*server)->Shutdown();
  std::fprintf(stderr, "pdxd: bye\n");
  return 0;
}

}  // namespace
}  // namespace serve
}  // namespace pdx

int main(int argc, char** argv) { return pdx::serve::Main(argc, argv); }
