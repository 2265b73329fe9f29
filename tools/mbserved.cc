// Copyright 2026 The Microbrowse Authors
//
// mbserved — the online snippet-scoring service.
//
//   mbserved --model model.txt --stats stats.tsv [--model-type M1..M6]
//            [--port 7077] [--threads N] [--max-queue N]
//            [--cache-capacity N] [--default-deadline-ms N]
//            [--idle-timeout-ms N] [--write-timeout-ms N]
//            [--drain-deadline-ms N] [--drain-retry-after-ms N]
//
// Flags are spelled "--flag value" or "--flag=value"; unknown flags and
// out-of-range values exit 1 with usage. One epoll reactor serves every
// connection and --threads workers score from one bounded FIFO of
// --max-queue requests, oldest first (serve/server.h). --write-timeout-ms
// bounds how long a peer may stop reading our responses before its
// connection is evicted (mb.serve.write_timeout).
//
// Speaks the newline-delimited JSON protocol of serve/protocol.h:
//
//   echo '{"type":"score_pair","a":"l1|l2|l3","b":"l1|l2|l3"}' | nc host 7077
//
// Request types: score_pair, predict_ctr, examine, reload, statsz,
// metricsz, healthz, readyz, ping. `curl http://host:port/metricsz`
// (also /healthz, /readyz) works too: plain HTTP GETs are answered
// directly, with readyz mapping not-ready onto 503 for load balancers.
// SIGHUP (or a {"type":"reload"} request) hot-reloads the model bundle
// from the same paths; a corrupt replacement artifact is rejected and the
// previous generation keeps serving (readyz then reports "degraded").
// SIGINT/SIGTERM start a graceful drain: the listener closes, readyz
// flips to "draining", new scoring requests are refused with
// {"error":"draining","retry_after_ms":N}, and in-flight work gets
// --drain-deadline-ms to finish before the hard stop.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "mbctl_flags.h"
#include "serve/server.h"

using namespace microbrowse;

namespace {

std::atomic<int> g_pending_reloads{0};
std::atomic<bool> g_shutdown{false};

void OnSighup(int) { g_pending_reloads.fetch_add(1, std::memory_order_relaxed); }
void OnShutdownSignal(int) { g_shutdown.store(true, std::memory_order_relaxed); }

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: mbserved --model model.txt --stats stats.tsv\n"
               "                [--model-type M1..M6] [--port N] [--threads N]\n"
               "                [--max-queue N] [--cache-capacity N]\n"
               "                [--default-deadline-ms N] [--idle-timeout-ms N]\n"
               "                [--write-timeout-ms N] [--drain-deadline-ms N]\n"
               "                [--drain-retry-after-ms N]\n"
               "fault injection: MB_FAILPOINTS=name=spec,...\n");
  return 1;
}

/// Overwrites `*out` with the integer flag `key` when it is given, after
/// checking it against [min, max].
template <typename T>
Status ReadInt(const Flags& flags, const char* key, int64_t min, int64_t max, T* out) {
  MB_ASSIGN_OR_RETURN(const int64_t value,
                      flags.GetInt(key, static_cast<int64_t>(*out), min, max));
  *out = static_cast<T>(value);
  return Status::OK();
}

/// mbserved's configuration, read from its flags.
struct Config {
  serve::BundlePaths paths;
  serve::ServerOptions server;
  serve::ServiceOptions service;
};

Result<Config> ParseConfig(int argc, char** argv) {
  MB_ASSIGN_OR_RETURN(
      const Flags flags,
      Flags::Parse(argc, argv, 1,
                   {"--model", "--stats", "--model-type", "--port", "--threads",
                    "--max-queue", "--cache-capacity",
                    "--default-deadline-ms", "--idle-timeout-ms", "--write-timeout-ms",
                    "--drain-deadline-ms", "--drain-retry-after-ms"},
                   {}));
  Config config;
  config.paths.model_path = flags.Get("--model");
  config.paths.stats_path = flags.Get("--stats");
  if (config.paths.model_path.empty() || config.paths.stats_path.empty()) {
    return Status::InvalidArgument("--model and --stats are required");
  }
  config.paths.model_type = flags.Get("--model-type", config.paths.model_type);
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  serve::ServerOptions& server = config.server;
  MB_RETURN_IF_ERROR(ReadInt(flags, "--port", 0, 65535, &server.port));
  MB_RETURN_IF_ERROR(ReadInt(flags, "--threads", 1, 256, &server.num_threads));
  MB_RETURN_IF_ERROR(ReadInt(flags, "--max-queue", 1, kMax, &server.max_queue));
  MB_RETURN_IF_ERROR(
      ReadInt(flags, "--cache-capacity", 0, kMax, &config.service.cache_capacity));
  MB_RETURN_IF_ERROR(
      ReadInt(flags, "--default-deadline-ms", 0, kMax, &server.default_deadline_ms));
  MB_RETURN_IF_ERROR(ReadInt(flags, "--idle-timeout-ms", 0, kMax, &server.idle_timeout_ms));
  MB_RETURN_IF_ERROR(
      ReadInt(flags, "--write-timeout-ms", 0, kMax, &server.write_timeout_ms));
  MB_RETURN_IF_ERROR(
      ReadInt(flags, "--drain-deadline-ms", 0, kMax, &server.drain_deadline_ms));
  MB_RETURN_IF_ERROR(
      ReadInt(flags, "--drain-retry-after-ms", 0, kMax, &server.drain_retry_after_ms));
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = ParseConfig(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return Usage();
  }
  Config& config = *parsed;

  if (const char* spec = std::getenv("MB_FAILPOINTS"); spec != nullptr && *spec != '\0') {
    const Status status = failpoint::ActivateFromList(spec);
    if (!status.ok()) {
      MB_LOG(kWarning) << "ignoring malformed MB_FAILPOINTS: " << status.ToString();
    }
  }

  serve::BundleRegistry registry;
  if (const Status status = registry.LoadInitial(config.paths); !status.ok()) {
    return Fail(status);
  }
  MB_LOG(kInfo) << "loaded " << config.paths.model_type << " bundle from "
                << config.paths.model_path << " + " << config.paths.stats_path
                << " (generation 1)";

  // Serve metrics live in the process-global registry, alongside the
  // pipeline-stage counters (preregistered so /metricsz exports them at
  // zero even in a pure serving process).
  config.service.registry = &MetricRegistry::Global();
  PreregisterPipelineMetrics(&MetricRegistry::Global());
  serve::ScoringService service(&registry, config.service);
  serve::Server server(&service, config.server);
  auto port = server.Start();
  if (!port.ok()) return Fail(port.status());
  std::printf("mbserved listening on port %u (%d threads, queue %zu)\n",
              static_cast<unsigned>(*port), config.server.num_threads,
              config.server.max_queue);
  std::fflush(stdout);

  std::signal(SIGHUP, OnSighup);
  std::signal(SIGINT, OnShutdownSignal);
  std::signal(SIGTERM, OnShutdownSignal);

  // Signal loop: SIGHUP reloads asynchronously to the serving traffic (the
  // registry swap itself is atomic), SIGINT/SIGTERM drain and exit.
  while (!g_shutdown.load(std::memory_order_relaxed)) {
    if (g_pending_reloads.exchange(0, std::memory_order_relaxed) > 0) {
      // Route through the service so the result caches are flushed with
      // the same code path an admin "reload" request takes.
      const std::string response = service.HandleLine("{\"type\":\"reload\"}");
      MB_LOG(kInfo) << "SIGHUP reload: " << response;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // Graceful drain: finish what is in flight (bounded by
  // --drain-deadline-ms), refuse the rest with a retry hint, then stop. A
  // non-OK drain means work was abandoned at the hard stop — exit 0
  // regardless (the drain itself worked), but say so.
  const Status drained = server.Drain();
  if (!drained.ok()) {
    MB_LOG(kWarning) << "drain: " << drained.ToString();
  }
  MB_LOG(kInfo) << "shut down";
  return 0;
}
