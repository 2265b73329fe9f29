// Copyright 2026 The Microbrowse Authors
//
// Chaos soak harness for the serving stack: a real Server on an ephemeral
// port, scoring latency injected through the serve.score delay failpoint,
// and a fleet of concurrent clients driving it through saturation, tight
// deadlines, idle eviction, connection kills, a mid-run graceful drain
// and a server restart. Two phases:
//
//   accounting — raw synchronous clients (no retries, nothing hidden).
//     Every request must come back exactly once, and the server-side
//     counters must account for every request read:
//       sent == served + deadline_exceeded + drained
//     with idle_evicted matching the deliberate idle probes exactly, and
//     round-trip p99 bounded by the roomy deadline.
//
//   chaos — resilient clients (serve/client.h) with full-jitter retries,
//     random self-inflicted disconnects, a graceful drain + restart in
//     the middle of the run. Invariant: zero crashes, zero hangs (a
//     watchdog aborts the run), and every Call ends ok or in a clean,
//     classified refusal — never an unclassified error.
//
// Environment: MB_CHAOS_SECONDS total soak budget (default 6, split
// across the phases), MB_CHAOS_CLIENTS fleet size (default 32),
// MB_CHAOS_SEED, MB_BENCH_OUT report path (default BENCH_chaos.json). Exits non-zero if
// any invariant fails — the CI chaos job runs this under ASan.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/socket.h"
#include "common/string_util.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "eval/experiments.h"
#include "io/atomic_file.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "microbrowse/stats_db.h"
#include "serve/bundle.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"

using namespace microbrowse;

namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

struct Tally {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t deadline_exceeded = 0;
  int64_t draining = 0;
  int64_t other_error = 0;  ///< Unclassified — any of these fails the run.
  int64_t hangs = 0;        ///< Response never arrived within the timeout.

  void Add(const Tally& other) {
    sent += other.sent;
    ok += other.ok;
    deadline_exceeded += other.deadline_exceeded;
    draining += other.draining;
    other_error += other.other_error;
    hangs += other.hangs;
  }
};

/// One raw synchronous connection: send a line, read exactly one response.
/// The receive timeout turns a lost response into a counted hang instead of
/// a stuck harness.
class RawClient {
 public:
  static std::unique_ptr<RawClient> ConnectTo(uint16_t port) {
    auto socket = TcpConnect("127.0.0.1", port);
    if (!socket.ok()) return nullptr;
    auto client = std::make_unique<RawClient>();
    client->socket_ = std::make_unique<Socket>(std::move(*socket));
    (void)SetRecvTimeoutMs(*client->socket_, 10'000);
    client->reader_ = std::make_unique<LineReader>(*client->socket_);
    return client;
  }

  /// Round trip; classifies the response into `tally` and records latency.
  void RoundTrip(const std::string& line, Tally* tally, Histogram* latency) {
    tally->sent++;
    const auto start = steady_clock::now();
    if (!SendAll(*socket_, line + "\n").ok()) {
      tally->hangs++;  // Phase A has no kills: a dead connection is a bug.
      return;
    }
    std::string response_line;
    auto got = reader_->ReadLine(&response_line);
    if (!got.ok() || !*got) {
      tally->hangs++;
      return;
    }
    latency->Record(std::chrono::duration_cast<std::chrono::duration<double>>(
                        steady_clock::now() - start)
                        .count());
    auto response = serve::ParseRequest(response_line);
    if (!response.ok()) {
      tally->other_error++;
      return;
    }
    if (response->Get("ok") == "true") {
      tally->ok++;
    } else if (response->Get("error") == "deadline_exceeded") {
      tally->deadline_exceeded++;
    } else if (response->Get("error") == "draining") {
      tally->draining++;
    } else {
      tally->other_error++;
    }
  }

 private:
  std::unique_ptr<Socket> socket_;
  std::unique_ptr<LineReader> reader_;
};

std::string ScoreLine(const std::string& salt, int64_t deadline_ms) {
  serve::JsonWriter request;
  request.String("type", "score_pair")
      .String("a", "cheap flights today|book " + salt)
      .String("b", "late deals|save " + salt);
  if (deadline_ms > 0) request.Int("deadline_ms", deadline_ms);
  return request.Finish();
}

int Fail(const char* what) {
  std::fprintf(stderr, "chaos_bench FAILED: %s\n", what);
  return 1;
}

}  // namespace

int main() {
  const int total_seconds = static_cast<int>(EnvInt("MB_CHAOS_SECONDS", 6));
  const int fleet = static_cast<int>(EnvInt("MB_CHAOS_CLIENTS", 32));
  const uint64_t seed = static_cast<uint64_t>(EnvInt("MB_CHAOS_SEED", 2026));
  const int phase_ms = total_seconds * 1000 / 2;
  constexpr int kIdleProbes = 4;
  // Tight is chosen below the typical wait behind earlier lines of the same
  // reactor pass (~8 clients per reactor at ~10 ms scoring each), roomy
  // far above it.
  constexpr int64_t kTightDeadlineMs = 5;
  constexpr int64_t kRoomyDeadlineMs = 5000;

  // Stage a bundle the way mbserved consumes it.
  AdCorpusOptions corpus_options;
  corpus_options.num_adgroups = 60;
  corpus_options.seed = seed;
  auto generated = GenerateAdCorpus(corpus_options);
  if (!generated.ok()) return Fail(generated.status().ToString().c_str());
  const PairCorpus pairs = ExtractSignificantPairs(generated->corpus, {});
  const FeatureStatsDb db = BuildFeatureStats(pairs, {});
  const ClassifierConfig config = ClassifierConfig::M6();
  const CoupledDataset dataset = BuildClassifierDataset(pairs, db, config, seed);
  auto model = TrainSnippetClassifier(dataset, config);
  if (!model.ok()) return Fail(model.status().ToString().c_str());
  const std::string dir = "chaos_bench_artifacts";
  if (!CreateDirectories(dir).ok()) return Fail("mkdir artifacts");
  serve::BundlePaths paths;
  paths.model_path = dir + "/model.txt";
  paths.stats_path = dir + "/stats.tsv";
  if (!SaveClassifier(*model, dataset.t_registry, dataset.p_registry, paths.model_path)
           .ok() ||
      !SaveFeatureStats(db, paths.stats_path).ok()) {
    return Fail("staging bundle");
  }
  serve::BundleRegistry registry;
  if (!registry.LoadInitial(paths).ok()) return Fail("bundle load");

  // Inject a little scoring latency on every cache miss so requests
  // actually wait behind each other; salted snippets below keep every
  // request a miss.
  failpoint::Spec delay;
  delay.mode = failpoint::Spec::Mode::kDelay;
  delay.delay_ms = 10;
  failpoint::Activate("serve.score", delay);

  // Watchdog: the whole soak is time-bounded by construction; if it is
  // still running at 5x the budget plus a minute, something hangs — which
  // is itself the most important finding. Abort loudly.
  std::atomic<bool> done{false};
  std::thread watchdog([&done, total_seconds] {
    const auto limit = steady_clock::now() +
                       std::chrono::seconds(60 + 5 * std::max(1, total_seconds));
    while (!done.load(std::memory_order_acquire)) {
      if (steady_clock::now() > limit) {
        std::fprintf(stderr, "chaos_bench FAILED: watchdog — harness hung\n");
        std::fflush(stderr);
        std::_Exit(2);
      }
      std::this_thread::sleep_for(milliseconds(100));
    }
  });

  // ---------------------------------------------------------------- Phase A
  std::printf("chaos_bench phase A (accounting): %d clients + %d idle probes, %d ms\n",
              fleet, kIdleProbes, phase_ms);
  serve::ServerOptions options_a;
  options_a.port = 0;
  options_a.num_threads = 4;
  options_a.idle_timeout_ms = 400;
  serve::ServiceOptions service_options;
  service_options.cache_capacity = 0;  // Every request does real work.
  serve::ScoringService service_a(&registry, service_options);
  serve::Server server_a(&service_a, options_a);
  auto port_a = server_a.Start();
  if (!port_a.ok()) return Fail(port_a.status().ToString().c_str());

  // Idle probes: connect, say nothing, expect eviction. They send zero
  // requests, so they cannot perturb the accounting.
  std::vector<std::unique_ptr<RawClient>> idle_probes;
  for (int i = 0; i < kIdleProbes; ++i) {
    auto probe = RawClient::ConnectTo(*port_a);
    if (probe == nullptr) return Fail("idle probe connect");
    idle_probes.push_back(std::move(probe));
  }

  std::vector<Tally> tallies(static_cast<size_t>(fleet));
  std::vector<Histogram> latencies(static_cast<size_t>(fleet));
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < fleet; ++w) {
      workers.emplace_back([&, w] {
        Rng rng(seed ^ (0x9e3779b9u + static_cast<uint64_t>(w)));
        auto client = RawClient::ConnectTo(*port_a);
        if (client == nullptr) {
          tallies[static_cast<size_t>(w)].hangs++;
          return;
        }
        const auto stop_at = steady_clock::now() + milliseconds(phase_ms);
        uint64_t nonce = 0;
        while (steady_clock::now() < stop_at) {
          const std::string salt =
              "w" + std::to_string(w) + "n" + std::to_string(nonce++);
          // Mix: mostly scoring with alternating tight/roomy deadlines,
          // plus the occasional health probe riding the same connection.
          std::string line;
          const double roll = rng.NextDouble();
          if (roll < 0.05) {
            line = R"({"type":"healthz"})";
          } else if (roll < 0.5) {
            line = ScoreLine(salt, kTightDeadlineMs);
          } else {
            line = ScoreLine(salt, kRoomyDeadlineMs);
          }
          client->RoundTrip(line, &tallies[static_cast<size_t>(w)],
                            &latencies[static_cast<size_t>(w)]);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }

  // Let the reaper finish with the idle probes before reading its counter.
  for (int i = 0; i < 200 && server_a.active_connections() > 0; ++i) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  Tally phase_a;
  Histogram::Accumulator latency_acc;
  for (const Tally& tally : tallies) phase_a.Add(tally);
  for (const Histogram& histogram : latencies) histogram.AccumulateTo(&latency_acc);
  server_a.Stop();

  const int64_t served = [&] {
    int64_t total = 0;
    for (int i = 0; i < serve::kNumEndpoints; ++i) {
      total += service_a.metrics().endpoint(static_cast<serve::Endpoint>(i)).requests();
    }
    return total;
  }();
  const int64_t deadline_ctr = service_a.metrics().deadline_exceeded->Value();
  const int64_t drained_ctr = service_a.metrics().drained->Value();
  const int64_t idle_ctr = service_a.metrics().idle_evicted->Value();
  const HistogramSnapshot latency = Histogram::SnapshotFrom(latency_acc);

  std::printf(
      "  sent=%lld ok=%lld deadline=%lld draining=%lld other=%lld hangs=%lld\n"
      "  server: served=%lld deadline=%lld drained=%lld idle_evicted=%lld\n"
      "  latency p50=%.1fms p99=%.1fms\n",
      static_cast<long long>(phase_a.sent), static_cast<long long>(phase_a.ok),
      static_cast<long long>(phase_a.deadline_exceeded),
      static_cast<long long>(phase_a.draining),
      static_cast<long long>(phase_a.other_error),
      static_cast<long long>(phase_a.hangs), static_cast<long long>(served),
      static_cast<long long>(deadline_ctr), static_cast<long long>(drained_ctr), static_cast<long long>(idle_ctr),
      latency.p50 * 1e3, latency.p99 * 1e3);

  bool ok = true;
  if (phase_a.hangs != 0) ok = !Fail("phase A: a request went unanswered");
  if (phase_a.other_error != 0) ok = !Fail("phase A: unclassified error responses");
  if (phase_a.ok + phase_a.deadline_exceeded + phase_a.draining + phase_a.hangs !=
      phase_a.sent) {
    ok = !Fail("phase A: client-side accounting does not sum");
  }
  if (served + deadline_ctr + drained_ctr != phase_a.sent) {
    ok = !Fail("phase A: server counters do not account for every request");
  }
  if (deadline_ctr != phase_a.deadline_exceeded) {
    ok = !Fail("phase A: deadline_exceeded counter mismatch");
  }
  if (idle_ctr != kIdleProbes) ok = !Fail("phase A: idle_evicted != idle probes");
  if (phase_a.ok == 0) ok = !Fail("phase A: nothing succeeded");
  if (phase_a.deadline_exceeded == 0) {
    ok = !Fail("phase A: tight deadlines never tripped — nothing waited");
  }
  // Every answer must arrive within the roomy deadline plus one scoring
  // pass and scheduler slack; far past it means deadlines are not bounding
  // the tail.
  const double p99_bound_ms = static_cast<double>(kRoomyDeadlineMs) + 1000.0;
  if (latency.p99 * 1e3 > p99_bound_ms) ok = !Fail("phase A: p99 above deadline bound");

  // ---------------------------------------------------------------- Phase B
  const int chaos_fleet = std::max(4, fleet / 2);
  std::printf("chaos_bench phase B (chaos): %d resilient clients, %d ms, "
              "drain+restart at midpoint\n",
              chaos_fleet, phase_ms);
  serve::ServerOptions options_b;
  options_b.port = 0;
  options_b.num_threads = 4;
  options_b.idle_timeout_ms = 2000;
  options_b.drain_deadline_ms = 500;
  serve::ScoringService service_b(&registry, service_options);
  auto server_b = std::make_unique<serve::Server>(&service_b, options_b);
  auto port_b = server_b->Start();
  if (!port_b.ok()) return Fail(port_b.status().ToString().c_str());
  const uint16_t chaos_port = *port_b;

  std::atomic<int64_t> chaos_sent{0};
  std::atomic<int64_t> chaos_ok{0};
  std::atomic<int64_t> chaos_refused{0};  // Unavailable / deadline after retries.
  std::atomic<int64_t> chaos_failed{0};   // Anything unclassified.
  std::atomic<int64_t> chaos_retries{0};
  {
    std::vector<std::thread> workers;
    std::vector<Rng> rngs;
    rngs.reserve(static_cast<size_t>(chaos_fleet));
    for (int w = 0; w < chaos_fleet; ++w) {
      rngs.emplace_back(seed ^ (0xc0ffee00u + static_cast<uint64_t>(w)));
    }
    for (int w = 0; w < chaos_fleet; ++w) {
      workers.emplace_back([&, w] {
        Rng& rng = rngs[static_cast<size_t>(w)];
        serve::ClientOptions client_options;
        client_options.port = chaos_port;
        client_options.retry.max_attempts = 10;
        client_options.retry.initial_backoff_ms = 20;
        client_options.retry.max_backoff_ms = 500;
        client_options.retry.rng = &rng;
        client_options.recv_timeout_ms = 5000;
        serve::ResilientClient client(client_options);
        const auto stop_at = steady_clock::now() + milliseconds(phase_ms);
        uint64_t nonce = 0;
        while (steady_clock::now() < stop_at) {
          // Self-inflicted connection kill ~5% of the time: the next Call
          // must ride the retry loop through the reconnect.
          if (rng.NextDouble() < 0.05) client.Disconnect();
          const std::string salt =
              "b" + std::to_string(w) + "n" + std::to_string(nonce++);
          chaos_sent.fetch_add(1, std::memory_order_relaxed);
          auto result = client.Call(ScoreLine(salt, kRoomyDeadlineMs));
          if (result.ok()) {
            chaos_ok.fetch_add(1, std::memory_order_relaxed);
          } else {
            const StatusCode code = result.status().code();
            if (code == StatusCode::kUnavailable || code == StatusCode::kIOError ||
                code == StatusCode::kDeadlineExceeded) {
              // Clean, classified refusal after the retry budget — legal
              // during the drain/restart window.
              chaos_refused.fetch_add(1, std::memory_order_relaxed);
            } else {
              chaos_failed.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        chaos_retries.fetch_add(client.stats().retries, std::memory_order_relaxed);
      });
    }

    // Mid-run: graceful drain, then restart on the same port. Clients see
    // "draining" refusals, dead connections, a connect-refused window —
    // and must come out the other side without an unclassified failure.
    std::this_thread::sleep_for(milliseconds(phase_ms / 2));
    (void)server_b->Drain();
    server_b.reset();
    serve::ServerOptions options_restart = options_b;
    options_restart.port = chaos_port;
    server_b = std::make_unique<serve::Server>(&service_b, options_restart);
    auto restarted = server_b->Start();
    if (!restarted.ok()) {
      // Keep the fleet draining to a clean join; the missing server shows
      // up as refusals, and the bind failure fails the run below.
      std::fprintf(stderr, "restart failed: %s\n",
                   restarted.status().ToString().c_str());
    }
    for (std::thread& worker : workers) worker.join();
    if (!restarted.ok()) ok = !Fail("phase B: restart on the same port failed");
  }
  server_b->Stop();

  std::printf("  sent=%lld ok=%lld refused=%lld failed=%lld retries=%lld drained=%lld\n",
              static_cast<long long>(chaos_sent.load()),
              static_cast<long long>(chaos_ok.load()),
              static_cast<long long>(chaos_refused.load()),
              static_cast<long long>(chaos_failed.load()),
              static_cast<long long>(chaos_retries.load()),
              static_cast<long long>(service_b.metrics().drained->Value()));
  if (chaos_failed.load() != 0) ok = !Fail("phase B: unclassified failures");
  if (chaos_ok.load() == 0) ok = !Fail("phase B: nothing succeeded");
  if (chaos_ok.load() + chaos_refused.load() + chaos_failed.load() != chaos_sent.load()) {
    ok = !Fail("phase B: accounting does not sum");
  }

  done.store(true, std::memory_order_release);
  watchdog.join();

  // Report (plain ofstream on purpose: the artifact-checksum footer would
  // confuse generic JSON consumers).
  const char* env_out = std::getenv("MB_BENCH_OUT");
  const std::string out_path =
      env_out != nullptr && *env_out != '\0' ? env_out : "BENCH_chaos.json";
  std::ofstream out(out_path);
  out << "{\n"
      << "  \"phase_a\": {\"sent\": " << phase_a.sent << ", \"ok\": " << phase_a.ok
      << ", \"deadline_exceeded\": " << phase_a.deadline_exceeded
      << ", \"idle_evicted\": " << idle_ctr
      << ", \"latency_p50_ms\": " << StrFormat("%.3f", latency.p50 * 1e3)
      << ", \"latency_p99_ms\": " << StrFormat("%.3f", latency.p99 * 1e3) << "},\n"
      << "  \"phase_b\": {\"sent\": " << chaos_sent.load()
      << ", \"ok\": " << chaos_ok.load() << ", \"refused\": " << chaos_refused.load()
      << ", \"failed\": " << chaos_failed.load()
      << ", \"retries\": " << chaos_retries.load() << "},\n"
      << "  \"invariants_ok\": " << (ok ? "true" : "false") << "\n}\n";
  out.close();
  std::printf("chaos_bench: report written to %s — %s\n", out_path.c_str(),
              ok ? "ALL INVARIANTS HELD" : "INVARIANT FAILURES (see above)");
  return ok ? 0 : 1;
}
