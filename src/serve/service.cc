// Copyright 2026 The Microbrowse Authors

#include "serve/service.h"

#include <charconv>
#include <chrono>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "microbrowse/classifier.h"
#include "microbrowse/feature_keys.h"

namespace microbrowse {
namespace serve {

namespace {

/// Lock shards of each result cache.
constexpr size_t kCacheShards = 16;

/// Longest snippet field parsed into a handler's per-thread storage.
constexpr size_t kMaxKeptFieldBytes = 4096;

/// Parses a request's snippet field ("line|line|..."), refusing a line
/// over kMaxLineTokens with InvalidArgument. A field of at most
/// kMaxKeptFieldBytes is parsed into `*kept`, a handler's per-thread
/// snippet whose lines and tokens keep their storage from request to
/// request, so a steady-state miss spends no allocation here; a longer one
/// goes to `*large`, the caller's own, so what a thread keeps stays small
/// whatever a request held.
Result<const Snippet*> ParseSnippetField(std::string_view field, Snippet* kept, Snippet* large) {
  Snippet* out = field.size() <= kMaxKeptFieldBytes ? kept : large;
  MB_RETURN_IF_ERROR(Snippet::Parse(field, '|', out));
  return out;
}

/// Content hash of one request payload string under one generation.
uint64_t ContentKey(uint64_t generation, std::string_view kind, std::string_view text) {
  return HashCombine(HashCombine(Mix64(generation), kind), text);
}

}  // namespace

ScoringService::ScoringService(BundleRegistry* registry, ServiceOptions options)
    : registry_(registry),
      options_(options),
      owned_registry_(options.registry == nullptr ? std::make_unique<MetricRegistry>()
                                                  : nullptr),
      metric_registry_(options.registry != nullptr ? options.registry : owned_registry_.get()),
      metrics_(metric_registry_),
      reload_success_(metric_registry_->GetCounter("mb.serve.reload_success")),
      reload_failure_(metric_registry_->GetCounter("mb.serve.reload_failure")),
      pair_cache_(options.cache_capacity, kCacheShards),
      point_cache_(options.cache_capacity, kCacheShards) {}

std::string ScoringService::HandleLine(std::string_view line) {
  std::string response;
  HandleLineTo(line, &response);
  return response;
}

void ScoringService::HandleLineTo(std::string_view line, std::string* out) {
  WallTimer timer;
  // Per-thread scratch: the Request's arena and the writers' buffers reach a
  // steady-state capacity after a few requests, after which this function
  // performs no heap allocations for cached/refused/ping traffic.
  thread_local Request request;
  const Status parsed = ParseRequestInto(line, &request);
  Respond(parsed, request, timer, out);
}

CacheProbe ScoringService::ProbeCache(const Request& request) {
  CacheProbe probe;
  probe.endpoint = EndpointByName(request.Get("type"));
  if (probe.endpoint == Endpoint::kScorePair) {
    const std::string_view a_text = request.Get("a");
    const std::string_view b_text = request.Get("b");
    if (a_text.empty() || b_text.empty()) return probe;
    probe.bundle = registry_->CurrentOnThisThread();
    if (probe.bundle == nullptr) return probe;
    probe.key = HashCombine(ContentKey(probe.bundle->generation, "pair:a", a_text), b_text);
    probe.cached = pair_cache_.Peek(probe.key);
  } else if (probe.endpoint == Endpoint::kPredictCtr) {
    const std::string_view text = request.Get("snippet");
    if (text.empty()) return probe;
    probe.bundle = registry_->CurrentOnThisThread();
    if (probe.bundle == nullptr) return probe;
    probe.key = ContentKey(probe.bundle->generation, "point", text);
    probe.cached = point_cache_.Peek(probe.key);
  }
  return probe;
}

void ScoringService::Respond(const Status& parsed, const Request& request,
                             const WallTimer& started, std::string* out) {
  thread_local JsonWriter response;
  response.Reset();
  if (!parsed.ok()) {
    response.Bool("ok", false).String("error", parsed.message());
    metrics_.endpoint(Endpoint::kOther).RecordRequest(started.ElapsedSeconds(), false);
    response.FinishTo(out);
    return;
  }
  const CacheProbe probe = ProbeCache(request);
  if (request.Has("id")) response.String("id", request.Get("id"));
  bool ok = false;
  Dispatch(request, probe, response, &ok);
  metrics_.endpoint(probe.endpoint).RecordRequest(started.ElapsedSeconds(), ok);
  response.FinishTo(out);
}

void ScoringService::Dispatch(const Request& request, const CacheProbe& probe,
                              JsonWriter& response, bool* ok) {
  Status status = Status::OK();
  switch (probe.endpoint) {
    case Endpoint::kScorePair:
      status = HandleScorePair(request, probe, response);
      break;
    case Endpoint::kPredictCtr:
      status = HandlePredictCtr(request, probe, response);
      break;
    case Endpoint::kExamine:
      status = HandleExamine(request, response);
      break;
    case Endpoint::kReload:
      status = HandleReload(request, response);
      break;
    case Endpoint::kStatsz:
      status = HandleStatsz(response);
      break;
    case Endpoint::kMetricsz:
      status = HandleMetricsz(response);
      break;
    case Endpoint::kHealthz:
      status = HandleHealthz(response);
      break;
    case Endpoint::kReadyz:
      status = HandleReadyz(response);
      break;
    case Endpoint::kPing:
      break;
    case Endpoint::kOther: {
      const std::string_view type = request.Get("type");
      if (type == "debug_sleep" && options_.allow_debug_sleep) {
        int64_t ms = 0;
        const std::string_view text = request.Get("ms", "0");
        std::from_chars(text.data(), text.data() + text.size(), ms);
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        break;
      }
      status = Status::InvalidArgument(
          type.empty() ? "missing request field 'type'"
                       : "unknown type '" + std::string(type) + "'");
      break;
    }
  }
  *ok = status.ok();
  if (status.ok()) {
    response.Bool("ok", true);
  } else {
    response.Bool("ok", false).String("error", status.message());
  }
}

Status ScoringService::HandleScorePair(const Request& request, const CacheProbe& probe,
                                       JsonWriter& response) {
  const std::string_view a_text = request.Get("a");
  const std::string_view b_text = request.Get("b");
  if (a_text.empty() || b_text.empty()) {
    return Status::InvalidArgument("score_pair needs non-empty 'a' and 'b' fields");
  }
  const ModelBundle* bundle = probe.bundle;
  if (bundle == nullptr) return Status::FailedPrecondition("no model bundle loaded");

  const bool hit = probe.hit();
  pair_cache_.Count(probe.key, hit);
  double margin = 0.0;
  if (hit) {
    margin = *probe.cached;
  } else {
    // Chaos hook on the uncached scoring path: `serve.score=delay:<ms>`
    // injects latency (slow-model rehearsal), error specs inject typed
    // scoring failures.
    MB_FAILPOINT("serve.score");
    thread_local Snippet a_kept, b_kept;
    Snippet a_large, b_large;
    MB_ASSIGN_OR_RETURN(const Snippet* a, ParseSnippetField(a_text, &a_kept, &a_large));
    MB_ASSIGN_OR_RETURN(const Snippet* b, ParseSnippetField(b_text, &b_kept, &b_large));
    margin = PredictPairMargin(*a, *b, bundle->stats, bundle->config, bundle->classifier.model,
                               bundle->classifier.t_registry, bundle->classifier.p_registry);
    pair_cache_.Put(probe.key, margin);
  }
  metrics_.endpoint(Endpoint::kScorePair).RecordCache(hit);
  response.String("winner", margin >= 0 ? "a" : "b")
      .Number("margin", margin)
      .Int("gen", static_cast<int64_t>(bundle->generation))
      .String("cache", hit ? "hit" : "miss");
  return Status::OK();
}

Status ScoringService::HandlePredictCtr(const Request& request, const CacheProbe& probe,
                                        JsonWriter& response) {
  const std::string_view text = request.Get("snippet");
  if (text.empty()) {
    return Status::InvalidArgument("predict_ctr needs a non-empty 'snippet' field");
  }
  const ModelBundle* bundle = probe.bundle;
  if (bundle == nullptr) return Status::FailedPrecondition("no model bundle loaded");

  const bool hit = probe.hit();
  point_cache_.Count(probe.key, hit);
  double score = 0.0;
  if (hit) {
    score = *probe.cached;
  } else {
    MB_FAILPOINT("serve.score");
    thread_local Snippet kept;
    Snippet large;
    MB_ASSIGN_OR_RETURN(const Snippet* snippet, ParseSnippetField(text, &kept, &large));
    score = bundle->predictor->Score(*snippet);
    point_cache_.Put(probe.key, score);
  }
  metrics_.endpoint(Endpoint::kPredictCtr).RecordCache(hit);
  // The pointwise score is a relative quality in log-odds units (see
  // ctr_predictor.h); "ctr" squashes it to (0,1) for consumers that want a
  // probability-shaped number. It is rank-consistent, not calibrated.
  response.Number("score", score)
      .Number("ctr", Sigmoid(score))
      .Int("gen", static_cast<int64_t>(bundle->generation))
      .String("cache", hit ? "hit" : "miss");
  return Status::OK();
}

Status ScoringService::HandleExamine(const Request& request, JsonWriter& response) {
  const std::string_view text = request.Get("snippet");
  if (text.empty()) {
    return Status::InvalidArgument("examine needs a non-empty 'snippet' field");
  }
  const auto bundle = registry_->Current();
  if (bundle == nullptr) return Status::FailedPrecondition("no model bundle loaded");

  thread_local Snippet kept;
  Snippet large;
  MB_ASSIGN_OR_RETURN(const Snippet* parsed, ParseSnippetField(text, &kept, &large));
  const Snippet& snippet = *parsed;
  // Per-token micro-browsing breakdown: examination probability from the
  // bundle's (fitted) curve, relevance proxy from the statistics database's
  // smoothed win probability of the unigram.
  std::string lines_json = "[";
  for (int line = 0; line < snippet.num_lines(); ++line) {
    if (line > 0) lines_json.push_back(',');
    lines_json.push_back('[');
    const auto& tokens = snippet.line(line);
    for (int pos = 0; pos < static_cast<int>(tokens.size()); ++pos) {
      if (pos > 0) lines_json.push_back(',');
      JsonWriter token;
      token.String("token", tokens[pos])
          .Number("examine", bundle->curve.Probability(line, pos))
          .Number("relevance", Sigmoid(bundle->stats.LogOdds(TermKey(tokens[pos]))));
      lines_json += token.Finish();
    }
    lines_json.push_back(']');
  }
  lines_json.push_back(']');
  response.Raw("lines", lines_json)
      .Bool("curve_fitted", bundle->curve_fitted)
      .Int("gen", static_cast<int64_t>(bundle->generation));
  return Status::OK();
}

Status ScoringService::HandleReload(const Request& request, JsonWriter& response) {
  // "force" bypasses the unchanged-artifacts short-circuit (operator
  // escape hatch; see BundleRegistry::Reload).
  const bool force = request.Get("force", "false") == "true";
  const uint64_t before = registry_->generation();
  const Status status = registry_->Reload(force);
  const uint64_t after = registry_->generation();
  if (status.ok()) {
    if (after != before) {
      // Entries of dead generations can never be hit again (keys embed the
      // generation); flush them eagerly rather than waiting for LRU churn.
      // A short-circuited reload (byte-identical artifacts) keeps both the
      // generation and the warm caches.
      pair_cache_.Clear();
      point_cache_.Clear();
    }
    reload_success_->Increment(1);
  } else {
    reload_failure_->Increment(1);
  }
  response.Int("gen", static_cast<int64_t>(after)).Bool("skipped", status.ok() && after == before);
  return status;
}

Status ScoringService::HandleStatsz(JsonWriter& response) {
  response.Raw("endpoints", metrics_.RenderStatszJson());
  const CacheStats pair = pair_cache_stats();
  const CacheStats point = point_cache_stats();
  response.Raw("pair_cache", JsonWriter()
                                 .Int("size", pair.size)
                                 .Int("hits", pair.hits)
                                 .Int("misses", pair.misses)
                                 .Int("evictions", pair.evictions)
                                 .Number("hit_rate", pair.hit_rate())
                                 .Finish());
  response.Raw("point_cache", JsonWriter()
                                  .Int("size", point.size)
                                  .Int("hits", point.hits)
                                  .Int("misses", point.misses)
                                  .Int("evictions", point.evictions)
                                  .Number("hit_rate", point.hit_rate())
                                  .Finish());
  response.Int("gen", static_cast<int64_t>(registry_->generation()))
      .Int("reloads", registry_->reload_count())
      .Int("skipped_reloads", registry_->skipped_reload_count())
      .Int("failed_reloads", registry_->failed_reload_count());
  return Status::OK();
}

Status ScoringService::HandleHealthz(JsonWriter& response) {
  // Liveness: the process is up and answering protocol lines — true in
  // every state, including mid-drain (a draining task is alive; it is just
  // not *ready*). The state string still tells the whole story.
  const uint64_t generation = registry_->generation();
  std::string state = "serving";
  if (draining()) {
    state = "draining";
  } else if (generation == 0 || registry_->last_reload_failed()) {
    state = "degraded";
  }
  response.String("state", state).Int("gen", static_cast<int64_t>(generation));
  return Status::OK();
}

Status ScoringService::HandleReadyz(JsonWriter& response) {
  // Readiness: should a router send this task *new* traffic? No while
  // draining (the listener is already closed to fresh connections) and no
  // without a bundle; a stale generation after a failed reload is degraded
  // but still ready — serving the old model beats serving nothing.
  const uint64_t generation = registry_->generation();
  if (draining()) {
    const HealthState* health = health_.load(std::memory_order_acquire);
    response.String("state", "draining")
        .Int("gen", static_cast<int64_t>(generation))
        .Int("retry_after_ms", health->retry_after_ms.load(std::memory_order_relaxed));
    return Status::Unavailable("draining");
  }
  if (generation == 0) {
    response.String("state", "degraded").Int("gen", 0);
    return Status::FailedPrecondition("no model bundle loaded");
  }
  response.String("state", registry_->last_reload_failed() ? "degraded" : "serving")
      .Int("gen", static_cast<int64_t>(generation));
  return Status::OK();
}

Status ScoringService::HandleMetricsz(JsonWriter& response) {
  // The Prometheus text rides inside the newline-JSON envelope as one
  // escaped string; mbserved additionally answers plain HTTP GET /metricsz
  // with the raw text (see Server::BuildHttpResponse).
  response.String("metrics", RenderMetricsText())
      .Int("gen", static_cast<int64_t>(registry_->generation()));
  return Status::OK();
}

}  // namespace serve
}  // namespace microbrowse
