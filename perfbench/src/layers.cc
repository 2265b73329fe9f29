// perfbench_layers — in-process per-layer timers and the serve parity check.
//
//   perfbench_layers verify --model model.mbp --stats stats.mbp
//                           --samples samples.tsv
//   perfbench_layers layers --model model.mbp --stats stats.mbp
//                           --requests requests.txt --corpus corpus.tsv
//                           --trained-model model.txt --trained-stats stats.tsv
//                           --scratch DIR
//
// verify: every line of the samples file is "<request>\t<response>" as the
// load client captured it from the real server. The served margin / score
// must equal PredictPairMargin / CtrPredictor::Score computed here on the
// same mbpack bundle bit for bit (the server writes shortest round-trip
// doubles, so a parsed response value is exact).
//
// layers: holds the bundle through serve::LoadBundle / BundleRegistry and
// times the public functions of each layer on the first kMaxRequests of
// the workload's own request lines, one call at a time; replays the lines through
// ScoringService::HandleLineTo twice (first pass misses, second pass hits)
// with a counting operator new; and times the in-process pipeline steps
// that have no trace span (pair extraction, dataset build, CSR flatten,
// pack writes) on the workload's training corpus.
//
// Both print one JSON object on stdout; timing entries carry the call
// count, the median per call and the summed busy time.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "corpus/pair_extraction.h"
#include "io/pack_artifacts.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "microbrowse/optimizer.h"
#include "microbrowse/rewrite.h"
#include "serve/bundle.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "text/diff.h"
#include "text/ngram.h"

#include "nonce.h"

// ---------------------------------------------------------------------------
// Counting allocator: every operator new in this process (ordinary, nothrow
// and aligned) bumps one relaxed counter.

namespace {
std::atomic<int64_t> g_allocations{0};

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(alignment, (std::max<std::size_t>(size, 1) + alignment - 1) /
                                           alignment * alignment);
}
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

using namespace microbrowse;

namespace {

using Clock = std::chrono::steady_clock;

/// Request lines replayed in-process, about half of each endpoint: enough
/// for steady per-call medians in a few seconds.
constexpr size_t kMaxRequests = 1000;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end() || it->second.empty()) {
    std::fprintf(stderr, "perfbench_layers: missing %s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench_layers: %s: %s\n", what.c_str(), status.ToString().c_str());
  std::exit(1);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Exactly the service's snippet parse (serve/service.cc).
Snippet ParseSnippetField(std::string_view field) {
  return Snippet::FromLines(Split(field, '|'));
}

/// The value of a numeric response field ("margin":<double>), parsed back
/// exactly; false when absent.
bool ResponseNumber(std::string_view response, std::string_view key, double* out) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t at = response.find(needle);
  if (at == std::string_view::npos) return false;
  const char* begin = response.data() + at + needle.size();
  const char* end = response.data() + response.size();
  return std::from_chars(begin, end, *out).ec == std::errc();
}

/// Per-call wall times of one layer function.
class Timing {
 public:
  template <typename Fn>
  void Time(Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    samples_.push_back(std::chrono::duration<double>(Clock::now() - start).count());
  }

  /// {"count":n,"median":m,"mean":a,"busy_ms":b,"unit":u} with median
  /// and mean scaled to `unit` (us, ms or s).
  std::string Json(const std::string& unit) const {
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    double median = 0.0;
    if (!sorted.empty()) {
      const size_t mid = sorted.size() / 2;
      median = sorted.size() % 2 == 1 ? sorted[mid] : 0.5 * (sorted[mid - 1] + sorted[mid]);
    }
    double busy = 0.0;
    for (double s : samples_) busy += s;
    const double scale = unit == "us" ? 1e6 : unit == "ms" ? 1e3 : 1.0;
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"count\":%zu,\"median\":%.17g,\"mean\":%.17g,\"busy_ms\":%.17g,"
                  "\"unit\":\"%s\"}",
                  samples_.size(), median * scale,
                  samples_.empty() ? 0.0 : busy / samples_.size() * scale, busy * 1e3,
                  unit.c_str());
    return buffer;
  }

 private:
  std::vector<double> samples_;
};

class JsonObject {
 public:
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
  }
  void Number(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    Raw(key, buffer);
  }
  std::string Finish() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::shared_ptr<const serve::ModelBundle> LoadOrDie(const serve::BundlePaths& paths) {
  auto bundle = serve::LoadBundle(paths, 1);
  if (!bundle.ok()) Die("loading bundle", bundle.status());
  return *bundle;
}

int Verify(const std::map<std::string, std::string>& flags) {
  serve::BundlePaths paths;
  paths.model_path = Flag(flags, "--model");
  paths.stats_path = Flag(flags, "--stats");
  const auto bundle = LoadOrDie(paths);
  int64_t checked = 0;
  int64_t mismatches = 0;
  std::string first_mismatch;
  for (const std::string& line : ReadLines(Flag(flags, "--samples"))) {
    const size_t tab = line.find('\t');
    const std::string_view request_text = std::string_view(line).substr(0, tab);
    const std::string_view response =
        tab == std::string::npos ? std::string_view() : std::string_view(line).substr(tab + 1);
    auto request = serve::ParseRequest(request_text);
    double served = 0.0;
    double local = 0.0;
    bool comparable = request.ok();
    if (comparable && request->Get("type") == "score_pair") {
      comparable = ResponseNumber(response, "margin", &served);
      local = PredictPairMargin(ParseSnippetField(request->Get("a")),
                                ParseSnippetField(request->Get("b")), bundle->stats,
                                bundle->config, bundle->classifier.model,
                                bundle->classifier.t_registry, bundle->classifier.p_registry);
    } else if (comparable && request->Get("type") == "predict_ctr") {
      comparable = ResponseNumber(response, "score", &served);
      local = bundle->predictor->Score(ParseSnippetField(request->Get("snippet")));
    } else {
      comparable = false;
    }
    ++checked;
    if (!comparable || served != local) {
      ++mismatches;
      if (first_mismatch.empty()) first_mismatch = line;
    }
  }
  JsonObject out;
  out.Number("checked", static_cast<double>(checked));
  out.Number("mismatches", static_cast<double>(mismatches));
  std::string escaped;
  serve::JsonEscapeTo(first_mismatch, &escaped);
  out.Raw("first_mismatch", "\"" + escaped + "\"");
  std::printf("%s\n", out.Finish().c_str());
  return 0;
}

int Layers(const std::map<std::string, std::string>& flags) {
  serve::BundlePaths paths;
  paths.model_path = Flag(flags, "--model");
  paths.stats_path = Flag(flags, "--stats");
  std::vector<std::string> lines = ReadLines(Flag(flags, "--requests"));
  if (lines.size() > kMaxRequests) lines.resize(kMaxRequests);
  uint64_t nonce = 0;
  for (std::string& line : lines) line = perfbench::ExpandNonce(line, nonce++);

  JsonObject out;
  // io: bundle load (mbpack), five times.
  Timing load_bundle;
  for (int i = 0; i < 5; ++i) load_bundle.Time([&] { LoadOrDie(paths); });
  out.Raw("io.load_bundle_ms", load_bundle.Json("ms"));
  const auto bundle = LoadOrDie(paths);

  // text / microbrowse: one call at a time over the request payloads.
  Timing parse, tokenize, ngrams, diff, match, occurrences, margin, ctr;
  FeatureRegistry t_registry = bundle->classifier.t_registry;
  FeatureRegistry p_registry = bundle->classifier.p_registry;
  std::vector<CoupledOccurrence> occurrence_buffer;
  serve::Request request;
  for (const std::string& line : lines) {
    parse.Time([&] { (void)serve::ParseRequestInto(line, &request); });
    const std::string_view type = request.Get("type");
    if (type == "score_pair") {
      Snippet a, b;
      tokenize.Time([&] { a = ParseSnippetField(request.Get("a")); });
      tokenize.Time([&] { b = ParseSnippetField(request.Get("b")); });
      ngrams.Time([&] { (void)ExtractNGrams(a); });
      ngrams.Time([&] { (void)ExtractNGrams(b); });
      diff.Time([&] {
        for (int l = 0; l < std::min(a.num_lines(), b.num_lines()); ++l) {
          (void)TokenDiff(a.line(l), b.line(l));
        }
      });
      match.Time([&] { (void)MatchRewrites(a, b, &bundle->stats); });
      occurrences.Time([&] {
        occurrence_buffer.clear();
        ExtractPairOccurrences(a, b, bundle->stats, bundle->config, &t_registry, &p_registry,
                               &occurrence_buffer);
      });
      margin.Time([&] {
        (void)PredictPairMargin(a, b, bundle->stats, bundle->config, bundle->classifier.model,
                                &t_registry, &p_registry);
      });
    } else if (type == "predict_ctr") {
      Snippet snippet;
      tokenize.Time([&] { snippet = ParseSnippetField(request.Get("snippet")); });
      ctr.Time([&] { (void)bundle->predictor->Score(snippet); });
    }
  }
  out.Raw("serve.parse_us", parse.Json("us"));
  out.Raw("text.tokenize_us", tokenize.Json("us"));
  out.Raw("text.ngrams_us", ngrams.Json("us"));
  out.Raw("text.diff_us", diff.Json("us"));
  out.Raw("microbrowse.match_rewrites_us", match.Json("us"));
  out.Raw("microbrowse.pair_occurrences_us", occurrences.Json("us"));
  out.Raw("microbrowse.pair_margin_us", margin.Json("us"));
  out.Raw("microbrowse.ctr_score_us", ctr.Json("us"));

  // serve: the full request path, first pass misses, second pass hits.
  serve::BundleRegistry registry;
  if (Status status = registry.LoadInitial(paths); !status.ok()) Die("registry", status);
  serve::ServiceOptions service_options;
  service_options.cache_capacity = 8192;
  serve::ScoringService service(&registry, service_options);
  std::string response;
  service.HandleLineTo("{\"type\":\"ping\"}", &response);  // warm the thread-local scratch
  for (const char* pass : {"miss", "hit"}) {
    Timing handle;
    const int64_t allocations_before = g_allocations.load(std::memory_order_relaxed);
    for (const std::string& line : lines) {
      handle.Time([&] { service.HandleLineTo(line, &response); });
    }
    const int64_t allocations = g_allocations.load(std::memory_order_relaxed) - allocations_before;
    out.Raw(std::string("serve.handle_us.") + pass, handle.Json("us"));
    out.Number(std::string("serve.allocs_per_req.") + pass,
               lines.empty() ? 0.0 : static_cast<double>(allocations) / lines.size());
  }
  const serve::CacheStats pair_cache = service.pair_cache_stats();
  const serve::CacheStats point_cache = service.point_cache_stats();
  out.Number("inprocess_hits", static_cast<double>(pair_cache.hits + point_cache.hits));
  out.Number("inprocess_requests", static_cast<double>(2 * lines.size()));

  // Pipeline steps that carry no trace span, on the training corpus.
  auto corpus = LoadAdCorpus(Flag(flags, "--corpus"));
  if (!corpus.ok()) Die("loading corpus", corpus.status());
  auto db = LoadFeatureStats(Flag(flags, "--trained-stats"));
  if (!db.ok()) Die("loading stats", db.status());
  auto saved = LoadClassifier(Flag(flags, "--trained-model"));
  if (!saved.ok()) Die("loading model", saved.status());
  Timing extract, dataset_build, flatten, pack_write;
  PairCorpus pairs;
  extract.Time([&] { pairs = ExtractSignificantPairs(*corpus, {}); });
  CoupledDataset dataset;
  dataset_build.Time(
      [&] { dataset = BuildClassifierDataset(pairs, *db, ClassifierConfig::M6(), 99); });
  flatten.Time([&] { (void)FlattenCoupledDataset(dataset); });
  const std::string scratch = Flag(flags, "--scratch");
  pack_write.Time([&] {
    if (Status s = SaveStatsPack(*db, scratch + "/layers_stats.mbp"); !s.ok()) Die("pack", s);
    if (Status s = SaveClassifierPack(saved->model, saved->t_registry, saved->p_registry,
                                      scratch + "/layers_model.mbp");
        !s.ok()) {
      Die("pack", s);
    }
  });
  out.Raw("corpus.extract_pairs_s", extract.Json("s"));
  out.Raw("microbrowse.dataset_build_s", dataset_build.Json("s"));
  out.Raw("ml.flatten_s", flatten.Json("s"));
  out.Raw("io.pack_write_s", pack_write.Json("s"));
  std::printf("%s\n", out.Finish().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const auto flags = ParseFlags(argc, argv);
  if (command == "verify") return Verify(flags);
  if (command == "layers") return Layers(flags);
  std::fprintf(stderr,
               "usage: perfbench_layers verify --model M --stats S --samples F\n"
               "       perfbench_layers layers --model M --stats S --requests F --corpus C\n"
               "                               --trained-model T --trained-stats S2 --scratch D\n");
  return 2;
}
