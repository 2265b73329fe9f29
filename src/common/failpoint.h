// Copyright 2026 The Microbrowse Authors
//
// Fault-injection framework. A *failpoint* is a named hook compiled into a
// production code path (serialization writes, the thread pool, the pipeline
// fold loop) that can be armed to return an injected error, so tests and
// operators can rehearse crashes, full disks and flaky storage without
// special builds.
//
//   Status SaveThing(...) {
//     MB_FAILPOINT("io.write.flush");   // returns an error when armed + fired
//     ...
//   }
//
// Failpoints are armed programmatically (Activate) or from the environment:
//
//   MB_FAILPOINTS="io.write.rename=always,pipeline.fold=nth:3,io.read.open=0.25"
//
// (every artifact rename fails, the third cross-validation fold to reach
// its failpoint fails the run with that IOError, and each artifact open
// fails with probability 0.25).
//
// Spec grammar, per comma-separated `name=spec` entry:
//   always      fire on every hit
//   off         registered but never fires (hit counting only)
//   p:<float>   fire with probability <float> per hit (deterministic RNG
//               seeded from the failpoint name)
//   nth:<int>   fire on exactly the <int>-th hit (1-based), once
//   delay:<ms>  inject <ms> milliseconds of latency on every hit instead
//               of an error (Check sleeps, then returns OK) — how timeout
//               and chaos tests create slow paths without hand-rolled
//               sleeps in production code
//   <float>     shorthand for p:<float> (must contain '.')
//   <int>       shorthand for nth:<int>
//
// When no failpoint is armed anywhere in the process, MB_FAILPOINT compiles
// down to one relaxed atomic load — effectively free on hot paths.

#ifndef MICROBROWSE_COMMON_FAILPOINT_H_
#define MICROBROWSE_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace microbrowse {
namespace failpoint {

/// How an armed failpoint decides to fire.
struct Spec {
  enum class Mode {
    kAlways,       ///< Fire on every hit.
    kNever,        ///< Never fire; hits are still counted.
    kProbability,  ///< Fire with `probability` per hit.
    kNth,          ///< Fire on exactly the `nth` hit (1-based), once.
    kDelay,        ///< Sleep `delay_ms` on every hit, then return OK.
  };
  Mode mode = Mode::kAlways;
  double probability = 1.0;
  int64_t nth = 1;
  int64_t delay_ms = 0;
  /// Error code of the injected Status. Defaults to kIOError — failpoints
  /// model storage faults, which the retry layer treats as transient.
  StatusCode code = StatusCode::kIOError;
};

/// Arms `name` with `spec`, replacing any previous arming (hit and fire
/// counters reset).
void Activate(const std::string& name, const Spec& spec);

/// Disarms `name`. No-op when not armed.
void Deactivate(const std::string& name);

/// Disarms every failpoint (used by tests to restore a clean slate).
void DeactivateAll();

/// True iff `name` is currently armed (any mode, including kNever).
bool IsActive(const std::string& name);

/// Number of times an armed `name` was evaluated. Hits are only counted
/// while armed — the disarmed fast path does not track anything.
int64_t HitCount(const std::string& name);

/// Number of times `name` actually fired.
int64_t FireCount(const std::string& name);

/// Evaluates the failpoint: returns the injected error when `name` is armed
/// and its spec says this hit fires, OK otherwise. Prefer the MB_FAILPOINT
/// macro in Status/Result-returning functions.
Status Check(std::string_view name);

/// Parses one spec string (the grammar in the file header). Fails with
/// InvalidArgument on garbage.
Result<Spec> ParseSpec(const std::string& text);

/// Arms every `name=spec` entry of a comma-separated list (the MB_FAILPOINTS
/// syntax). Entries are applied left to right; the first malformed entry
/// aborts with InvalidArgument (entries before it stay armed).
Status ActivateFromList(const std::string& list);

/// Names of all currently armed failpoints, sorted.
std::vector<std::string> ActiveNames();

namespace internal {

extern std::atomic<int> g_active_count;

/// Fast-path guard: false whenever no failpoint is armed process-wide.
inline bool AnyActive() { return g_active_count.load(std::memory_order_relaxed) > 0; }

}  // namespace internal
}  // namespace failpoint

/// Evaluates a failpoint inside a Status- or Result-returning function,
/// propagating the injected error out of the enclosing function when armed
/// and fired. Near-zero cost when no failpoint is armed.
#define MB_FAILPOINT(name)                                                        \
  do {                                                                            \
    if (::microbrowse::failpoint::internal::AnyActive()) {                        \
      ::microbrowse::Status _mb_fp_status = ::microbrowse::failpoint::Check(name); \
      if (!_mb_fp_status.ok()) return _mb_fp_status;                              \
    }                                                                             \
  } while (false)

}  // namespace microbrowse

#endif  // MICROBROWSE_COMMON_FAILPOINT_H_
