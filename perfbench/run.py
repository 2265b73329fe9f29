#!/usr/bin/env python3
"""perfbench — the repository benchmark.

    python3 perfbench/run.py --workload serve_miss|serve_hot
                             --seed N --seconds S --trace 0|1

Run from the repository root. Builds mbctl, mbserved and the benchmark's
own binaries into .bench_build/ (cmake, perfbench/CMakeLists.txt), makes
every input from --seed, runs the workload and checks its outputs. The last
line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1, as BENCHMARK.json at the repository root declares them. A run
that fails or is not correct keeps its work directory (inputs and every
child's log) under .bench_build/runs/. See perfbench/NOTES.md for what each
workload and metric means.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import procs  # noqa: E402
from harness.workload import REF_NOMINAL_S, BenchRun, HarnessError  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
TARGETS = ["mbctl", "mbserved", "perfbench_client", "perfbench_layers", "perfbench_launch",
           "perfbench_ref"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the binaries; returns their paths."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/mbctl.cc",
                   "tools/mbserved.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise HarnessError("repository source %s not found under %s" % (needed, ROOT))
    # Configuring every time (0.3 s once cached) picks up targets added to
    # perfbench/CMakeLists.txt since the build directory was made.
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target"] + TARGETS, check=True,
                   stdout=sys.stderr, stderr=sys.stderr, timeout=900)
    return {
        "mbctl": os.path.join(BUILD, "microbrowse", "tools", "mbctl"),
        "mbserved": os.path.join(BUILD, "microbrowse", "tools", "mbserved"),
        "client": os.path.join(BUILD, "perfbench_client"),
        "layers": os.path.join(BUILD, "perfbench_layers"),
        "launch": os.path.join(BUILD, "perfbench_launch"),
        "ref": os.path.join(BUILD, "perfbench_ref"),
    }


def print_report(run):
    print("perfbench %s seed=%d seconds=%g trace=%d" % (run.name, run.seed, run.seconds,
                                                         run.trace))
    if hasattr(run, "light"):
        for endpoint in ("score_pair", "predict_ctr"):
            light = run.light["endpoints"][endpoint]
            print("  light %-11s p50 %.4f ms over %d samples" % (endpoint, light["p50_ms"],
                                                                light["count"]))
        print("  full: %d requests in %.2f s, %.0f rps, p90 %.3f ms, p99 %.3f ms, "
              "client busy %.3f" % (run.full["window_completed"], run.full["window_s"],
                                    run.full["rps"], run.full["all"]["p90_ms"],
                                    run.full["all"]["p99_ms"], run.full["client_busy_frac"]))
    if "host.ref_ms" in run.values:
        print("  pipeline_s %.4f s as measured, pipeline_ref_s %.4f s at the nominal host speed"
              % (run.values["pipeline_s"], run.values["pipeline_ref_s"]))
        print("  host reference: %.3f ms per repetition (median of %d samples), nominal %.3f ms"
              % (run.values["host.ref_ms"], len(run.host_samples), 1e3 * REF_NOMINAL_S))
    print("  chain repetitions: %d" % getattr(run, "chain_reps", 0))
    if "host.steal_frac" in run.values:
        print("  host steal: %.4f of the run's CPU time" % run.values["host.steal_frac"])
    print("  operations: %d attempted, %d failed, error_frac %.6f" % (
        run.attempted, run.failed, run.failed / max(run.attempted, 1)))
    for error, count in sorted(run.errors.items()):
        print("    %-40s %d" % (error, count))
    for name, entry in sorted(run.layers.items()):
        print("  %-34s count %6d  median %12.4f  mean %12.4f %-2s  busy %10.3f ms" % (
            name, entry["count"], entry["median"], entry["mean"], entry["unit"],
            entry["busy_ms"]))
    for name, passed, detail in run.checks:
        print("  check %-52s %s  %s" % (name, "ok  " if passed else "FAIL", detail))


def main():
    with open(SPEC) as spec_file:
        spec = json.load(spec_file)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # SIGTERM / SIGINT unwind through the finally blocks that reap children.
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda signum, frame: sys.exit(128 + signum))

    try:
        binaries = build()
    except (HarnessError, subprocess.SubprocessError, OSError) as error:
        log("perfbench: build failed: %s" % error)
        return 2
    stray = procs.processes_running(binaries["mbserved"])
    if stray:
        log("perfbench: refusing to start: mbserved from an earlier run still alive "
            "(pid %s)" % ", ".join(map(str, stray)))
        return 3

    run = BenchRun(ROOT, binaries, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
    except HarnessError as error:
        log("perfbench: %s" % error)
        print_report(run)
        log("perfbench: work directory kept: %s" % run.work)
        return 1
    leaked = procs.processes_running(binaries["mbserved"])
    run.check("no mbserved survives the run", not leaked, "alive: %s" % leaked)

    metrics = run.metrics(spec)
    missing = sorted(name for name, entry in metrics.items() if entry["value"] is None)
    run.check("every metric measured", not missing, "missing: %s" % missing)
    print_report(run)
    correct = all(passed for _, passed, _ in run.checks)
    if correct:
        run.cleanup()
    else:
        log("perfbench: work directory kept: %s" % run.work)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": entry["value"] if entry["value"] is not None else -1.0,
                           "unit": entry["unit"]} for name, entry in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
