#!/usr/bin/env python3
"""Records perfbench runs into a BENCH_<workload>.json trajectory and judges
new runs against it.

Every perfbench run (`python3 perfbench/run.py --workload W --seed N
--seconds 16`) ends with one JSON object on its last line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Give this script saved outputs of such runs (whole logs or just the JSON
line; the last line that parses as such an object is used).

  record   Appends one entry to a trajectory file: the median of every
           metric over the runs (at least three seeds), with the git sha of
           the measured tree, the core count and the median host.ref_ms.

             tools/bench_compare.py record --out BENCH_serve_miss.json \\
                 --workload serve_miss --sha "$(git rev-parse HEAD)" \\
                 --seeds 1,2,3 run1.txt run2.txt run3.txt

  compare  Takes the medians of new runs and prints one verdict per
           end-to-end metric of BENCHMARK.json against the trajectory's
           latest entry: "ok" inside the metric's bound, "better" or
           "worse" beyond it in the metric's direction, "missing" when
           either side lacks the metric. A bound is a share of the baseline
           value (0.25 = 25%). Exits 1 when any metric is worse.

             tools/bench_compare.py compare --baseline BENCH_serve_miss.json \\
                 new1.txt new2.txt new3.txt
"""

import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# An untraced run reports the host speed only in its human-readable lines.
HOST_REF = re.compile(r"host reference: ([0-9.]+) ms per repetition")


def parse_run(text):
    """The result object of one perfbench run: the last line of `text` that
    parses as a JSON object with a "metrics" member. A host.ref_ms the
    metrics lack is taken from the report's "host reference" line."""
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            result = json.loads(line)
        except ValueError:
            continue
        if isinstance(result, dict) and isinstance(result.get("metrics"), dict):
            found = HOST_REF.search(text)
            if found and "host.ref_ms" not in result["metrics"]:
                result["metrics"]["host.ref_ms"] = {"value": float(found.group(1)), "unit": "ms"}
            return result
    raise ValueError("no perfbench result line found")


def median_metrics(runs):
    """{name: {"value": median over the runs that have it, "unit": unit}}."""
    values = {}
    units = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            values.setdefault(name, []).append(float(metric["value"]))
            units[name] = metric.get("unit", "")
    return {name: {"value": statistics.median(vals), "unit": units[name]}
            for name, vals in sorted(values.items())}


def make_entry(runs, sha, seeds):
    """One trajectory entry from a list of parsed runs."""
    metrics = median_metrics(runs)
    ref = metrics.get("host.ref_ms")
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "seeds": list(seeds),
        "runs": len(runs),
        "all_correct": all(run.get("correct") is True for run in runs),
        "host.ref_ms": ref["value"] if ref else None,
        "metrics": metrics,
    }


def verdict(spec, base, new):
    """("ok" | "better" | "worse" | "missing", relative change) for one
    end-to-end metric spec {"name", "better", "bound"} of BENCHMARK.json."""
    if base is None or new is None:
        return "missing", None
    if base == new:
        return "ok", 0.0
    if base == 0:
        change = float("inf") if new > base else float("-inf")
    else:
        change = (new - base) / abs(base)
    # Positive `gain` is an improvement in the metric's own direction.
    gain = -change if spec["better"] == "lower" else change
    if gain < -spec["bound"]:
        return "worse", change
    if gain > spec["bound"]:
        return "better", change
    return "ok", change


def compare(benchmark, baseline_entry, new_metrics):
    """One (name, verdict, base, new, change) row per end-to-end metric."""
    rows = []
    for spec in benchmark["end_to_end"]:
        base = baseline_entry["metrics"].get(spec["name"], {}).get("value")
        new = new_metrics.get(spec["name"], {}).get("value")
        status, change = verdict(spec, base, new)
        rows.append((spec["name"], status, base, new, change))
    return rows


def format_rows(rows, benchmark):
    bounds = {spec["name"]: spec for spec in benchmark["end_to_end"]}
    lines = []
    for name, status, base, new, change in rows:
        spec = bounds[name]
        shown = "n/a" if change is None else "%+.1f%%" % (100 * change)
        lines.append("%-16s %-8s base %-12s new %-12s change %-8s (bound %g%%, %s is better)" % (
            name, status, "n/a" if base is None else "%.6g" % base,
            "n/a" if new is None else "%.6g" % new, shown, 100 * spec["bound"], spec["better"]))
    return lines


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(parse_run(f.read()))
    return runs


def load_json(path):
    with open(path) as f:
        return json.load(f)


def cmd_record(args):
    runs = load_runs(args.runs)
    if len(runs) < 3:
        sys.exit("record: need at least three runs, got %d" % len(runs))
    if args.seeds and len(args.seeds) != len(runs):
        sys.exit("record: %d seeds for %d runs" % (len(args.seeds), len(runs)))
    trajectory = {"workload": args.workload, "trajectory": []}
    if os.path.exists(args.out):
        trajectory = load_json(args.out)
        if trajectory.get("workload") != args.workload:
            sys.exit("record: %s holds workload %r, not %r" % (
                args.out, trajectory.get("workload"), args.workload))
    entry = make_entry(runs, args.sha, args.seeds or [])
    if args.label:
        entry["label"] = args.label
    trajectory["trajectory"].append(entry)
    with open(args.out, "w") as f:
        json.dump(trajectory, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def cmd_compare(args):
    benchmark = load_json(args.benchmark)
    trajectory = load_json(args.baseline)
    if not trajectory["trajectory"]:
        sys.exit("compare: no baseline entry in %s" % args.baseline)
    baseline = trajectory["trajectory"][-1]
    rows = compare(benchmark, baseline, median_metrics(load_runs(args.runs)))
    print("baseline %s (%s, %d runs) vs %d new runs" % (
        baseline["git_sha"][:12], trajectory["workload"], baseline["runs"], len(args.runs)))
    for line in format_rows(rows, benchmark):
        print(line)
    return 1 if any(status == "worse" for _, status, _, _, _ in rows) else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    record = sub.add_parser("record", help="append medians of runs to a trajectory file")
    record.add_argument("--out", required=True)
    record.add_argument("--workload", required=True)
    record.add_argument("--sha", required=True)
    record.add_argument("--seeds", type=lambda text: [int(s) for s in text.split(",")],
                        help="comma-separated seeds of the runs, in order")
    record.add_argument("--label")
    record.add_argument("runs", nargs="+")
    comp = sub.add_parser("compare", help="judge new runs against a trajectory file")
    comp.add_argument("--baseline", required=True)
    comp.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    comp.add_argument("runs", nargs="+")
    args = parser.parse_args(argv)
    return cmd_record(args) if args.command == "record" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
