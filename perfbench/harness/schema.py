"""Validation of BENCHMARK.json against its format rules: exact key sets,
name / unit / path syntax, counts and bounds."""

import re

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def validate(spec):
    """Returns the list of format violations in `spec` (empty when valid)."""
    problems = []

    def need(condition, message):
        if not condition:
            problems.append(message)

    need(set(spec) == TOP_KEYS, "top-level keys %s" % sorted(spec))
    command = spec.get("command", [])
    need(isinstance(command, list) and 1 <= len(command) <= 32 and
         all(isinstance(arg, str) and len(arg) <= 200 for arg in command),
         "command must be 1..32 strings of at most 200 characters")
    need(not any(arg.startswith("/") or ".." in arg.split("/") for arg in command),
         "command must not name absolute paths or leave the repo")
    paths = spec.get("paths", [])
    need(isinstance(paths, list) and 1 <= len(paths) <= 16, "1..16 paths")
    for path in paths:
        need(isinstance(path, str) and PATH.match(path) and ".." not in path.split("/") and
             not path.startswith("/"), "bad path %r" % path)
    seconds = spec.get("run_seconds")
    need(isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60,
         "run_seconds must be a whole number in 1..60")

    names = []
    workloads = spec.get("workloads", [])
    need(2 <= len(workloads) <= 8, "2..8 workloads")
    for workload in workloads:
        need(set(workload) == {"name", "why"}, "workload keys %s" % sorted(workload))
        names.append(workload.get("name", ""))
        why = workload.get("why", "")
        need(isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why,
             "why of %s must be one line of at most 200 characters" % workload.get("name"))

    end_to_end = spec.get("end_to_end", [])
    need(1 <= len(end_to_end) <= 16, "1..16 end_to_end metrics")
    for metric in end_to_end:
        need(set(metric) == {"name", "unit", "better", "bound"},
             "end_to_end keys %s" % sorted(metric))
        bound = metric.get("bound")
        need(isinstance(bound, (int, float)) and 0 < bound <= 0.25,
             "bound of %s must be in (0, 0.25]" % metric.get("name"))
    setup = [m for m in end_to_end if m.get("name") == "setup_s"]
    need(len(setup) == 1 and setup[0].get("unit") == "s" and setup[0].get("better") == "lower",
         "exactly one setup_s metric, unit s, better lower")
    if setup and end_to_end:
        need(setup[0].get("bound") == max(m.get("bound", 0) for m in end_to_end),
             "setup_s must carry the largest bound")

    per_layer = spec.get("per_layer", [])
    need(1 <= len(per_layer) <= 128, "1..128 per_layer metrics")
    for metric in per_layer:
        need(set(metric) == {"name", "unit", "better"}, "per_layer keys %s" % sorted(metric))

    for metric in end_to_end + per_layer:
        names.append(metric.get("name", ""))
        need(UNIT.match(str(metric.get("unit", ""))), "bad unit %r" % metric.get("unit"))
        need(metric.get("better") in ("lower", "higher"),
             "better of %s must be lower or higher" % metric.get("name"))
    for name in names:
        need(isinstance(name, str) and NAME.match(name), "bad name %r" % name)
    need(len(names) == len(set(names)), "names must be unique")
    return problems
