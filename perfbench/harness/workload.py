"""One benchmark run: seeded inputs, the offline chain, the served bundle,
the output checks and the metrics.

Every workload runs the same sequence, so every metric has a value on
every workload; the workloads differ in the traffic only:

1. `mbctl generate` writes a held-out corpus, from which the request file
   is built, and the training corpus.
2. The offline chain `stats -> train --model M6 -> evaluate --model M6
   --folds 3 -> pack (stats and model)` builds the mbpack bundle; it runs
   CHAIN_REPS times.
3. `mbserved --threads 2` serves the bundle (the set-up, spawn -> first ok
   response, is timed SETUP_REPEATS times), then one client process drives
   a warm-up, the `light` phase (1 connection, 1 in flight) and the `full`
   phase (4 connections, 8 in flight each).
4. perfbench_layers checks a seeded sample of served results against
   in-process scoring, and in a traced run times each layer in-process.

The chains run on one vCPU, with perfbench_ref, a fixed piece of work that
shares no code with the repository, timed on the same vCPU before each
stage; pipeline_ref_s is the chain time at a fixed host speed through it
(see host_factor()).
"""

import json
import os
import re
import shutil
import time

from . import inputs, procs, scrape
from .stats import median, ratio

TRAIN_ADGROUPS = 300
HELDOUT_ADGROUPS = 1000
# The server start is timed this many times, on one CPU, and reported as
# the median; see time_setup().
SETUP_REPEATS = 21
# mbserved scoring workers: one reactor plus two workers, and the one client
# thread, make four busy threads on a 4-vCPU VM. The offline chain runs
# single-threaded: on that VM its 2-thread stages (train, evaluate) spread
# half again as much between back-to-back repeats.
SERVER_THREADS = 2
CACHE_CAPACITY = 8192
HOT_WORKING_SET = 2048
# Closed-loop load points.
LIGHT = (1, 1)   # connections, requests in flight per connection
FULL = (4, 8)
# Every light-phase request with index % SAMPLE_EVERY == 0 is checked
# against in-process scoring.
SAMPLE_EVERY = 25
# A sane band for the M6 cross-validated F on the generated corpora.
F_BAND = (0.55, 0.95)
# The serve_hot run fails when its single client thread is this busy:
# beyond it cpu_us_per_req and client.rps measure the client.
CLIENT_BUSY_LIMIT = 0.9

# In-process timings reported as a mean per call rather than a median: the
# request mix is bimodal (a score_pair miss costs ~15x a predict_ctr miss),
# so a median over it sits on the class boundary and jumps between them.
MEAN_LAYERS = {"serve.handle_us.miss", "serve.handle_us.hit"}

# The traffic each workload of BENCHMARK.json sends: "miss" (a nonce in
# every request) or "hot" (a fixed working set). Names, units, directions
# and descriptions of workloads and metrics live in BENCHMARK.json only.
WORKLOADS = {"serve_miss": "miss", "serve_hot": "hot"}

# perfbench_ref repetitions (about 30 ms each) per host-speed sample, and
# the CPU time per repetition that pipeline_ref_s is expressed at: the
# reference's median on the development VM (4 vCPUs, g++ 12) in a quiet
# stretch.
REF_REPS = 3
REF_NOMINAL_S = 0.030

# Every run times the offline chain this many times and reports medians.
# Single chains of one run spread 0.21-0.24 over ten seeds on the
# development VM, medians of three 0.10-0.18.
CHAIN_REPS = 4


class HarnessError(RuntimeError):
    pass


def span_seconds(trace, name):
    """Summed duration of every span called `name`, in seconds."""
    return sum(span["dur_us"] for span in trace["spans"] if span["name"] == name) / 1e6


def root_coverage_seconds(trace):
    """Wall time covered by the union of root spans, in seconds."""
    intervals = sorted((s["start_us"], s["start_us"] + s["dur_us"])
                       for s in trace["spans"] if s["parent"] == -1)
    covered, end = 0.0, float("-inf")
    for start, stop in intervals:
        if stop <= end:
            continue
        covered += stop - max(start, end)
        end = stop
    return covered / 1e6


class BenchRun:
    def __init__(self, root, binaries, workload_name, seed, seconds, trace):
        self.root = root
        self.bin = binaries
        self.name = workload_name
        self.traffic = WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(root, ".bench_build", "runs",
                                 "%s-s%d-p%d" % (workload_name, seed, os.getpid()))
        self.children = procs.Children(binaries["launch"])
        self.attempted = 0
        self.failed = 0
        self.errors = {}
        self.checks = []
        self.values = {}
        self.layers = {}
        self.host_samples = []

    # -- bookkeeping -------------------------------------------------------

    def op(self, ok, error=None, count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            self.errors[error] = self.errors.get(error, 0) + count

    def check(self, name, passed, detail):
        self.checks.append((name, bool(passed), detail))

    def path(self, name):
        return os.path.join(self.work, name)

    def mbctl(self, args, tag, trace_out=None):
        argv = [self.bin["mbctl"]] + args
        if trace_out:
            argv += ["--trace-out", trace_out]
        result = self.children.run(argv, self.work, self.path(tag + ".log"))
        self.op(result["code"] == 0, "mbctl %s exit %d" % (args[0], result["code"]))
        if result["code"] != 0:
            raise HarnessError("mbctl %s failed:\n%s" % (" ".join(args), result["output"][-2000:]))
        return result

    def query(self, port, request):
        try:
            line = scrape.query(port, request)
        except OSError as error:
            self.op(False, "%s: %s" % (request["type"], error))
            raise HarnessError("%s query failed: %s" % (request["type"], error))
        self.op('"ok":true' in line, "%s not ok" % request["type"])
        return line

    # -- the run -----------------------------------------------------------

    def execute(self):
        os.makedirs(self.work, exist_ok=True)
        steal_start = procs.read_steal_ticks()
        start = time.perf_counter()
        try:
            self.make_inputs()
            self.run_chains()
            self.serve()
            self.verify()
            if self.trace:
                self.measure_layers()
        finally:
            self.children.stop_all()
        wall = time.perf_counter() - start
        steal = procs.read_steal_ticks() - steal_start
        self.values["host.steal_frac"] = steal / (
            wall * os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1))
        if self.host_samples:
            self.values["host.ref_ms"] = median(self.host_samples) * 1e3
        self.values["ok_frac"] = 1.0 - self.failed / self.attempted
        self.check("every operation ok", self.failed == 0,
                   "%d of %d failed %s" % (self.failed, self.attempted, self.errors or ""))

    def make_inputs(self):
        heldout = self.path("heldout.tsv")
        self.mbctl(["generate", "--out", heldout, "--adgroups", str(HELDOUT_ADGROUPS),
                    "--seed", str(self.seed + 1_000_003)], "generate_heldout")
        groups = inputs.read_corpus(heldout)
        if self.traffic == "hot":
            lines = inputs.hot_requests(groups, self.seed, HOT_WORKING_SET)
        else:
            lines = inputs.miss_requests(groups, self.seed)
        inputs.write_lines(self.path("requests.txt"), lines)
        self.request_count = len(lines)

        trace_out = self.path("trace_generate.json") if self.trace else None
        self.mbctl(["generate", "--out", self.path("train.tsv"), "--adgroups",
                    str(TRAIN_ADGROUPS), "--seed", str(self.seed)], "generate", trace_out)
        if self.trace:
            with open(self.path("trace_generate.json")) as trace:
                self.values["corpus.generate_s"] = span_seconds(json.load(trace),
                                                                "mb.corpus.generate")

    def sample_host(self):
        """CPU seconds per repetition of perfbench_ref's work, now, on the
        CPUs the harness is pinned to."""
        result = self.children.run([self.bin["ref"], str(REF_REPS)], self.work,
                                   self.path("ref.log"))
        self.op(result["code"] == 0, "perfbench_ref exit %d" % result["code"])
        if result["code"] != 0:
            raise HarnessError("perfbench_ref failed:\n" + result["output"][-2000:])
        seconds = float(result["output"].split()[0])
        self.host_samples.append(seconds)
        return seconds

    @staticmethod
    def host_factor(samples):
        """REF_NOMINAL_S over the median of perfbench_ref `samples`. A time
        multiplied by it reads as it would on a vCPU that runs the
        reference work at REF_NOMINAL_S. The speed of one vCPU of the
        development VM swings by a fifth within minutes; the reference,
        timed on the same vCPU between the stages, swings with it."""
        return REF_NOMINAL_S / median(samples)

    def run_chain(self, traced):
        """stats -> train -> evaluate -> pack, with a host-speed sample
        before each of the first three stages and after the last; returns
        per-stage walls/RSS, the chain's host factor and, when traced, the
        span times of this chain."""
        corpus = self.path("train.tsv")
        trace = (lambda stage: self.path("trace_%s.json" % stage)) if traced else (
            lambda stage: None)
        host = [self.sample_host()]
        stats = self.mbctl(["stats", "--corpus", corpus, "--out", self.path("stats.tsv")],
                           "stats", trace("stats"))
        host.append(self.sample_host())
        train = self.mbctl(["train", "--corpus", corpus, "--out", self.path("model.txt"),
                            "--model", "M6"], "train", trace("train"))
        host.append(self.sample_host())
        evaluate = self.mbctl(["evaluate", "--corpus", corpus, "--model", "M6", "--folds", "3"],
                              "evaluate", trace("evaluate"))
        pack_stats = self.mbctl(["pack", "--stats", self.path("stats.tsv"),
                                 "--out", self.path("stats.mbp")], "pack_stats")
        pack_model = self.mbctl(["pack", "--model", self.path("model.txt"),
                                 "--out", self.path("model.mbp")], "pack_model")
        host.append(self.sample_host())
        found = re.search(r"\bF=([0-9.]+)", evaluate["output"])
        if not found:
            raise HarnessError("evaluate printed no F:\n" + evaluate["output"][-2000:])
        stages = {
            "stats": (stats["wall_s"], stats["rss_mb"]),
            "train": (train["wall_s"], train["rss_mb"]),
            "evaluate": (evaluate["wall_s"], evaluate["rss_mb"]),
            "pack": (pack_stats["wall_s"] + pack_model["wall_s"],
                     max(pack_stats["rss_mb"], pack_model["rss_mb"])),
        }
        spans = {}
        if traced:
            traces = {}
            for stage in ("stats", "train", "evaluate"):
                with open(trace(stage)) as trace_file:
                    traces[stage] = json.load(trace_file)
            spans = {
                "microbrowse.stats_build_s": span_seconds(traces["stats"], "mb.stats.build"),
                "ml.train_s": span_seconds(traces["train"], "mb.train.lr"),
                "microbrowse.cv_s": span_seconds(traces["evaluate"], "mb.cv.run"),
                "trace.untraced_frac":
                    1.0 - root_coverage_seconds(traces["evaluate"]) / evaluate["wall_s"],
            }
        return {
            "stages": stages,
            "total_s": sum(wall for wall, _ in stages.values()),
            "host_factor": self.host_factor(host),
            "peak_rss_mb": max(rss for _, rss in stages.values()),
            "f": float(found.group(1)),
            "spans": spans,
        }

    def run_chains(self):
        # One vCPU for every chain: the reference samples the vCPU the
        # stages run on (see host_factor()).
        with procs.pinned({max(os.sched_getaffinity(0))}):
            # A traced run first runs one untraced chain, so the tracing
            # overhead of the chain shows within the run.
            untraced = self.run_chain(traced=False) if self.trace else None
            chains = [self.run_chain(traced=self.trace) for _ in range(CHAIN_REPS)]
        self.values["pipeline_s"] = median([c["total_s"] for c in chains])
        self.values["pipeline_ref_s"] = median([c["total_s"] * c["host_factor"]
                                                for c in chains])
        self.values["peak_rss_mb"] = median([c["peak_rss_mb"] for c in chains])
        f_values = [c["f"] for c in chains] + ([untraced["f"]] if untraced else [])
        self.values["f_measure"] = f_values[0]
        self.check("f_measure in band", F_BAND[0] <= f_values[0] <= F_BAND[1],
                   "F=%.3f, band %s" % (f_values[0], F_BAND))
        self.check("f_measure repeats exactly", len(set(f_values)) == 1,
                   "F over %d chains: %s" % (len(f_values), f_values))
        self.chain_reps = len(chains)
        if not self.trace:
            return
        for stage in ("stats", "train", "evaluate", "pack"):
            self.values["stage.%s_s" % stage] = median([c["stages"][stage][0] for c in chains])
            self.values["stage.%s_rss_mb" % stage] = median(
                [c["stages"][stage][1] for c in chains])
        self.values["trace.overhead_frac"] = self.values["pipeline_s"] / untraced["total_s"] - 1
        for name in chains[0]["spans"]:
            self.values[name] = median([c["spans"][name] for c in chains])

    # -- serving -------------------------------------------------------------

    def time_setup(self, once):
        """Median of SETUP_REPEATS calls of `once`, which returns the seconds
        one set-up took. The harness and every process it starts meanwhile
        run on one CPU: a set-up of 5-20 ms is otherwise dominated by
        cross-CPU wakeups, whose latency on a VM follows the host."""
        with procs.pinned({max(os.sched_getaffinity(0))}):
            return median([once() for _ in range(SETUP_REPEATS)])

    def spawn_server(self):
        """Starts mbserved on the mbpack bundle; returns (proc, port, seconds
        from spawn to the first ok response)."""
        start = time.perf_counter()
        log = open(self.path("mbserved.log"), "ab")
        try:
            proc = self.children.spawn(
                [self.bin["mbserved"], "--model", self.path("model.mbp"),
                 "--stats", self.path("stats.mbp"), "--model-type", "M6", "--port", "0",
                 "--threads", str(SERVER_THREADS), "--cache-capacity", str(CACHE_CAPACITY)],
                cwd=self.work, stdout=procs.subprocess.PIPE, stderr=log)
        finally:
            log.close()
        line = procs.read_line(proc.stdout, 30.0)
        found = re.search(r"port (\d+)", line or "")
        if not found:
            self.op(False, "mbserved did not start")
            raise HarnessError("mbserved did not start: %r" % line)
        port = int(found.group(1))
        self.query(port, {"type": "ping"})
        return proc, port, time.perf_counter() - start

    def client(self, tag, port, shape, warmup_s, seconds, **extra):
        connections, depth = shape
        argv = [self.bin["client"], "--port", str(port), "--requests", self.path("requests.txt"),
                "--connections", str(connections), "--depth", str(depth),
                "--warmup-seconds", str(warmup_s), "--seconds", str(seconds)]
        for key, value in extra.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        result = self.children.run(argv, self.work, self.path("client_%s.log" % tag),
                                   timeout=seconds + warmup_s + 120)
        if result["code"] != 0:
            self.op(False, "client exit %d" % result["code"])
            raise HarnessError("client %s failed:\n%s" % (tag, result["output"][-2000:]))
        report = json.loads(result["output"].strip().splitlines()[-1])
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        for error, count in report["errors"].items():
            self.errors[error] = self.errors.get(error, 0) + count
        self.check("%s closed-loop accounting" % tag,
                   report["attempted"] == report["ok"] + report["failed"],
                   "sent %d, ok %d, failed %d" % (report["attempted"], report["ok"],
                                                 report["failed"]))
        return report

    def start_server_once(self):
        proc, _, seconds = self.spawn_server()
        self.children.stop(proc)
        return seconds

    def serve(self):
        self.values["setup_s"] = self.time_setup(self.start_server_once)
        proc, port, _ = self.spawn_server()

        # The full phase, whose window gives cpu_us_per_req, takes four
        # fifths of --seconds and the light phase the rest: over ten seeds,
        # 1.5 s full windows spread cpu_us_per_req 0.21 and 5 s windows
        # 0.06-0.14.
        light_s, full_s = 0.2 * self.seconds, 0.8 * self.seconds
        hot = self.traffic == "hot"
        # Warm-up at full load: fills the hot working set (every request
        # seen at least twice) or brings the miss path to steady state.
        self.client("warm", port, FULL, 0.5 if hot else 1.0, 0.2,
                    warmup_requests=2 * self.request_count if hot else 0)
        light = self.client("light", port, LIGHT, 0.3, light_s, nonce_base=1 << 32,
                            sample_out=self.path("samples.tsv"), sample_every=SAMPLE_EVERY)
        statsz_before = scrape.parse_statsz(self.query(port, {"type": "statsz"}))
        metrics_before = scrape.parse_metricsz(self.query(port, {"type": "metricsz"}))
        full = self.client("full", port, FULL, 0.5, full_s, server_pid=proc.pid,
                           nonce_base=2 << 32)
        statsz_after = scrape.parse_statsz(self.query(port, {"type": "statsz"}))
        metrics_after = scrape.parse_metricsz(self.query(port, {"type": "metricsz"}))
        self.children.stop(proc)

        self.light, self.full = light, full
        self.values["pair_p50_ms"] = light["endpoints"]["score_pair"]["p50_ms"]
        self.values["point_p50_ms"] = light["endpoints"]["predict_ctr"]["p50_ms"]
        self.values["cpu_us_per_req"] = full["server_cpu_s"] / full["window_completed"] * 1e6
        self.values["server_rss_mb"] = full["server_rss_mb"]

        hits_before, misses_before = scrape.cache_counts(statsz_before)
        hits_after, misses_after = scrape.cache_counts(statsz_after)
        full_hits = hits_after - hits_before
        full_lookups = full_hits + misses_after - misses_before
        hit_ratio = ratio(full_hits, full_lookups)
        self.values["serve.cache_hit_ratio"] = hit_ratio
        if hot:
            self.check("serve_hot hits the cache", hit_ratio is not None and hit_ratio >= 0.99,
                       "full-phase hit ratio %s" % hit_ratio)
            self.check("client not saturated", full["client_busy_frac"] < CLIENT_BUSY_LIMIT,
                       "client busy %.3f of the full window" % full["client_busy_frac"])
        else:
            self.check("miss traffic never hits the cache", hits_after == 0,
                       "%d cache hits over the server's life" % hits_after)

        for endpoint in ("score_pair", "predict_ctr"):
            service_us = scrape.endpoint_p50_us(statsz_before, endpoint)
            self.values["serve.service_p50_us." + endpoint] = service_us
            self.values["serve.transport_us." + endpoint] = (
                light["endpoints"][endpoint]["p50_ms"] * 1e3 - service_us)
        self.values["serve.batch_size_mean"] = scrape.summary_mean_delta(
            metrics_before, metrics_after, "mb_serve_batch_size")
        served = scrape.scoring_requests(statsz_after) - scrape.scoring_requests(statsz_before)
        self.values["serve.steals_per_kreq"] = 1e3 * ratio(
            scrape.delta(metrics_before, metrics_after, "mb_serve_steal_count"), served)
        self.values["serve.refused"] = scrape.refused(statsz_after)
        self.values["client.rps"] = full["rps"]
        self.values["client.p90_ms"] = full["all"]["p90_ms"]
        self.values["client.p99_ms"] = full["all"]["p99_ms"]
        self.values["client.busy_frac"] = full["client_busy_frac"]

    # -- checks against in-process scoring, and the layers -----------------

    def layers_tool(self, args, tag):
        result = self.children.run([self.bin["layers"]] + args, self.work,
                                   self.path(tag + ".log"))
        self.op(result["code"] == 0, "perfbench_layers %s exit %d" % (args[0], result["code"]))
        if result["code"] != 0:
            raise HarnessError("perfbench_layers %s failed:\n%s" % (args[0],
                                                                   result["output"][-2000:]))
        return json.loads(result["output"].strip().splitlines()[-1])

    def verify(self):
        report = self.layers_tool(["verify", "--model", self.path("model.mbp"),
                                   "--stats", self.path("stats.mbp"),
                                   "--samples", self.path("samples.tsv")], "verify")
        self.check("served scores equal in-process scores bit for bit",
                   report["checked"] >= 10 and report["mismatches"] == 0,
                   "%d sampled, %d differ %s" % (report["checked"], report["mismatches"],
                                                 report["first_mismatch"][:300]))

    def measure_layers(self):
        report = self.layers_tool(
            ["layers", "--model", self.path("model.mbp"), "--stats", self.path("stats.mbp"),
             "--requests", self.path("requests.txt"), "--corpus", self.path("train.tsv"),
             "--trained-model", self.path("model.txt"),
             "--trained-stats", self.path("stats.tsv"), "--scratch", self.work], "layers")
        for name, entry in report.items():
            if isinstance(entry, dict):
                self.layers[name] = entry
                self.values[name] = entry["mean" if name in MEAN_LAYERS else "median"]
            elif name.startswith("serve."):
                self.values[name] = entry
        self.check("in-process replay hits on the second pass",
                   report["inprocess_hits"] * 2 == report["inprocess_requests"],
                   "%d hits of %d requests" % (report["inprocess_hits"],
                                               report["inprocess_requests"]))

    # -- reporting -----------------------------------------------------------

    def metrics(self, spec):
        """The metric set of this run's mode, as BENCHMARK.json (`spec`)
        declares it: {name: {"value", "unit"}}. A traced run reports its own
        end-to-end figures as traced.<name>."""
        declared = spec["per_layer"] if self.trace else spec["end_to_end"]
        return {m["name"]: {"value": self.values.get(m["name"].removeprefix("traced.")),
                            "unit": m["unit"]} for m in declared}

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)
