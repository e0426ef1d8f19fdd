#!/usr/bin/env python3
"""Benchmark of the Paragraph reproduction: build the program from source,
run one named workload from a seed, check its answers, and print every
metric with its unit. See perfbench/README.md.

    python3 perfbench/run.py --workload served-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

Run it from the root of a checkout. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The full
result record (sample counts, ratio bases, checks, seed, host) is written
under .perfbench/results/.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import signal
import socket
import stat
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.basename(os.path.dirname(os.path.abspath(__file__)))
WORK = ".perfbench"  # run directories and result files, inside the checkout
EXE = os.path.join("_build", "default", BENCH_DIR, "ddgbench.exe")
PARAGRAPH = os.path.join("_build", "default", "bin", "paragraph.exe")
NPROC = os.cpu_count() or 1
WORKERS = min(2, NPROC)  # suite-batch job workers: at most nproc domains
# Served runs are PHASES fresh daemons or fleets, each set up and then
# loaded for --seconds / PHASES: pooling independent processes is steadier
# than one long phase on one of them. setup_s is the median of the set-ups.
PHASES = 3
SUITE_SETUPS = 6  # extra suite-batch process starts per run, besides passes
SWEEP_SAMPLE = 3  # served answers checked in process per untraced run
TRACE_BUDGET_MB = 128  # below the ~400 MB of resident traces: traces cycle
LAYER_TOLERANCE = 0.10  # traced layers may exceed the traced e2e by this share
RUN_LIMIT_S = 170  # after the build; the contract allows 180
SCHEMA = "perfbench-result/1"
MIN_RUNS = 5  # compare: fewer runs on a side give no spread to judge by


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The run could not measure: no result is printed."""


# --- statistics ----------------------------------------------------------------


def rank_index(n, q):
    """0-based nearest-rank index of quantile q among n sorted samples."""
    return min(n - 1, max(0, math.ceil(q * n) - 1))


def quantile(values, q):
    s = sorted(values)
    return s[rank_index(len(s), q)]


def median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


BOUNDARY_MARGIN = 0.05  # share of samples between a rank and a class edge
BOUNDARY_STEP = 0.10  # latency step between neighbouring classes that matters


def class_summary(latencies, classes, class_names):
    by = {}
    for lat, c in zip(latencies, classes):
        by.setdefault(class_names[c], []).append(lat)
    return {name: {"n": len(v), "median_ms": median(v)} for name, v in by.items()}


def placement(latencies, classes, class_names, q):
    """Which request class sits at the q rank and how many samples lie
    beyond it. Classes ordered by median latency each cover a band of
    ranks as wide as their share of samples; a rank within BOUNDARY_MARGIN
    of a band edge, where the neighbouring class's median differs by more
    than BOUNDARY_STEP, sits on a class boundary: its value swings with
    the mix."""
    n = len(latencies)
    order = sorted(range(n), key=lambda i: latencies[i])
    r = rank_index(n, q)
    summary = class_summary(latencies, classes, class_names)
    bands = sorted(summary.items(), key=lambda kv: kv[1]["median_ms"])
    edge, margin, step = 0.0, 1.0, 0.0
    for i, (name, s) in enumerate(bands):
        lo, edge = edge, edge + s["n"] / n
        if lo <= q <= edge or i == len(bands) - 1:
            near = i - 1 if q - lo < edge - q else i + 1
            margin = min(q - lo, edge - q)
            if 0 <= near < len(bands):
                step = abs(bands[near][1]["median_ms"] / s["median_ms"] - 1)
            break
    return {
        "quantile": q,
        "class": class_names[classes[order[r]]],
        "beyond": n - r - 1,
        "margin": margin,
        "step": step,
        "on_boundary": margin < BOUNDARY_MARGIN and step > BOUNDARY_STEP,
    }


# --- results -------------------------------------------------------------------


class Metrics:
    """Metrics of one run; a name can be set once, every value carries its
    unit and sample count, every ratio its numerator and denominator."""

    def __init__(self):
        self.items = {}

    def add(self, name, value, unit, n, num=None, den=None):
        if name in self.items:
            raise BenchError(f"metric {name} set twice")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise BenchError(f"metric {name}: not a number: {value!r}")
        if not math.isfinite(value):
            raise BenchError(f"metric {name}: not finite")
        entry = {"value": value, "unit": unit, "n": int(n)}
        if unit == "ratio":
            if num is None or den is None:
                raise BenchError(f"ratio {name} lacks its numerator/denominator")
            entry["num"], entry["den"] = num, den
        self.items[name] = entry

    def ratio(self, name, num, den, n):
        self.add(name, num / den if den else 0.0, "ratio", n, num, den)


def no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError(f"duplicate keys {sorted(dup)}")
    return dict(pairs)


def validate_record(rec):
    for key in ("schema", "workload", "seed", "seconds", "trace", "host",
                "correct", "attempted", "failed", "checks", "metrics"):
        if key not in rec:
            raise BenchError(f"result record lacks {key}")
    for key in ("hostname", "nproc", "platform"):
        if key not in rec["host"]:
            raise BenchError(f"result record host lacks {key}")
    for name, m in rec["metrics"].items():
        if not {"value", "unit", "n"} <= m.keys() or not m["unit"]:
            raise BenchError(f"metric {name} lacks value, unit or n")
        if m["unit"] == "ratio" and not {"num", "den"} <= m.keys():
            raise BenchError(f"ratio {name} lacks num/den")
        if not math.isfinite(m["value"]):
            raise BenchError(f"metric {name} is not finite")
    if rec["attempted"] < 1 or rec["failed"] < 0:
        raise BenchError("attempted must be >= 1 and failed >= 0")


def write_record(rec):
    """Validate, write, and read back (rejecting duplicate keys)."""
    validate_record(rec)
    out = os.path.join(WORK, "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(
        out, f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json")
    text = json.dumps(rec, indent=1, sort_keys=True)
    with open(path + ".tmp", "w") as f:
        f.write(text)
    os.replace(path + ".tmp", path)
    with open(path) as f:
        validate_record(json.load(f, object_pairs_hook=no_duplicate_keys))
    return path


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f, object_pairs_hook=no_duplicate_keys)


def host_info():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"hostname": socket.gethostname(), "nproc": NPROC,
            "platform": platform.platform(), "cpu": cpu,
            "python": platform.python_version()}


# --- build ---------------------------------------------------------------------


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        raise BenchError("run from the root of a checkout: no dune-project, "
                         "lib/ or bin/ here")
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune is not on PATH")
    # the shared dune cache lives outside the checkout; keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        [dune, "build", "--root", ".", "./bin/paragraph.exe",
         f"./{BENCH_DIR}/ddgbench.exe"],
        stdin=subprocess.DEVNULL, stdout=sys.stderr, stderr=sys.stderr,
        env=env, timeout=880)
    if r.returncode != 0:
        raise BenchError("build failed")


# --- child processes -----------------------------------------------------------


def group_pids(pgid):
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def vmhwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reap():
    """Collect every exited child, including orphans reparented to us."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


class Children:
    """Every process a run starts leads its own process group inside the
    run directory; stopping one stops and reaps its whole group."""

    def __init__(self, rundir):
        self.rundir = rundir
        self.groups = []
        self.killed = []
        try:  # orphaned grandchildren (a fleet's backends) come back to us
            ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
        except (OSError, AttributeError):
            pass

    def _popen(self, name, argv, stdout):
        log_f = open(os.path.join(self.rundir, name + ".log"), "ab")
        try:
            p = subprocess.Popen(argv, cwd=self.rundir, stdin=subprocess.DEVNULL,
                                 stdout=stdout if stdout else log_f,
                                 stderr=log_f, start_new_session=True)
        finally:
            log_f.close()
        self.groups.append(p)
        return p

    def start(self, name, argv):
        """A long-lived child (daemon, fleet)."""
        return self._popen(name, argv, None)

    def open(self, name, argv):
        """A child whose JSON lines are read as they come."""
        return self._popen(name, argv, subprocess.PIPE)

    def run(self, name, argv, timeout=150):
        """A bench step: wait for it and return its JSON lines."""
        p = self._popen(name, argv, subprocess.PIPE)
        try:
            out, _ = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop(p)
            raise BenchError(f"{name} did not finish in {timeout}s")
        if p.returncode != 0:
            raise BenchError(f"{name} exited {p.returncode}; see its log: "
                             + self.tail(name))
        return [json.loads(line) for line in out.decode().splitlines()
                if line.strip()]

    def tail(self, name):
        try:
            with open(os.path.join(self.rundir, name + ".log"), "rb") as f:
                return f.read()[-600:].decode(errors="replace")
        except OSError:
            return ""

    def rss_kb(self, p):
        return sum(vmhwm_kb(pid) for pid in group_pids(p.pid))

    def stop(self, p, grace=20.0):
        """SIGTERM the group leader (daemons drain and exit), then SIGKILL
        whatever of its group is left, and reap."""
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
            try:
                p.wait(grace)
            except subprocess.TimeoutExpired:
                pass
        end = time.monotonic() + grace
        while group_pids(p.pid) and time.monotonic() < end:
            reap()
            time.sleep(0.05)
        if group_pids(p.pid):
            self.killed.append(p.args[1] if len(p.args) > 1 else p.args[0])
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        end = time.monotonic() + 10
        while group_pids(p.pid) and time.monotonic() < end:
            reap()
            time.sleep(0.05)
        try:
            p.wait(1)
        except subprocess.TimeoutExpired:
            pass
        reap()

    def stop_all(self):
        for p in reversed(self.groups):
            self.stop(p)

    def leftovers(self):
        return [pid for p in self.groups for pid in group_pids(p.pid)]


def sockets_in(path):
    found = []
    for root, _, files in os.walk(path):
        for f in files:
            try:
                if stat.S_ISSOCK(os.lstat(os.path.join(root, f)).st_mode):
                    found.append(f)
            except OSError:
                pass
    return found


# --- workloads -----------------------------------------------------------------


class Run:
    def __init__(self, args, children):
        self.args = args
        self.children = children
        self.exe = os.path.abspath(EXE)
        self.paragraph = os.path.abspath(PARAGRAPH)
        self.metrics = Metrics()
        self.checks = []
        self.detail = {}
        self.attempted = 0
        self.failed = 0
        self.results_dir = os.path.abspath(os.path.join(WORK, "results"))
        os.makedirs(self.results_dir, exist_ok=True)

    def check(self, name, ok, detail=""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            log(f"CHECK FAILED: {name}: {detail}")

    def spans_arg(self):
        if not self.args.trace:
            return []
        path = os.path.join(self.results_dir,
                            f"{self.args.workload}-seed{self.args.seed}-spans.jsonl")
        return ["--spans", path]

    def traced_args(self, last):
        return ["--trace"] + self.spans_arg() if self.args.trace and last else []

    def layer_sum(self, e2e_ms, layers_ms, what):
        """unattributed = e2e - sum(layers); the layers may not exceed the
        traced e2e by more than LAYER_TOLERANCE of it."""
        un = e2e_ms - sum(layers_ms.values())
        self.metrics.add("unattributed_ms", un, "ms", 1)
        self.detail["layer_sum"] = {
            "what": what, "e2e_ms": e2e_ms, "layers_ms": layers_ms,
            "unattributed_ms": un, "tolerance": LAYER_TOLERANCE}
        self.check("layers sum to the traced e2e", un >= -LAYER_TOLERANCE * e2e_ms,
                   f"unattributed {un:.3f} ms of {e2e_ms:.3f} ms")

    def runner_counts(self, sims, analyses, evictions, stats_hits, stats_lookups,
                      trace_hits, trace_lookups, n):
        m = self.metrics
        m.add("runner.simulations", sims, "count", n)
        m.add("runner.analyses", analyses, "count", n)
        m.add("runner.trace_evictions", evictions, "count", n)
        m.ratio("runner.stats_mem_hit_ratio", stats_hits, stats_lookups, n)
        m.ratio("runner.trace_mem_hit_ratio", trace_hits, trace_lookups, n)

    # -- suite-batch: cold Runner.prefetch of the renaming sweep ---------------

    def suite_process(self, store, setup_only=False):
        argv = [self.exe, "suite", "--store", store, "--workers", str(WORKERS),
                "--seed", str(self.args.seed)]
        if setup_only:
            argv.append("--setup-only")
        t0 = time.perf_counter()
        p = self.children.open("suite", argv)
        first = p.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = p.communicate(timeout=150)
        self.children.stop(p)
        if p.returncode != 0 or not first:
            raise BenchError("suite pass failed: " + self.children.tail("suite"))
        lines = [json.loads(x) for x in rest.decode().splitlines() if x.strip()]
        shutil.rmtree(os.path.join(self.children.rundir, store),
                      ignore_errors=True)
        return setup, (lines[-1] if lines else None)

    def suite_batch(self):
        setups = [self.suite_process(f"setup{i}", True)[0]
                  for i in range(SUITE_SETUPS)]
        passes = []
        start = time.monotonic()
        while (not passes or time.monotonic() - start < self.args.seconds
               or len(passes) < 2) and len(passes) < 20:
            if self.args.trace and passes:
                break  # the traced run measures one pass, then replays it
            setup, p = self.suite_process(f"pass{len(passes)}")
            setups.append(setup)
            passes.append(p)
        jobs = passes[0]["jobs"]
        self.attempted = jobs * len(passes)
        for i, p in enumerate(passes):
            self.check(f"pass {i} checks", not p["problems"], "; ".join(p["problems"]))
        self.check("passes agree", len({p["digest"] for p in passes}) == 1,
                   "stats digests differ between passes")
        times = [p["pass_s"] for p in passes]
        self.detail["pass_s"] = times
        self.detail["setup_samples_s"] = setups
        m = self.metrics
        if not self.args.trace:
            m.add("setup_s", median(setups), "s", len(setups))
            m.add("throughput_rps", jobs / median(times), "1/s", len(times))
            m.add("latency_p50_ms", median(times) * 1000, "ms", len(times))
            m.add("latency_p90_ms", quantile(times, 0.9) * 1000, "ms", len(times))
            m.add("peak_rss_mb", median([p["vmhwm_kb"] for p in passes]) / 1024,
                  "MB", len(passes))
            return
        out = self.children.run(
            "replay", [self.exe, "suite-replay", "--store", "replay",
                       "--workers", str(WORKERS)] + self.spans_arg())[-1]
        self.check("replay matches the pass", out["digest"] == passes[0]["digest"],
                   "replayed stats differ from Runner.prefetch's")
        p = passes[0]
        for name, v in out["layers"].items():
            unit = unit_of(name)
            if name in COMMON_LAYERS or name == "paragraph.fused_events_per_s":
                m.add(name, v, unit, 1)
        m.ratio("jobs.busy_ratio", out["busy_s"], out["worker_s"], 1)
        self.runner_counts(p["simulations"], p["analyses"], p["trace_evictions"],
                           p["stats_mem_hits"], p["stats_lookups"],
                           p["trace_mem_hits"], p["trace_lookups"], 1)
        self.detail["traced_e2e_s"] = out["wall_s"]
        self.detail["untraced_e2e_s"] = p["pass_s"]
        self.detail["tracing_overhead"] = out["wall_s"] / p["pass_s"] - 1
        # worker time = wall x workers: busy layers plus idle/engine time
        self.layer_sum(out["worker_s"] * 1000,
                       {"chain": out["layer_s"] * 1000}, "worker-time of the replay")

    # -- served-sweep: never-repeating Analyze requests against one daemon ----

    def start_daemon(self, i):
        sock, store = f"d{i}.sock", f"store{i}"
        p = self.children.start(f"serve{i}", [
            self.paragraph, "serve", "--socket", sock, "--cache-dir", store,
            "--size", "default", "-j", "1", "--trace-budget", str(TRACE_BUDGET_MB)])
        t0 = time.perf_counter()
        self.children.run(f"warm{i}", [self.exe, "warm", "--socket", sock])
        return p, sock, time.perf_counter() - t0

    def phases(self, start, timed):
        """PHASES times: set up a fresh daemon or fleet, run a timed phase
        on it, read its peak RSS, stop it. Returns the phases' outputs and
        the median peak RSS in MB."""
        setups, outs, rss = [], [], []
        for i in range(PHASES):
            p, sock, t = start(i)
            setups.append(t)
            outs.append(timed(i, sock, i == PHASES - 1))
            rss.append(self.children.rss_kb(p) / 1024)
            self.children.stop(p)
        self.detail["setup_samples_s"] = setups
        self.detail["phase_rss_mb"] = rss
        if not self.args.trace:
            self.metrics.add("setup_s", median(setups), "s", len(setups))
        return outs, median(rss)

    def served_sweep(self):
        def timed(i, sock, last):
            return self.children.run(f"sweep{i}", [
                self.exe, "sweep", "--socket", sock, "--seed", str(self.args.seed),
                "--phase", str(i), "--seconds", str(self.args.seconds / PHASES),
                "--sample", str(SWEEP_SAMPLE if last else 0),
                "--store", f"reference{i}"] + self.traced_args(last))[-1]

        outs, rss = self.phases(self.start_daemon, timed)
        self.served_common(pool(outs), rss, expect_analyses=True)
        if self.args.trace:
            # the layers are the last phase's, replayed request by request
            m, out = self.metrics, outs[-1]
            layers, c = out["layers"], out["counts"]
            for name in COMMON_LAYERS + SWEEP_LAYERS:
                if name in layers:
                    m.add(name, layers[name], unit_of(name), out["checked"])
            # share of requests that re-mapped the trace from the store
            reload = c["trace_store_hits"] / max(1, c["analyses"])
            self.layer_sum(
                sum(out["latencies_ms"]) / len(out["latencies_ms"]),
                {"store.find_view": reload * layers["store.find_view_ms"],
                 "trace_io.map_validate": reload * layers["trace_io.map_validate_ms"],
                 "paragraph.analyze": layers["paragraph.analyze_ms"],
                 "stats_codec.encode": layers["stats_codec.encode_ms"],
                 "store.stats_put": layers["store.stats_put_ms"],
                 "stats_codec.decode": layers["stats_codec.decode_ms"]},
                "mean served latency of the replayed phase")

    def served_common(self, out, rss_mb, expect_analyses):
        lat = out["latencies_ms"]
        c = out["counts"]
        self.attempted = out["attempted"]
        self.failed = out["attempted"] - len(lat)
        self.detail["errors"] = out["errors"]
        self.detail["counts"] = c
        self.check("answers match in-process analysis", not out["mismatches"],
                   f"{len(out['mismatches'])} of {out['checked']} differ")
        self.check("answers were checked", out["checked"] > 0)
        self.check("no wrong answers", out.get("wrong", 0) == 0,
                   f"{out.get('wrong', 0)} answers differ from the reference")
        self.check("no simulations in the timed phase", c["simulations"] == 0,
                   f"{c['simulations']} simulations")
        want = len(lat) if expect_analyses else 0
        self.check("analyses in the timed phase", c["analyses"] == want,
                   f"{c['analyses']} analyses for {len(lat)} answers, expected {want}")
        if not lat:
            raise BenchError("no request completed")
        classes, names = out["classes"], out["class_names"]
        self.detail["classes"] = class_summary(lat, classes, names)
        self.detail["placement"] = [
            placement(lat, classes, names, q) for q in (0.5, 0.9)]
        e2e = {"throughput_rps": len(lat) / out["elapsed_s"],
               "latency_p50_ms": quantile(lat, 0.5),
               "latency_p90_ms": quantile(lat, 0.9), "peak_rss_mb": rss_mb}
        if not self.args.trace:
            for name, v in e2e.items():
                self.metrics.add(name, v, unit_of(name),
                                 PHASES if name == "peak_rss_mb" else len(lat))
        else:
            # the traced run's own e2e; its served path is not traced, so
            # against the untraced run of the same seed it differs by noise
            self.detail["traced_run_e2e"] = e2e
            self.runner_counts(c["simulations"], c["analyses"], c["trace_evictions"],
                               c["stats_mem_hits"], len(lat), c["trace_mem_hits"],
                               c["trace_mem_hits"] + c["trace_store_hits"]
                               + c["simulations"], len(lat))

    # -- routed-hot: repeated Analyze over warm keys through the router -------

    def start_fleet(self, i):
        sock = f"r{i}.sock"
        p = self.children.start(f"cluster{i}", [
            self.paragraph, "cluster", "--nodes", "2", "--scrub-rate", "0",
            "--socket", sock, "--cache-dir", f"fleet{i}", "--size", "default",
            "-j", "1"])
        t0 = time.perf_counter()
        self.children.run(f"hot-warm{i}", [
            self.exe, "hot-warm", "--socket", sock, "--answers", f"answers{i}.bin"])
        return p, sock, time.perf_counter() - t0

    def routed_hot(self):
        def timed(i, sock, last):
            return self.children.run(f"hot{i}", [
                self.exe, "hot", "--socket", sock, "--seed", str(self.args.seed),
                "--phase", str(i), "--seconds", str(self.args.seconds / PHASES),
                "--answers", f"answers{i}.bin",
                "--store", f"reference{i}"]
                + (["--check"] if last else []) + self.traced_args(last))[-1]

        outs, rss = self.phases(self.start_fleet, timed)
        answers = set()
        for i in range(PHASES):
            with open(os.path.join(self.children.rundir, f"answers{i}.bin"), "rb") as f:
                answers.add(f.read())
        self.check("every fleet gave the same set-up answers", len(answers) == 1)
        self.served_common(pool(outs), rss, expect_analyses=False)
        if self.args.trace:
            m, out = self.metrics, outs[-1]
            layers = out["layers"]
            for name in COMMON_LAYERS + HOT_LAYERS:
                if name in layers:
                    m.add(name, layers[name], unit_of(name), out["checked"])
            self.detail["routed_rtt_replay_ms"] = layers["routed_rtt_ms"]
            self.layer_sum(
                sum(out["latencies_ms"]) / len(out["latencies_ms"]),
                {"router.relay": layers["router.relay_ms"],
                 "server.overhead": layers["server.overhead_ms"],
                 "stats_codec.encode": layers["stats_codec.encode_ms"],
                 "stats_codec.decode": layers["stats_codec.decode_ms"]},
                "mean routed latency of the replayed phase, one client")


def pool(outs):
    """The timed phases of one run as one: samples and counts added up;
    layers and class names are the last phase's."""
    total = dict(outs[-1])
    for key in ("elapsed_s", "attempted", "checked", "wrong"):
        total[key] = sum(o.get(key, 0) for o in outs)
    for key in ("latencies_ms", "classes", "mismatches"):
        total[key] = [x for o in outs for x in o[key]]
    for key in ("counts", "errors"):
        total[key] = {}
        for o in outs:
            for k, v in o[key].items():
                total[key][k] = total[key].get(k, 0) + v
    return total


# Per-layer metrics every traced run reports (the set in the last line), then
# the ones only some workloads' paths have (in the result record only).
COMMON_LAYERS = [
    "minic.compile_ms", "sim.simulate_s", "sim.events_per_s", "store.trace_put_s",
    "store.trace_put_mb_per_s", "store.bytes_written_mb", "store.stats_put_ms",
    "paragraph.events_per_s", "stats_codec.encode_ms", "stats_codec.decode_ms",
    "stats_codec.bytes"]
SWEEP_LAYERS = [
    "store.find_view_ms", "trace_io.map_validate_ms", "paragraph.analyze_ms",
    "paragraph.single_events_per_s.window", "paragraph.single_events_per_s.fu",
    "paragraph.single_events_per_s.branch",
    "paragraph.single_events_per_s.renaming"]
HOT_LAYERS = SWEEP_LAYERS + [
    "server.direct_rtt_ms", "server.overhead_ms", "router.relay_ms"]


def unit_of(name):
    if name.endswith("_rps"):
        return "1/s"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if "_per_s" in name:
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


WORKLOADS = {
    "suite-batch": Run.suite_batch,
    "served-sweep": Run.served_sweep,
    "routed-hot": Run.routed_hot,
}


def measure(args):
    spec = load_spec()
    os.makedirs(WORK, exist_ok=True)
    build()
    signal.signal(signal.SIGALRM, lambda *_: (_ for _ in ()).throw(
        BenchError(f"run exceeded {RUN_LIMIT_S}s")))
    signal.alarm(RUN_LIMIT_S)
    rundir = tempfile.mkdtemp(prefix="run-", dir=os.path.abspath(WORK))
    children = Children(rundir)
    run = Run(args, children)
    try:
        WORKLOADS[args.workload](run)
    finally:
        signal.alarm(0)
        children.stop_all()
        reap()
        left = children.leftovers()
        socks = sockets_in(rundir)
        shutil.rmtree(rundir, ignore_errors=True)
    # a daemon or fleet that needed SIGKILL did not drain and exit on
    # SIGTERM; a socket file left behind was not unlinked on exit
    run.check("every child exited on SIGTERM", not children.killed,
              f"force-killed {children.killed}")
    run.check("no process left behind", not left, f"pids {left}")
    run.check("servers removed their sockets", not socks, f"left {socks}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    for d in declared:
        got = run.metrics.items.get(d["name"])
        if got is None or got["unit"] != d["unit"]:
            raise BenchError(f"metric {d['name']} missing or not in {d['unit']}")
    rec = {
        "schema": SCHEMA, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host_info(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "correct": all(c["ok"] for c in run.checks),
        "attempted": run.attempted, "failed": run.failed,
        "checks": run.checks, "metrics": run.metrics.items, "detail": run.detail,
    }
    path = write_record(rec)
    log(f"result record: {path}")
    for name, m in sorted(run.metrics.items.items()):
        log(f"  {name:40s} {m['value']:>16.6g} {m['unit']:6s} n={m['n']}")
    for pl in run.detail.get("placement", []):
        log(f"  p{int(pl['quantile'] * 100)} class {pl['class']} beyond={pl['beyond']}"
            f" margin={pl['margin']:.3f} step={pl['step']:.3f}"
            f" on_boundary={pl['on_boundary']}")
    final = {
        "correct": rec["correct"], "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {d["name"]: {"value": run.metrics.items[d["name"]]["value"],
                                "unit": d["unit"]} for d in declared},
    }
    print(json.dumps(final), flush=True)


# --- compare -------------------------------------------------------------------


def load_results(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json")] if os.path.isdir(path) else [path])
    groups = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh, object_pairs_hook=no_duplicate_keys)
        if rec.get("schema") != SCHEMA:
            continue
        for name, m in rec["metrics"].items():
            groups.setdefault((rec["workload"], rec["trace"], name), []).append(
                m["value"])
    return groups


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def verdict(a, b, bound, lower_better):
    """better / worse / within bound / unresolved for set b against set a."""
    ma, mb = median(a), median(b)
    change = (mb - ma) / ma if lower_better else (ma - mb) / ma  # >0: worse
    if min(len(a), len(b)) < MIN_RUNS:
        return "unresolved", change
    sign = 1 if lower_better else -1
    all_better = max(x * sign for x in b) < min(x * sign for x in a)
    all_worse = min(x * sign for x in b) > max(x * sign for x in a)
    if spread(a) > bound:
        return ("better" if all_better else "worse" if all_worse
                else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -max(spread(a), 1e-9) and all_better:
        return "better", change
    return "within bound", change


def compare(path_a, path_b):
    spec = load_spec()
    bounds = {d["name"]: d for d in spec["end_to_end"]}
    a, b = load_results(path_a), load_results(path_b)
    worse = False
    print(f"{'workload':14s} {'metric':34s} {'median A':>12s} {'median B':>12s}"
          f" {'change':>8s}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, trace, name = key
        if name in bounds and not trace:
            d = bounds[name]
            v, change = verdict(a[key], b[key], d["bound"], d["better"] == "lower")
            worse = worse or v == "worse"
        else:
            v, change = "no bound", (median(b[key]) - median(a[key])) / (
                median(a[key]) or 1)
        print(f"{workload:14s} {name:34s} {median(a[key]):12.6g} {median(b[key]):12.6g}"
              f" {change:+8.2%}  {v}")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two result sets (files or directories)")
    args = ap.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if not args.workload:
        ap.error("--workload is required")

    def terminate(signum, _frame):
        raise BenchError(f"signal {signum}")

    signal.signal(signal.SIGTERM, terminate)
    try:
        measure(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        log(f"benchmark failed: {e}")
        sys.exit(1)


if __name__ == "__main__":
    main()
