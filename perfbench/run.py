#!/usr/bin/env python3
"""The repo's benchmark: characterization sweeps and the serve store.

    python3 perfbench/run.py --workload sweep-full|sweep-sampled|serve-mix
                             --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
bds libraries plus the harness (perfbench/harness) into
.bench_build/perfbench; later runs only re-check the build. Every
repetition of a workload runs in a fresh process and a fresh
directory under .bench_build/perfbench-runs, and its peak RSS and CPU
time come from that process's wait4() rusage.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
ones. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Any failed output check makes
correct false and the exit code 1. perfbench/README.md says what each
workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_build" / "perfbench-runs"
BINARY = BUILD_DIR / "bds_perfbench"
REFS_DIR = HERE / "refs"

WORKLOADS = ("sweep-full", "sweep-sampled", "serve-mix")

# Inputs: --seed picks one of these data seeds, each with committed
# reference outputs in refs/. All runs are quick scale.
DATA_SEEDS = (42, 1, 2, 3)
SCALE = "quick"

SWEEP_THREADS = 2          # sweep worker threads
SERVE_COMPUTE_THREADS = 2  # sweep threads of one serve miss
SERVE_CLIENTS = 2          # closed-loop client threads
SERVE_PRESETS = ("default", "cores-2", "l3-4m")  # cell order in serve_mix.cc
ENTRY_OVERHEAD = 1000      # store entry bytes beyond the CSV (upper bound)

SETUP_PROBES = 15          # extra set-up-only processes per run
MIN_REPS = 2               # repetitions per run, at least
REP_TIMEOUT_S = 150        # one repetition, at most


class BenchError(Exception):
    """The benchmark cannot run (missing sources, failed build, ...)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def data_seed(seed):
    return DATA_SEEDS[seed % len(DATA_SEEDS)]


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_refs():
    return json.loads((REFS_DIR / "refs.json").read_text())


# --------------------------------------------------------------- build

def build():
    """Configure (once) and build the harness; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources under {ROOT / 'src'}")
    if not shutil.which("cmake"):
        raise BenchError("cmake not found")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "bds_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


# ------------------------------------------------------- repetitions

class Rep:
    """One finished harness process: its rusage, result and outputs."""

    OUTPUTS = ("matrix.csv", "matrix.hex")

    def __init__(self, rep_dir, status, rusage):
        self.dir = rep_dir
        self.ok = os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.rss_mb = rusage.ru_maxrss / 1024.0
        result = rep_dir / "result.json"
        self.ok = self.ok and result.is_file()
        self.result = json.loads(result.read_text()) if self.ok else {}
        self.files = {name: (rep_dir / name).read_bytes()
                      for name in self.OUTPUTS if (rep_dir / name).is_file()}

    def counter(self, key):
        return self.result.get("mix", self.result).get(key)

    def stderr_tail(self):
        path = self.dir / "stderr.txt"
        lines = path.read_text(errors="replace").splitlines() if path.is_file() else []
        return "\n".join(lines[-5:])


class Runner:
    """Starts harness processes in fresh directories and reaps them."""

    def __init__(self, workload):
        self.base = RUNS_DIR / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        self.count = 0

    def spawn(self, args):
        rep_dir = self.base / f"rep{self.count}"
        self.count += 1
        rep_dir.mkdir()
        argv = [str(BINARY)] + args + ["--out", str(rep_dir)]
        t0 = time.monotonic_ns()
        pid = os.fork()
        if pid == 0:  # child: fresh cwd, output to files, exec
            try:
                os.chdir(rep_dir)
                out = os.open("stdout.txt", os.O_WRONLY | os.O_CREAT, 0o644)
                err = os.open("stderr.txt", os.O_WRONLY | os.O_CREAT, 0o644)
                os.dup2(out, 1)
                os.dup2(err, 2)
                os.execv(argv[0], argv + ["--t0", str(t0)])
            finally:
                os._exit(127)
        watchdog = threading.Timer(REP_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, rusage = os.wait4(pid, 0)
        except BaseException:  # interrupted: reap the child, then re-raise
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            watchdog.cancel()
        rep = Rep(rep_dir, status, rusage)
        if not rep.ok:
            log(f"perfbench: {' '.join(argv[1:3])} failed:\n{rep.stderr_tail()}")
        return rep

    @staticmethod
    def discard(rep):
        shutil.rmtree(rep.dir, ignore_errors=True)

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)


# ------------------------------------------------------------ inputs

def sweep_args(workload, seed):
    ds = data_seed(seed)
    args = ["sweep", "--mode", "full" if workload == "sweep-full" else "sampled",
            "--seed", str(ds), "--threads", str(SWEEP_THREADS), "--scale", SCALE]
    if workload == "sweep-sampled":
        args += ["--ref", str(REFS_DIR / f"full_s{ds}.hex")]
    return args


def serve_plan(seed, refs):
    """The serve-mix cells and store budget for a workload seed.

    Three cells, one per machine preset in a fixed order (so every
    plan has the same geometry mix and peak memory), each on a data
    seed drawn by the workload seed. harness/serve_mix.cc fixes who
    requests which cell: cell 0 is hot, cells 1 and 2 are requested
    once each. The byte budget holds two cells, so the second cold
    publish evicts the first, the least recently used. Every count is
    therefore fixed: 3 computes, 3 publishes, 1 eviction.
    """
    rng = random.Random(seed)
    cells = [(rng.choice(DATA_SEEDS), p) for p in SERVE_PRESETS]
    sizes = [refs["cell_bytes"][f"{s}/{p}"] + ENTRY_OVERHEAD for s, p in cells]
    budget = sizes[0] + max(sizes[1], sizes[2]) + min(sizes) // 2
    args = ["serve", "--seeds", ",".join(str(s) for s, _ in cells),
            "--budget", str(budget), "--threads", str(SERVE_COMPUTE_THREADS)]
    return {"cells": cells, "args": args, "computes": 3, "evictions": 1}


# ------------------------------------------------------------ checks

def check_sweep(workload, seed, rep, refs):
    """Output checks of one sweep repetition; returns failures."""
    ds = str(data_seed(seed))
    res = rep.result
    fails = []
    if res.get("ops", 0) == 0:
        fails.append("sweep simulated zero ops (loaded a cache?)")
    if res.get("workloads") != 32:
        fails.append(f"sweep returned {res.get('workloads')} of 32 workloads")
    if workload == "sweep-full":
        for name in ("matrix.csv", "matrix.hex"):
            ref = REFS_DIR / ("full_s" + ds + Path(name).suffix)
            if rep.files.get(name) != ref.read_bytes():
                fails.append(f"{name} differs from refs/{ref.name}")
        want = refs["full"][ds]
    else:
        want = refs["sampled"][ds]
        if hashlib.sha256(rep.files.get("matrix.hex", b"")).hexdigest() != want["sha256"]:
            fails.append(f"sampled matrix differs from the reference of seed {ds}")
        if res.get("findings_preserved") != want["findings_preserved"]:
            fails.append(f"{res.get('findings_preserved')} paper findings keep the "
                         f"full sweep's verdict, reference says "
                         f"{want['findings_preserved']}")
    for key in ("ops", "detail_ops", "warm_ops", "l2_misses"):
        if res.get(key) != want[key]:
            fails.append(f"counter {key} = {res.get(key)}, reference {want[key]}")
    return fails


def check_serve(rep, plan, refs):
    """Output checks of one serve-mix repetition; returns failures."""
    mix = rep.result.get("mix", {})
    fails = []
    if mix.get("errors", 1):
        fails.append(f"{mix.get('errors')} error responses: {mix.get('first_error')}")
    if mix.get("payload_mismatches", 1):
        fails.append(f"{mix.get('payload_mismatches')} responses differ from "
                     f"their cell's first response")
    want = {"computes": plan["computes"], "evictions": plan["evictions"],
            "publishes": plan["computes"],
            "hits": (mix.get("requests") or 0) - plan["computes"]}
    for key, value in want.items():
        if mix.get(key) != value:
            fails.append(f"{key} = {mix.get(key)}, the plan fixes {value}")
    for i, (s, p) in enumerate(plan["cells"]):
        path = rep.dir / f"payload_{i}.csv"
        if not path.is_file() or sha256(path) != refs["cells"][f"{s}/{p}"]:
            fails.append(f"payload of cell {s}/{p} differs from its reference")
    return fails


def check_repeats(reps, keys):
    """Deterministic outputs and counters must repeat across reps."""
    fails = set()
    for rep in reps[1:]:
        if rep.files.get("matrix.hex") != reps[0].files.get("matrix.hex"):
            fails.add("matrix not bitwise-identical across repetitions")
        for key in keys:
            if rep.counter(key) != reps[0].counter(key):
                fails.add(f"counter {key} differs across repetitions")
    return sorted(fails)


# ---------------------------------------------------------- metrics

def median(values):
    return statistics.median(values) if values else 0.0


def environment(reps, workload):
    build_info = next((r.result.get("build") for r in reps if r.result), {}) or {}
    env = {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("build_type"),
        "flags": build_info.get("flags"),
        "release_build": build_info.get("build_type") == "Release",
        "scale": SCALE,
    }
    if workload == "serve-mix":
        env.update(clients=SERVE_CLIENTS, compute_threads=SERVE_COMPUTE_THREADS,
                   max_inflight=1)
    else:
        env.update(threads=SWEEP_THREADS)
    return env


def print_metric(name, value, unit, note=""):
    print(f"  {name:28s} {value:14.6g} {unit:6s} {note}")


def finish(correct, attempted, failed, metrics, env, fails):
    for fail in sorted(set(fails)):
        print(f"CHECK FAILED: {fail}")
    if not env.get("release_build"):
        print(f"WARNING: build type {env.get('build_type')!r} is not Release; "
              f"timings are not comparable")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    sys.stdout.flush()
    return 0 if correct else 1


# ------------------------------------------------------------ untraced

SWEEP_COUNTERS = ("ops", "detail_ops", "warm_ops", "l2_misses",
                  "findings_held", "findings_preserved")
SERVE_COUNTERS = ("computes", "evictions", "publishes", "hits")


def workload_args(workload, seed, refs):
    """Harness arguments and (for serve-mix) the plan of a run."""
    if workload != "serve-mix":
        return sweep_args(workload, seed), None
    plan = serve_plan(seed, refs)
    return plan["args"], plan


def check_rep(workload, seed, rep, plan, refs):
    return check_serve(rep, plan, refs) if plan \
        else check_sweep(workload, seed, rep, refs)


def run_untraced(workload, seed, seconds):
    refs = load_refs()
    runner = Runner(workload)
    try:
        args, plan = workload_args(workload, seed, refs)
        setup = []
        for _ in range(SETUP_PROBES):
            rep = runner.spawn(args + ["--setup-only"])
            if rep.ok:
                setup.append(rep.result["setup_s"])
            runner.discard(rep)
        reps, fails = [], []
        start = time.monotonic()
        while True:
            rep = runner.spawn(args)
            reps.append(rep)
            if not rep.ok:
                break
            setup.append(rep.result["setup_s"])
            fails += check_rep(workload, seed, rep, plan, refs)
            runner.discard(rep)
            elapsed = time.monotonic() - start
            if len(reps) >= MIN_REPS and elapsed * (1 + 1 / len(reps)) > seconds:
                break
        good = [r for r in reps if r.ok]
        fails += check_repeats(good, SERVE_COUNTERS if plan else SWEEP_COUNTERS)
        env = environment(good, workload)
        return report_untraced(workload, seed, reps, good, setup, plan, fails, env)
    finally:
        runner.close()


def report_untraced(workload, seed, reps, good, setup, plan, fails, env):
    n_failed_reps = len(reps) - len(good)
    if n_failed_reps:
        fails.append(f"{n_failed_reps} of {len(reps)} repetitions failed")
    wall = [r.result["mix"]["wall_s"] if plan else r.result["wall_s"] for r in good]
    metrics = {
        "wall_s": (median(wall), "s"),
        "cpu_s": (median([r.cpu_s for r in good]), "s"),
        "peak_rss_mb": (max([r.rss_mb for r in good], default=0.0), "MB"),
        "setup_s": (median(setup), "s"),
    }
    print(f"perfbench {workload}: seed {seed} -> data seed {data_seed(seed)}, "
          f"scale {SCALE}, {len(reps)} repetitions, {len(setup)} set-up samples")
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit)
    print("  repetition walls (s): " + " ".join(f"{w:.4f}" for w in wall))
    if plan:
        mixes = [r.result["mix"] for r in good]
        requests = mixes[0]["requests"] if mixes else 1
        attempted = requests * len(reps)
        failed = sum(m["errors"] for m in mixes) + requests * n_failed_reps
        print_metric("failed_frac", failed / attempted, "ratio",
                     f"{failed} of {attempted} requests")
        print_metric("requests_per_s", median([m["requests"] / m["wall_s"] for m in mixes]),
                     "1/s", "closed loop, 2 clients")
        hits = sum(m["hit"]["count"] for m in mixes)
        misses = sum(m["miss"]["count"] for m in mixes)
        print_metric("hit_p50_ms", 1e3 * median([m["hit"]["p50_s"] for m in mixes]), "ms",
                     f"median over repetitions, {hits} hit samples")
        print_metric("hit_p99_ms", 1e3 * median([m["hit"]["p99_s"] for m in mixes]), "ms",
                     f"median over repetitions, {hits} hit samples")
        print_metric("miss_p50_s", median([m["miss"]["p50_s"] for m in mixes]), "s",
                     f"median over repetitions, {misses} miss samples")
        if mixes:
            m = mixes[0]
            print(f"  counters per repetition: computes={m['computes']} "
                  f"evictions={m['evictions']} publishes={m['publishes']} "
                  f"hits={m['hits']} cells={m['cells_requested']}")
            hit_cpu = median([m["hit_cpu_s"] / r.cpu_s for m, r in zip(mixes, good)])
            hits_only = median([m["hits_only_s"] / m["wall_s"] for m in mixes])
            print(f"  hit share: {hit_cpu:.3f} of cpu_s (client threads' CPU in hits), "
                  f"{hits_only:.3f} of wall_s after the last miss (hits alone)")
    else:
        attempted = 32 * len(reps)
        failed = 32 * n_failed_reps
        print_metric("failed_frac", failed / attempted, "ratio",
                     f"{failed} of {attempted} workload runs")
        if good:
            r = good[0].result
            if workload == "sweep-sampled":
                print_metric("sampled_err_mean", r["err_mean"], "ratio",
                             "mean relative error vs the full matrix")
                print(f"  findings: {r['findings_preserved']}/{r['findings_total']} keep "
                      f"the full sweep's verdict")
            print(f"  counters per repetition: ops={r['ops']} detail_ops={r['detail_ops']} "
                  f"warm_ops={r['warm_ops']} l2_misses={r['l2_misses']}")
    correct = not fails and failed == 0 and bool(good)
    return finish(correct, attempted, failed, metrics, env, fails)


# -------------------------------------------------------------- traced

class Spans:
    """A traced run's spans as columns, in index order.

    A serve-mix run records half a million of them, so they are kept
    as arrays rather than one object each. A span's parent always has
    a lower index than the span.
    """

    def __init__(self, path):
        self.name, self.start, self.end, self.parent = [], array("q"), array("q"), array("q")
        with path.open() as f:
            for line in f:
                s = json.loads(line)
                self.name.append(sys.intern(s["name"]))
                self.start.append(s["start_ns"])
                self.end.append(s["end_ns"])
                self.parent.append(s["parent"])

    def __len__(self):
        return len(self.name)

    def dur(self, i):
        return (self.end[i] - self.start[i]) * 1e-9

    def roots(self):
        """Index of each span's top-level ancestor."""
        root = array("q", range(len(self)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                root[i] = root[p]
        return root


def covered(starts, ends):
    """Length of the union of the intervals [starts[k], ends[k])."""
    total, reach = 0, None
    for k in sorted(range(len(starts)), key=starts.__getitem__):
        lo, hi = starts[k], ends[k]
        if hi <= lo:
            continue
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def span_table(spans):
    """Per-name count, total and self time.

    Self time is a span's duration minus the part of its interval that
    its children cover; children may run in parallel, so it is their
    union that counts, not their sum.
    """
    children = {}
    for i, p in enumerate(spans.parent):
        if p >= 0:
            children.setdefault(p, array("q")).append(i)
    table = {}
    for i, name in enumerate(spans.name):
        lo, hi = spans.start[i], spans.end[i]
        busy = 0
        if i in children:
            kids = children[i]
            busy = covered(array("q", (max(lo, spans.start[k]) for k in kids)),
                           array("q", (min(hi, spans.end[k]) for k in kids)))
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += spans.dur(i)
        row[2] += spans.dur(i) - busy * 1e-9
    return table


def probe_totals(spans):
    """Summed duration per span name, over the per-layer probes only."""
    totals = {}
    for i, r in enumerate(spans.roots()):
        if i != r and spans.name[r] == "ledger":
            totals[spans.name[i]] = totals.get(spans.name[i], 0.0) + spans.dur(i)
    return totals


def layer_metrics(workload, untraced, traced, spans):
    """The per-layer metrics (see README.md for what moves what).

    `untraced` are the repetitions run beside the traced one; their
    mean wall and CPU time are the base of the tracing overhead and
    the busy fraction.
    """
    table = span_table(spans)
    total = probe_totals(spans)
    pipeline = table["core.runPipeline"][1]
    res = traced.result
    ledger = res["ledger"]
    ops = ledger["ops"]
    per_op = 1e9 / ops
    if workload == "serve-mix":
        serve = res["mix"]
        top = table["serve.mix"][1]
        wall = statistics.mean(u.result["mix"]["wall_s"] for u in untraced)
        threads = SERVE_COMPUTE_THREADS + SERVE_CLIENTS
        detail_ops, warm_ops = ops, 0  # per miss: one full-detail sweep
    else:
        serve = res["serve_probe"]
        top = table["sweep"][1]
        wall = statistics.mean(u.result["wall_s"] for u in untraced)
        threads = SWEEP_THREADS
        detail_ops, warm_ops = res["detail_ops"], res["warm_ops"]
    m = {
        "workloads.datagen_s": (total["workloads.datagen"], "s"),
        "stack.ns_per_op": ((total["stack.execute_null"] - total["workloads.datagen"])
                            * per_op, "ns"),
        "stack.ops": (ops, "count"),
        "trace.record_ns_per_op": ((total["trace.record"] - total["stack.execute_null"])
                                   * per_op, "ns"),
        "trace.bytes_per_op": (ledger["trace_bytes"] / ops, "B"),
        "trace.peak_mb": (ledger["max_trace_bytes"] / 1e6, "MB"),
        "uarch.detail_ns_per_op": (total["uarch.replay_detail"] * per_op, "ns"),
        "uarch.warm_ns_per_op": (total["uarch.replay_warm"] * per_op, "ns"),
        "uarch.detail_ops": (detail_ops, "count"),
        "uarch.warm_ops": (warm_ops, "count"),
        "uarch.l2_miss_per_kop": (1e3 * ledger["l2_misses"] / ops, "1/kop"),
        "sample.capture_s": (total["sample.captureWorkload"], "s"),
        "sample.replay_s": (total["sample.replayCapture"], "s"),
        "sample.profile_ns_per_op": (total["sample.profile"] * per_op, "ns"),
        "sample.pick_s": (total["sample.pick"], "s"),
        "sample.detail_frac": (ledger["sampled_detail_ops"] / ledger["sampled_total_ops"],
                               "ratio"),
        "core.pipeline_s": (pipeline, "s"),
        "parallel.busy_frac": (statistics.mean(u.cpu_s for u in untraced)
                               / (threads * wall), "ratio"),
        "serve.hit_us": (1e6 * serve["hit"]["p50_s"], "us"),
        "serve.miss_s": (serve["miss"]["p50_s"], "s"),
        "serve.computes_per_cell": (serve["computes"] / serve["cells_requested"], "ratio"),
        "store.hit_ratio": (serve["hits"] / serve["requests"], "ratio"),
        "store.publish_ms": (1e3 * serve["publish_p50_s"], "ms"),
        "store.evictions": (serve["evictions"], "count"),
        "store.bytes_written": (serve["bytes_written"], "B"),
        "bench.tracing_overhead_frac": ((top - wall) / wall, "ratio"),
    }
    return m, table


def run_traced(workload, seed):
    refs = load_refs()
    runner = Runner(workload)
    try:
        args, plan = workload_args(workload, seed, refs)
        first = runner.spawn(args)
        traced = runner.spawn(args + ["--trace"])
        untraced = [first, runner.spawn(args)]
        reps = [r for r in untraced + [traced] if r.ok]
        fails = [] if len(reps) == 3 else ["a repetition failed"]
        for rep in reps:
            fails += check_rep(workload, seed, rep, plan, refs)
        metrics = {}
        if not fails:
            fails += traced_checks(workload, untraced, traced)
            spans = Spans(traced.dir / "spans.jsonl")
            metrics, table = layer_metrics(workload, untraced, traced, spans)
            print(f"perfbench {workload} (traced): seed {seed} -> data seed "
                  f"{data_seed(seed)}, {len(spans)} spans")
            print(f"  {'span':28s} {'count':>7s} {'total_s':>10s} {'self_s':>10s}")
            for name, (count, tot, self_t) in sorted(table.items(),
                                                     key=lambda kv: -kv[1][2]):
                print(f"  {name:28s} {count:7d} {tot:10.4f} {self_t:10.4f}")
            print("per-layer metrics:")
            for name, (value, unit) in metrics.items():
                print_metric(name, value, unit)
        env = environment(reps, workload)
        return finish(not fails, 3, 3 - len(reps), metrics, env, fails)
    finally:
        runner.close()


def traced_checks(workload, untraced, traced):
    """Traced and untraced repetitions must agree; probes must too."""
    fails = check_repeats(untraced + [traced],
                          SERVE_COUNTERS if workload == "serve-mix" else SWEEP_COUNTERS)
    if workload == "serve-mix":
        return fails
    res, ledger = traced.result, traced.result["ledger"]
    if ledger["ops"] != res["ops"]:
        fails.append("null-target op count differs from the sweep's")
    if workload == "sweep-full" and ledger["l2_misses"] != res["l2_misses"]:
        fails.append("trace replay L2 misses differ from the live sweep's")
    if workload == "sweep-sampled" and (ledger["sampled_detail_ops"], ledger["sampled_warm_ops"]) \
            != (res["detail_ops"], res["warm_ops"]):
        fails.append("capture/replay op split differs from the sampled sweep's")
    if (traced.dir / "payload_0.csv").read_bytes() != traced.files["matrix.csv"]:
        fails.append("served payload of the sweep's cell differs from its matrix")
    return fails


# ---------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so a running repetition is
    # killed and reaped rather than left behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        if args.trace:
            return run_traced(args.workload, args.seed)
        return run_untraced(args.workload, args.seed, args.seconds)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
