#!/usr/bin/env python3
"""dhtlab benchmark: end-to-end subcommand timings and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds `dhtlab`, the
in-process tracer (perfbench/_tracer) and the reference load (perfbench/_ref)
in `.bench_build/`.

--trace 0 spawns the built `dhtlab` once per (workload, geometry) with
`--seed N --json`, for as many whole rounds over the geometries as fit in S
seconds, on one core, and reports the end-to-end metrics: wall clocks
scaled by a fixed reference load (perfbench/_ref) timed before and after
each invocation, per geometry the median over rounds, summed over
geometries.
--trace 1 runs, per geometry, the untraced CLI and the tracer at the same
seed, checks that their counts agree, and reports per-layer metrics from the
tracer's spans. Both modes check the program's outputs; the last stdout line
is one JSON object. See perfbench/README.md for every metric.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

GEOMETRIES = ["tree", "hypercube", "xor", "ring", "symphony", "record:h=4"]
SPARSE_GEOMETRIES = [g for g in GEOMETRIES if g != "hypercube"]  # storage has no hypercube

# One entry per workload; see README.md for why each exists. Timed runs use
# one domain: on two shared vCPUs a second domain makes the wall clock spread
# tenfold. `traced_jobs` replaces `jobs` in traced runs, so Exec.Pool is traced.
WORKLOADS = {
    "sweep-build": {"kind": "simulate", "bits": 18, "q": 0.2, "trials": 2,
                    "pairs": 5_000, "jobs": 1},
    "sweep-route": {"kind": "simulate", "bits": 16, "q": 0.2, "trials": 2,
                    "pairs": 300_000, "jobs": 1, "traced_jobs": 2},
    "churn": {"kind": "churn", "bits": 10, "jobs": 1},
    "storage": {"kind": "storage", "bits": 14, "rs": [1, 2, 4], "qs": [0.2, 0.4],
                "trials": 2, "reads": 16_384, "jobs": 1},
}

# Layer stacks a workload does not use are traced at these small sizes
# (the subcommands' --smoke scale), so every per-layer metric is measured
# on every traced run.
COMPANIONS = {
    "simulate": {"kind": "simulate", "bits": 8, "q": 0.2, "trials": 6, "pairs": 200,
                 "jobs": 2},
    "churn": {"kind": "churn", "bits": 8, "jobs": 1},
    "storage": {"kind": "storage", "bits": 8, "rs": [1, 2], "qs": [0.1, 0.3],
                "trials": 2, "reads": 64, "jobs": 1},
}

CHURN_SESSIONS = 5  # points in Churn_curves.default_config's session grid
SETUP_SPAWNS = 60
SETUP_CHUNKS = 6  # the reference load is timed between chunks of set-up spawns
REF_PAIRS = 100_000
REF_HOPS = 719_125  # what perfbench/_ref prints for REF_PAIRS
# Timed figures are given in seconds at the reference load's speed: a wall
# clock is scaled by REF_NOMINAL_S / (the reference's wall timed next to it).
# REF_NOMINAL_S is about the reference's wall on an idle core of the 2.1 GHz
# Xeon VM the benchmark was tuned on.
REF_NOMINAL_S = 0.045
CALIBRATION_TRIALS = 10
# Two-sided 1e-5 quantile of Student's t with CALIBRATION_TRIALS - 1 = 9
# degrees of freedom: the routability checks' false-alarm rate per check.
T_QUANTILE = 8.83
STORAGE_Z = 5.0  # binomial band of the storage survival check, in sd

LEAF_LAYERS = {
    "prng/seed", "overlay/build", "failure/sample", "routing/route", "reduce/hops",
    "session_churn/run", "sparse/build", "store/create", "store/read",
}

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")
DHTLAB = os.path.join(WS, "_build", "default", "bin", "dhtlab.exe")
TRACER = os.path.join(WS, "_build", "default", "perfbench_tracer", "tracer.exe")
REF_WS = os.path.join(BUILD, "ref")
REF = os.path.join(REF_WS, "_build", "default", "ref.exe")
STDERR_LOG = os.path.join(BUILD, "child.stderr")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def family(geometry):
    return geometry.split(":")[0]


# --- build --------------------------------------------------------------------

def build():
    """Copy the sources into .bench_build/ws next to the tracer and build both
    executables there, so the repository's own dune build never sees the
    tracer. Build the reference load in a workspace of its own,
    .bench_build/ref, so the repository's build settings do not reach it."""
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise SystemExit(f"perfbench: {needed} not found in {ROOT}: run from a checkout root")
    os.makedirs(WS, exist_ok=True)
    for name in os.listdir(WS):  # drop the previous copy; keep dune's _build
        if name != "_build":
            path = os.path.join(WS, name)
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    for name in os.listdir(ROOT):
        if name.startswith((".", "_")) or name == "perfbench":
            continue
        src, dst = os.path.join(ROOT, name), os.path.join(WS, name)
        (shutil.copytree if os.path.isdir(src) else shutil.copy2)(src, dst)
    shutil.copytree(os.path.join(ROOT, "perfbench", "_tracer"),
                    os.path.join(WS, "perfbench_tracer"))
    os.makedirs(REF_WS, exist_ok=True)
    ref_src = os.path.join(ROOT, "perfbench", "_ref")
    for name in os.listdir(ref_src):
        shutil.copy2(os.path.join(ref_src, name), os.path.join(REF_WS, name))
    # The shared dune cache would write outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    for cmd in (["dune", "build", "--root", WS, "--profile", "release",
                 "bin/dhtlab.exe", "perfbench_tracer/tracer.exe"],
                ["dune", "build", "--root", REF_WS, "--profile", "release", "./ref.exe"]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, env=env)
        if done.returncode != 0:
            log(done.stdout)
            raise SystemExit(f"perfbench: build failed ({' '.join(cmd)})")


# --- child processes ----------------------------------------------------------

class Child:
    def __init__(self, argv):
        self.start = time.perf_counter()
        with open(STDERR_LOG, "ab") as err:
            self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)

    def finish(self):
        """Wait for the child; return (stdout, exit code, wall s, peak RSS MiB)."""
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return out.decode(), self.proc.returncode, wall, usage.ru_maxrss / 1024.0


def spawn(argv):
    return Child(argv).finish()


def spawn_pairwise(argvs):
    """Run the commands two at a time (the machine's core count); results in order."""
    results = []
    for i in range(0, len(argvs), 2):
        children = [Child(a) for a in argvs[i:i + 2]]
        results.extend(c.finish() for c in children)
    return results


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# --- commands -----------------------------------------------------------------

def cli_args(cfg, geometry, seed):
    kind = cfg["kind"]
    args = [DHTLAB, kind, "-g", geometry, "-d", str(cfg["bits"]), "--seed", str(seed),
            "-j", str(cfg["jobs"]), "--json"]
    if kind == "simulate":
        args += ["-q", str(cfg["q"]), "--trials", str(cfg["trials"]),
                 "--pairs", str(cfg["pairs"])]
    elif kind == "storage":
        args += ["-r", ",".join(map(str, cfg["rs"])), "--qs", ",".join(map(str, cfg["qs"])),
                 "--trials", str(cfg["trials"]), "--reads", str(cfg["reads"])]
    return args


def tracer_args(cfg, geometry, seed):
    kind = cfg["kind"]
    args = [TRACER, "sweep" if kind == "simulate" else kind, f"geometry={geometry}",
            f"bits={cfg['bits']}", f"seed={seed}"]
    if kind == "simulate":
        args += [f"q={cfg['q']}", f"trials={cfg['trials']}", f"pairs={cfg['pairs']}",
                 f"jobs={cfg['jobs']}"]
    elif kind == "storage":
        args += ["rs=" + ",".join(map(str, cfg["rs"])), "qs=" + ",".join(map(str, cfg["qs"])),
                 f"trials={cfg['trials']}", f"reads={cfg['reads']}"]
    return args


def geometries_of(cfg):
    return SPARSE_GEOMETRIES if cfg["kind"] == "storage" else GEOMETRIES


def ops_of(cfg, rows):
    """Work units of one invocation: routed pairs, membership events or issued reads."""
    key = "events" if cfg["kind"] == "churn" else "attempted"
    return sum(r.get(key, 0) for r in rows)


# --- output checks ------------------------------------------------------------

def closed_form(geometry, bits, q):
    out, rc, _, _ = spawn([DHTLAB, "analyze", "-g", geometry, "-d", str(bits),
                           "-q", str(q), "--csv"])
    if rc != 0:
        raise RuntimeError(f"analyze -g {geometry} exited {rc}")
    return float(out.strip().splitlines()[-1].split(",")[1])


def calibrate(cfg, seed):
    """Trial-to-trial spread of tree and hypercube routability: CALIBRATION_TRIALS
    single-trial runs at derived seeds. Pairs within one trial share an overlay
    and a failure draw, so their Wilson CI understates the spread of the pooled
    estimate; the per-trial sample sd does not."""
    pairs = min(cfg["pairs"], 50_000)
    spread = {}
    for g in ("tree", "hypercube"):
        argvs = [[DHTLAB, "simulate", "-g", g, "-d", str(cfg["bits"]), "-q", str(cfg["q"]),
                  "--trials", "1", "--pairs", str(pairs), "-j", "1", "--json",
                  "--seed", str((seed * 1_000_003 + k + 1) % (1 << 40))]
                 for k in range(CALIBRATION_TRIALS)]
        rates = []
        for out, rc, _, _ in spawn_pairwise(argvs):
            if rc != 0:
                raise RuntimeError(f"calibration simulate -g {g} exited {rc}")
            row = json_lines(out)[0]
            rates.append(row["delivered"] / row["attempted"])
        mean = statistics.fmean(rates)
        sd = max(statistics.stdev(rates), math.sqrt(mean * (1 - mean) / pairs))
        spread[g] = (mean, sd)
    return spread


def check_outputs(cfg, geometry, rc, rows, spread, closed):
    """Problems with one invocation's output (empty when it is correct)."""
    if rc != 0:
        return [f"{geometry}: exit status {rc}"]
    kind = cfg["kind"]
    problems = []
    if kind == "simulate":
        if len(rows) != 1:
            return [f"{geometry}: {len(rows)} result rows, expected 1"]
        r = rows[0]
        if r["failed_trials"] != 0:
            problems.append(f"{geometry}: failed_trials = {r['failed_trials']}")
        if r["attempted"] != cfg["trials"] * cfg["pairs"]:
            problems.append(f"{geometry}: attempted {r['attempted']} != trials x pairs")
        if family(geometry) in spread:
            mean, sd = spread[family(geometry)]
            c = closed[family(geometry)]
            tol_cal = T_QUANTILE * sd / math.sqrt(CALIBRATION_TRIALS)
            tol_run = T_QUANTILE * sd / math.sqrt(cfg["trials"])
            if abs(mean - c) > tol_cal:
                problems.append(f"{geometry}: calibration routability {mean:.5f} vs closed "
                                f"form {c:.5f} (tolerance {tol_cal:.5f})")
            if abs(r["routability"] - c) > tol_run:
                problems.append(f"{geometry}: routability {r['routability']:.5f} vs closed "
                                f"form {c:.5f} (tolerance {tol_run:.5f})")
    elif kind == "churn":
        if len(rows) != CHURN_SESSIONS:
            return [f"{geometry}: {len(rows)} churn points, expected {CHURN_SESSIONS}"]
        for r in rows:
            # One snapshot's binomial sd bounds the spread of the mean alive
            # fraction over (correlated) snapshots.
            a = r["availability"]
            tol = 6 * math.sqrt(a * (1 - a) / 2 ** cfg["bits"])
            if r["events"] <= 0:
                problems.append(f"{geometry}: session {r['session_mean']}: no events")
            if abs(r["alive"] - a) > tol:
                problems.append(f"{geometry}: session {r['session_mean']}: alive "
                                f"{r['alive']:.4f} vs availability {a:.4f}")
            if r["routability"] is not None and not 0 <= r["routability"] <= 1:
                problems.append(f"{geometry}: routability {r['routability']} outside [0, 1]")
    else:
        expected = len(cfg["rs"]) * len(cfg["qs"])
        if len(rows) != expected:
            return [f"{geometry}: {len(rows)} storage points, expected {expected}"]
        n = cfg["trials"] * rows[0]["keys"]
        for r in rows:
            where = f"{geometry} r={r['r']} q={r['axis']}"
            if r["attempted"] + r["no_client"] != cfg["trials"] * cfg["reads"]:
                problems.append(f"{where}: {r['attempted']} reads issued")
            a = r["analytic"]
            tol = STORAGE_Z * math.sqrt(a * (1 - a) / n) + 1 / n
            if abs(r["survival"] - a) > tol:
                problems.append(f"{where}: survival {r['survival']:.4f} vs Leslie "
                                f"{a:.4f} (tolerance {tol:.4f})")
    return problems


class Checks:
    """Grid points attempted and failed, plus the stdout digest per geometry."""

    def __init__(self, cfg, seed):
        self.cfg, self.seed = cfg, seed
        self.attempted = self.failed = 0
        self.problems = []
        self.stdout = {}
        self.spread, self.closed = {}, {}
        if cfg["kind"] == "simulate":
            self.spread = calibrate(cfg, seed)
            self.closed = {g: closed_form(g, cfg["bits"], cfg["q"]) for g in self.spread}

    def record(self, geometry, out, rc, traced_out=None):
        """Check one invocation (and, when given, the tracer's counts for the
        same point); return the parsed rows and tracer output."""
        rows, traced = [], None
        try:
            rows = json_lines(out)
            problems = check_outputs(self.cfg, geometry, rc, rows, self.spread, self.closed)
            if traced_out is not None and not problems:
                traced = json.loads(traced_out.strip().splitlines()[-1])
                problems = compare_counts(self.cfg, geometry, rows, traced)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            problems = [f"{geometry}: unreadable output ({e})"]
        previous = self.stdout.setdefault(geometry, out)
        if previous != out:
            problems.append(f"{geometry}: stdout differs between runs at seed {self.seed}")
        kind = self.cfg["kind"]
        points = 1 if kind == "simulate" else CHURN_SESSIONS if kind == "churn" else \
            len(self.cfg["rs"]) * len(self.cfg["qs"])
        self.attempted += points
        self.failed += points if problems else 0
        self.problems.extend(problems)
        return rows, (None if problems else traced)

    def digest(self):
        h = hashlib.sha256()
        for g in geometries_of(self.cfg):
            h.update(self.stdout.get(g, "").encode())
        return h.hexdigest()


# --- timed run ----------------------------------------------------------------

def reference_seconds():
    out, rc, wall, _ = spawn([REF, str(REF_PAIRS)])
    if rc != 0 or out.strip() != str(REF_HOPS):
        raise RuntimeError(f"reference load printed {out.strip()!r}, exit {rc}")
    return wall


def setup_seconds():
    """Median wall clock of `dhtlab geometries --names`: binary load, registry
    and plugin initialisers and argument parsing, before any trial. Returns
    the scaled and the raw median."""
    scaled, raw = [], []
    ref = reference_seconds()
    for _ in range(SETUP_CHUNKS):
        walls = []
        for _ in range(SETUP_SPAWNS // SETUP_CHUNKS):
            out, rc, wall, _ = spawn([DHTLAB, "geometries", "--names"])
            if rc != 0 or "tree" not in out.split():
                raise RuntimeError("dhtlab geometries --names failed")
            walls.append(wall)
        ref_next = reference_seconds()
        scale = REF_NOMINAL_S / ((ref + ref_next) / 2)
        scaled.extend(w * scale for w in walls)
        raw.extend(walls)
        ref = ref_next
    return statistics.median(scaled), statistics.median(raw)


def timed(cfg, checks, seconds):
    """End-to-end metrics from as many whole rounds over the geometries as fit
    in `seconds`. Other tenants of the host slow the cores by up to a third
    for seconds to minutes at a time, so each invocation's wall clock is
    scaled by the reference load timed just before and just after it, on the
    same core. Each geometry's time is its median scaled wall over the
    rounds."""
    # One core for the timed children and the reference alike, so both see
    # the same contention. Timed runs use one domain.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    setup, setup_raw = setup_seconds()
    rounds, refs, peak = [], [reference_seconds()], 0.0
    t0 = time.perf_counter()
    while True:
        started = time.perf_counter()
        per_geometry = {}
        for g in geometries_of(cfg):
            out, rc, wall, rss = spawn(cli_args(cfg, g, checks.seed))
            refs.append(reference_seconds())
            rows, _ = checks.record(g, out, rc)
            peak = max(peak, rss)
            scale = REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2)
            per_geometry[family(g)] = (ops_of(cfg, rows), wall, scale)
        rounds.append(per_geometry)
        took = time.perf_counter() - started
        if time.perf_counter() - t0 + took > seconds:
            break
    families = list(rounds[0])
    ops = {f: rounds[0][f][0] for f in families}
    scaled = {f: statistics.median(r[f][1] * r[f][2] for r in rounds) for f in families}
    wall = sum(scaled.values())
    metrics = {
        "wall_s": (wall, "s"),
        "ops_per_s": (sum(ops.values()) / wall, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (peak, "MiB"),
    }
    # Per-geometry rates: printed, not gated (storage has no hypercube, and
    # the shortest invocations last tens of milliseconds; see README.md).
    for f in families:
        print(f"ops_per_s.{f} {ops[f] / scaled[f]:.6g} 1/s (not gated)")
    raw = sum(statistics.median(r[f][1] for r in rounds) for f in families)
    print(f"wall_s.raw {raw:.6g} s (not gated)")
    print(f"setup_s.raw {setup_raw:.6g} s (not gated)")
    print(f"reference_s {statistics.median(refs):.6g} s on cpu {cpu} "
          f"(min {min(refs):.6g}, max {max(refs):.6g})")
    log(f"perfbench: {len(rounds)} rounds, round walls "
        f"{[round(sum(w for _, w, _ in r.values()), 3) for r in rounds]}")
    return metrics


# --- traced run ---------------------------------------------------------------

def union_length(intervals):
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def busy_by_domain(spans, names):
    """Per-domain interval union of the spans whose name is in `names`."""
    by_domain = {}
    for name, domain, a, b in spans:
        if name in names:
            by_domain.setdefault(domain, []).append((a, b))
    return {d: union_length(iv) for d, iv in by_domain.items()}


def layer_seconds(spans, name):
    return sum(busy_by_domain(spans, {name}).values())


def compare_counts(cfg, geometry, rows, traced):
    """Mismatches between the tracer's counts and the untraced CLI's output."""
    kind = cfg["kind"]
    if kind == "simulate":
        r = rows[0]
        pairs = [("delivered", r["delivered"], traced["delivered"]),
                 ("attempted", r["attempted"], traced["attempted"]),
                 ("hops_mean", "%.9g" % r["hops_mean"], traced["hops_mean"])]
    elif kind == "churn":
        pairs = [("events", [r["events"] for r in rows], traced["events"])]
    else:
        pairs = [(k, [r[k] for r in rows], traced[k])
                 for k in ("attempted", "quorum_reads", "probe_routes", "repair_routes",
                           "repair_transfers")]
    return [f"{geometry}: traced {k} {t} != dhtlab {c}" for k, c, t in pairs if c != t]


def traced_stack(cfg, checks):
    """Untraced CLI and tracer, per geometry, at one seed: per-geometry records."""
    records = []
    for g in geometries_of(cfg):
        out, rc, wall, _ = spawn(cli_args(cfg, g, checks.seed))
        tout, trc, _, _ = spawn(tracer_args(cfg, g, checks.seed))
        if trc != 0:
            tout = ""
        _, traced = checks.record(g, out, rc, traced_out=tout)
        if traced is None:
            continue
        records.append({"geometry": family(g), "untraced_wall": wall, "traced": traced})
    return records


def stack_metrics(kind, records, jobs):
    m = {}
    spans_of = [r["traced"]["spans"] for r in records]
    if kind == "simulate":
        build = [layer_seconds(s, "overlay/build") for s in spans_of]
        route = [layer_seconds(s, "routing/route") for s in spans_of]
        t = [r["traced"] for r in records]
        m["overlay.build_s"] = (sum(build), "s")
        m["overlay.entries"] = (sum(x["entries"] for x in t), "count")
        m["overlay.table_mib"] = (max(max(x["table_bytes"]) for x in t) / 2 ** 20, "MiB")
        for r, b, x in zip(records, build, t):
            m[f"overlay.build_ns_per_entry.{r['geometry']}"] = (b * 1e9 / x["entries"], "ns")
        m["failure.sample_s"] = (sum(layer_seconds(s, "failure/sample") for s in spans_of), "s")
        m["routing.route_s"] = (sum(route), "s")
        for r, rt, x in zip(records, route, t):
            m[f"routing.routes_per_s.{r['geometry']}"] = (x["attempted"] / rt, "1/s")
        m["routing.hops"] = (sum(x["hops"] for x in t), "count")
        for r, x in zip(records, t):
            m[f"routing.hops_per_route.{r['geometry']}"] = (x["hops"] / x["delivered"], "hops")
        m["routing.delivered_frac"] = (sum(x["delivered"] for x in t)
                                       / sum(x["attempted"] for x in t), "ratio")
        m["reduce.hops_s"] = (sum(layer_seconds(s, "reduce/hops") for s in spans_of), "s")
        # Max over mean per-domain busy time of the benchmark's trial tasks;
        # a member that ran no task counts as idle.
        peak = mean = 0.0
        for s in spans_of:
            busy = busy_by_domain(s, {"pool/task"})
            peak += max(busy.values())
            mean += sum(busy.values()) / jobs
        m["pool.imbalance"] = (peak / mean, "ratio")
    elif kind == "churn":
        run_s = sum(layer_seconds(s, "session_churn/run") for s in spans_of)
        events = sum(sum(r["traced"]["events"]) for r in records)
        m["session_churn.run_s"] = (run_s, "s")
        m["session_churn.events"] = (events, "count")
        m["session_churn.ns_per_event"] = (run_s * 1e9 / events, "ns")
    else:
        t = [r["traced"] for r in records]
        reads = sum(sum(x["attempted"]) for x in t)
        read_s = sum(layer_seconds(s, "store/read") for s in spans_of)
        m["sparse.build_s"] = (sum(layer_seconds(s, "sparse/build") for s in spans_of), "s")
        m["store.create_s"] = (sum(layer_seconds(s, "store/create") for s in spans_of), "s")
        m["store.read_s"] = (read_s, "s")
        m["store.reads_per_s"] = (reads / read_s, "1/s")
        for k in ("probe_routes", "repair_routes", "repair_transfers"):
            m[f"store.{k}"] = (sum(sum(x[k]) for x in t), "count")
        m["store.quorum_frac"] = (sum(sum(x["quorum_reads"]) for x in t) / reads, "ratio")
    return m


def trace_shares(records):
    """Tracing overhead, attributed share, and each layer's share of self time."""
    traced_wall = attributed = self_time = 0.0
    layers = {}
    for r in records:
        spans = r["traced"]["spans"]
        traced_wall += max(b for _, _, _, b in spans) - min(a for _, _, a, _ in spans)
        leaves = [s for s in spans if s[0] in LEAF_LAYERS]
        attributed += union_length([(a, b) for _, _, a, b in leaves])
        self_time += sum(busy_by_domain(spans, LEAF_LAYERS).values())
        for name in {s[0] for s in leaves}:
            layers[name] = layers.get(name, 0.0) + layer_seconds(spans, name)
    untraced = sum(r["untraced_wall"] for r in records)
    shares = {k: v / self_time for k, v in sorted(layers.items())}
    return traced_wall / untraced, attributed / traced_wall, shares


def traced(cfg, checks, seconds):
    """Per-layer metrics and layer shares, medians over as many traced passes
    as fit in `seconds`. Each pass traces the workload's own stack and the
    companion stacks of the layers it does not use."""
    kind = cfg["kind"]
    stacks = {k: (cfg, checks) if k == kind else (c, Checks(c, checks.seed))
              for k, c in COMPANIONS.items()}
    passes, shares = [], []
    t0 = time.perf_counter()
    while True:
        started = time.perf_counter()
        metrics = {}
        for stack_kind, (scfg, schecks) in stacks.items():
            records = traced_stack(scfg, schecks)
            if len(records) < len(geometries_of(scfg)):
                continue
            metrics.update(stack_metrics(stack_kind, records, scfg["jobs"]))
            if stack_kind == kind:
                overhead, attributed, layer_shares = trace_shares(records)
                metrics["trace.overhead"] = (overhead, "ratio")
                metrics["trace.attributed_share"] = (attributed, "ratio")
                shares.append(layer_shares)
        passes.append(metrics)
        took = time.perf_counter() - started
        if time.perf_counter() - t0 + took > seconds:
            break
    for stack_kind, (_, schecks) in stacks.items():
        if stack_kind != kind:
            checks.attempted += schecks.attempted
            checks.failed += schecks.failed
            checks.problems.extend(f"companion {stack_kind}: {p}" for p in schecks.problems)
    for layer in sorted({k for s in shares for k in s}):
        median = statistics.median_low(s.get(layer, 0.0) for s in shares)
        print(f"layer_share {layer} {median:.4f} of traced self time")
    log(f"perfbench: {len(passes)} traced passes")
    names = [k for p in passes for k in p]
    return {k: (statistics.median_low(p[k][0] for p in passes if k in p),
                next(p[k][1] for p in passes if k in p))
            for k in dict.fromkeys(names)}


# --- main ---------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")
    build()
    cfg = WORKLOADS[a.workload]
    if a.trace:
        cfg = dict(cfg, jobs=cfg.get("traced_jobs", cfg["jobs"]))
    checks = Checks(cfg, a.seed)
    metrics = (traced if a.trace else timed)(cfg, checks, a.seconds)
    for problem in checks.problems:
        print(f"check failed: {problem}")
    print(f"stdout_sha256 {a.workload} seed={a.seed} {checks.digest()}")
    print(f"failed_frac {checks.failed / checks.attempted:.6g} ratio "
          f"({checks.failed}/{checks.attempted} grid points)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
