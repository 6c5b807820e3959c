"""Benchmark runner: one workload, one seed, one process.

    python3 perfbench/run.py --workload amaf-large --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation at all.  With ``--trace 1`` it wraps the ``mafkit`` layers
(see ``spans.py``), runs every input once untraced and once traced, and
reports per-layer times per operation, the search and meta-step counters,
and the tracing overhead as the traced-minus-untraced difference.

Human-readable lines go to stdout first and the environment to stderr; the
last stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``perfbench/report.py`` runs every workload.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import types
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "mafkit")
WORK = os.path.join(HERE, "work")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

# setup_s is the median of at least this many set-ups, repeated until they
# add up to at least this many seconds: one set-up takes 0.05–0.5 s, and the
# speed of a shared virtual machine steps between levels 1.4–1.9× apart for
# stretches of seconds, so a short series measures the machine
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 2.0


# The reference loop timed next to every operation walks a fixed random tree
# of this many vertices: 13–18 ms a loop on a 2-vCPU virtual machine.
REF_VERTICES = 300


# -- set-up -----------------------------------------------------------------


def import_mafkit():
    """Fresh import of the package from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "mafkit" or n.startswith("mafkit.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    mods = {
        name: importlib.import_module(f"mafkit.{name}")
        for name in ("cli", "newick", "datagen", "forest", "fpt", "approx", "reduction")
    }
    return types.SimpleNamespace(**mods)


def setup(workload, seed, directory):
    """Import, generate the corpus and write its files; returns (mk, cases)."""
    mk = import_mafkit()
    cases = workload.build(seed, mk)
    shutil.rmtree(directory, ignore_errors=True)
    workloads.write_corpus(cases, directory)
    return mk, cases


def timed_setups(workload, seed, directory):
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S:
        gc.collect()
        t0 = time.perf_counter()
        mk, cases = setup(workload, seed, directory)
        times.append(time.perf_counter() - t0)
    return mk, cases, times


# -- operations ---------------------------------------------------------------


def _reference_tree(n):
    rng = random.Random(1)
    adj, edges = {0: {}}, {}
    for v in range(1, n):
        u = rng.randrange(v)
        edges[len(edges)] = (u, v)
        adj[u][len(edges) - 1] = v
        adj[v] = {len(edges) - 1: u}
    labels = {v: f"t{v}" for v in adj if len(adj[v]) == 1}
    return adj, edges, labels


REF_TREE = _reference_tree(REF_VERTICES)


def reference_loop():
    """Fixed pure-Python work of the kind mafkit does most: split a tree at
    an edge by a breadth-first walk over dict adjacency, and compare the
    label sets of the two sides.  It calls no mafkit code, so no change to
    mafkit moves it."""
    adj, edges, labels = REF_TREE
    total = 0
    for eid in range(0, len(edges), 4):
        u, _ = edges[eid]
        side = {u}
        queue = collections.deque((u,))
        while queue:
            x = queue.popleft()
            for e, w in adj[x].items():
                if e != eid and w not in side:
                    side.add(w)
                    queue.append(w)
        s1 = frozenset(labels[x] for x in side if x in labels)
        s2 = frozenset(labels[x] for x in adj if x in labels and x not in side)
        total += len(s1) + len(s2) + (s1 <= s2)
    return total


def ref_seconds():
    """Time of one reference loop, with the collector off so that the size
    of the program's heap cannot reach it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def attempt(workload, mk, case):
    """Run and check one operation; an exception is a failed operation."""
    t0 = time.perf_counter()
    try:
        outcome = workload.op(mk, case)
    except Exception as exc:  # RecursionError included: it must count, not abort
        reason = f"{type(exc).__name__}: {exc}"[:200]
        outcome = workloads.Outcome(False, reason, raised=True)
    return time.perf_counter() - t0, outcome


def loop(cases, seconds, step):
    """Closed loop over whole passes of the corpus while time is left.

    ``step(case)`` runs one operation and returns its record.  One untimed
    warm-up operation on ``cases[0]`` comes first; ``gc.collect()`` runs
    between operations.  A further pass starts only if a pass of the mean
    length so far still ends within ``seconds``; the first always runs.
    Returns the warm-up record and one list of records per pass.
    """
    warm = step(cases[0])
    passes = []
    t0 = time.perf_counter()
    while True:
        one = []
        for case in cases:
            gc.collect()
            one.append(step(case))
        passes.append(one)
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            return warm, passes


# -- environment and counter identity --------------------------------------


def code_hash(*directories):
    h = hashlib.sha256()
    for directory in directories:
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def environment():
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_hash": code_hash(PKG),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def compare_counters(path, counts):
    """Counters of one seed must repeat exactly for the same code.

    Returns a list of differences against an earlier run's file, and records
    this run's counters when there is none.
    """
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        return [
            f"{k}: {earlier.get(k)} then {counts.get(k)}"
            for k in sorted(set(earlier) | set(counts))
            if earlier.get(k) != counts.get(k)
        ]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    return []


# -- the two kinds of run -------------------------------------------------------


def untraced_run(workload, seed, seconds):
    """End-to-end metrics, no instrumentation.

    Operation times are in *refs*: the wall time of the operation divided
    by the mean time of the reference loop run just before and just after
    it.  The machine's speed steps between levels 1.4–1.9× apart for seconds
    to minutes at a time; the reference loop slows with it, so the ratio
    keeps to what the program does.  It keeps best for the solvers, whose
    times move with the loop's almost one for one; a Newick round trip slows
    less than the loop does, so on ``newick-io`` a slow machine reads a few
    per cent cheap.  The cost of an input is the median of its runs, one per
    pass.  ``op_ref.*`` are taken over the inputs that succeed in every pass,
    and ``ops_per_kref`` is their number per 1000 refs of the summed costs of
    all inputs.
    """
    mk, cases, setup_times = timed_setups(workload, seed, WORK)

    def measured(case):
        before = ref_seconds()
        dt, outcome = attempt(workload, mk, case)
        ref = (before + ref_seconds()) / 2
        return dt, outcome, ref

    _, passes = loop(cases, seconds, measured)
    outcomes = [out for one in passes for _, out, _ in one]
    cost = [statistics.median(one[i][0] / one[i][2] for one in passes)
            for i in range(len(cases))]
    wall = [statistics.median(one[i][0] for one in passes) for i in range(len(cases))]
    ok = [i for i in range(len(cases)) if all(one[i][1].ok for one in passes)]
    ok_cost = [cost[i] for i in ok]
    n_failed = sum(1 for o in outcomes if not o.ok)
    ref_s = statistics.median(r for one in passes for _, _, r in one)
    metrics = {
        "ops_per_kref": 1000.0 * len(ok) / sum(cost),
        "op_ref.p50": statistics.median(ok_cost) if ok else 0.0,
        "op_ref.tail": max(ok_cost, default=0.0),
        "ok_ratio": 1.0 - n_failed / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    notes = [
        f"ops {len(outcomes)} in {len(passes)} passes of {len(cases)} inputs, "
        f"failed {n_failed} (failed_ratio {n_failed / len(outcomes):.4f})",
        f"op_ref.p50 and op_ref.tail over the median of {len(passes)} runs of "
        f"each of {len(ok)} ok inputs; tail is the slowest input, because no "
        f"percentile has 10 of {len(ok)} inputs beyond it",
        f"median op cost in refs {[round(c, 2) for c in cost]}",
        f"median op wall times in s {[round(t, 4) for t in wall]}; "
        f"median ref {1000 * ref_s:.2f} ms; wall ops_per_s {len(ok) / sum(wall):.4f}",
        f"setup_s is the median of {[round(t, 4) for t in setup_times]}",
    ]
    notes += [f"failure: {r}" for r in sorted({o.reason for o in outcomes if not o.ok})]
    return outcomes, metrics, notes, []


class Pair(NamedTuple):
    """One input run untraced and then traced."""

    case: workloads.Case
    plain_s: float
    plain: workloads.Outcome
    traced_s: float
    traced: workloads.Outcome
    op: spans.OpTrace


def traced_run(workload, seed, seconds):
    """Per-layer metrics: each input untraced, then traced."""
    mk = import_mafkit()
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    setup_op = rec.start_op()
    try:
        cases = workload.build(seed, mk)
    finally:
        uninstall()
    shutil.rmtree(WORK, ignore_errors=True)
    workloads.write_corpus(cases, WORK)

    def paired(case):
        plain_s, plain = attempt(workload, mk, case)
        undo = spans.install(rec)
        op = rec.start_op()
        try:
            traced_s, outcome = attempt(workload, mk, case)
        finally:
            undo()
        return Pair(case, plain_s, plain, traced_s, outcome, op)

    # the warm-up repeats the first input of the first pass, so every run
    # compares the counters of at least one input made twice
    warm, passes = loop(cases, seconds, paired)
    records = [r for one in passes for r in one]
    errors = []
    first = {warm.case.name: warm.op.counts()}
    for r in records:
        if r.traced.ok != r.plain.ok:
            errors.append(f"{r.case.name}: traced and untraced results differ")
        if first.setdefault(r.case.name, r.op.counts()) != r.op.counts():
            errors.append(f"{r.case.name}: counters differ between repeats of one input")

    # counts over the first pass, which every run makes
    counted = passes[0]
    counts = {}
    for r in counted:
        for name, value in r.op.counts().items():
            if name == "fpt.max_depth":
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
    search = {k: v for k, v in counts.items() if k.startswith(("fpt.", "approx.steps."))}
    # keyed by the package and the benchmark code: a changed corpus or
    # counter is a different measurement, not a changed count
    key = code_hash(PKG, HERE)
    counter_file = os.path.join(OUT, f"counters-{workload.name}-s{seed}-{key}.json")
    errors += [f"counter changed between runs: {d}"
               for d in compare_counters(counter_file, search)]

    metrics = stats.layer_metrics([r.op for r in records], setup_op, counts)
    metrics.update(stats.quality_metrics([r.traced for r in counted if r.traced.ok]))
    plain_total = sum(r.plain_s for r in records)
    traced_total = sum(r.traced_s for r in records)
    metrics["trace.overhead_ratio"] = traced_total / plain_total - 1.0
    metrics["trace.overhead_ms"] = 1000.0 * (traced_total - plain_total) / len(records)
    notes = [
        f"ops {len(records)} traced, each paired with the same op untraced; "
        f"counts over the first {len(counted)} ops",
        f"tracing overhead {metrics['trace.overhead_ratio']:.2%} "
        f"({metrics['trace.overhead_ms']:.1f} ms per op)",
    ]
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{workload.name}-s{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"env": environment(), "metrics": metrics, "errors": errors},
                  fh, indent=1, sort_keys=True)
    return [r.traced for r in records], metrics, notes, errors


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    if not os.path.isdir(PKG):
        raise SystemExit(f"benchmark error: no mafkit sources under {SRC}")
    workload = workloads.WORKLOADS[args.workload]
    print(f"# env {json.dumps(environment(), sort_keys=True)}", file=sys.stderr)
    run = traced_run if args.trace else untraced_run
    try:
        outcomes, metrics, notes, errors = run(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"benchmark error: metrics not produced: {missing}")
    for note in notes:
        print(f"# {note}")
    for err in errors:
        print(f"benchmark error: {err}", file=sys.stderr)
    out = {}
    for m in declared:
        value = float(metrics[m["name"]])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:>11} {m['name']:<40} {value:>14.6g} {m['unit']:<6} "
              f"{m['better']} is better")
    wrong = [o.reason for o in outcomes if not o.ok and not o.raised]
    for reason in wrong[:5]:
        print(f"wrong result: {reason}", file=sys.stderr)
    result = {
        "correct": not wrong and not errors,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if not o.ok),
        "metrics": out,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
