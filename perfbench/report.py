"""Run every workload, each run in a fresh process, and print one table.

    python3 perfbench/report.py                     # seed 0, end-to-end metrics
    python3 perfbench/report.py --trace 1           # per-layer metrics and overhead
    python3 perfbench/report.py --seeds 1-10 --write

Each metric is printed by name with its unit and direction, one column per
workload.  With several seeds a column holds the median over the runs and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, which must
stay within the metric's bound.  ``--write`` stores the figures in
``perfbench/baseline.json`` (end-to-end medians and quartiles, or the
per-layer values of one traced seed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    """One benchmark process; returns (result, environment, note lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    env = next((json.loads(ln[6:]) for ln in proc.stderr.splitlines()
                if ln.startswith("# env ")), {})
    notes = [ln[2:] for ln in lines if ln.startswith("# ")]
    return json.loads(lines[-1]), env, notes


def summary(values):
    if len(values) == 1:
        return {"median": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=[0], help="N or N-M")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    tables, runs, env, ok = {}, {}, {}, True
    for name in names:
        values = {}
        runs[name] = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            result, env, notes = run_once(name, seed, spec["run_seconds"], args.trace)
            wall = time.perf_counter() - t0
            runs[name].append({"seed": seed, "wall_s": round(wall, 1),
                               "attempted": result["attempted"], "failed": result["failed"],
                               "correct": result["correct"], "loadavg": env.get("loadavg")})
            print(f"{name} seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}", flush=True)
            for note in notes[1:]:
                print(f"    {note}")
            ok &= result["correct"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        tables[name] = {m["name"]: summary(values[m["name"]]) for m in declared}

    many = len(args.seeds) > 1
    print(f"\n{'metric':<42} {'unit':<6} {'better':<7}"
          + "".join(f"{n:>{22 if many else 14}}" for n in names))
    for m in declared:
        row = f"{m['name']:<42} {m['unit']:<6} {m['better']:<7}"
        for name in names:
            s = tables[name][m["name"]]
            row += (f"{s['median']:>12.5g} ±{s['spread']:<7.3f}" if many
                    else f"{s['median']:>14.6g}")
            if many and "bound" in m and s["spread"] > m["bound"]:
                row += "!"
                ok = False
        if "bound" in m:
            row += f"   bound {m['bound']}"
        print(row)

    if args.write:
        baseline = {}
        if os.path.exists(BASELINE):
            with open(BASELINE, encoding="utf-8") as fh:
                baseline = json.load(fh)
        section = "per_layer" if args.trace else "end_to_end"
        baseline[section] = {
            "seeds": args.seeds,
            "run_seconds": spec["run_seconds"],
            "env": env,
            "workloads": {
                name: {"runs": runs[name],
                       "metrics": {k: {f: round(v, 6) for f, v in s.items()}
                                   for k, s in tables[name].items()}}
                for name in names
            },
        }
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
