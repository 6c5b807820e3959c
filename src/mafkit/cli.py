"""Command-line surface: exact solving, approximation, generation, benchmarking.

``maf pmaf`` mirrors the experimental protocol: it first runs the
approximation to get an order k', starts the exact search at the lower bound
its trace gives (``ApproxResult.lower_bound``, at least ⌈k'/3⌉ rooted and
⌈k'/4⌉ unrooted), and walks k upward until a certificate appears, or up to
the coarsened approximation, which answers if every k below it fails.
``approx.bootstrap`` runs the approximation with other pairs of trees first
too while the bounds are 2 or more apart, and takes the best of each.
``maf amaf`` runs the approximation alone, ``maf gen`` writes simulated
instances, and ``maf bench`` sweeps a directory and emits one CSV row per
instance and method plus per-(n,m) aggregate rows; a file that fails to parse
or to solve gets an ``error`` row and the sweep goes on.

Exit codes: 0 success, 1 no solution under an explicit --k cap, 2 input
error, 3 internal error (any other exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

from .approx import approx_rmaf, approx_umaf, bootstrap
from .datagen import GenerationError, GenSpec, generate_instance
from .forest import Instance, MafError, certify
from .fpt import NoSolutionError, find_min_k
from .newick import NewickError, format_instance, parse_instance, serialize
from .oracle import OracleSizeError, brute_force_maf

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

CSV_FIELDS = [
    "instance",
    "n",
    "m",
    "rooted",
    "method",
    "order",
    "ratio",
    "wall_ms",
    "nodes",
    "leaves",
    "max_depth",
    "note",
]


def _default_seed() -> int:
    env = os.environ.get("MAF_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise GenerationError(f"MAF_SEED must be an integer, got {env!r}") from None


def _add_rootedness(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--rooted", dest="rooted", action="store_true", default=True,
                   help="treat trees as rooted (default)")
    g.add_argument("--unrooted", dest="rooted", action="store_false",
                   help="treat trees as unrooted")


def _read_instance(path, rooted) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_instance(text, rooted, name=os.path.basename(path))


def _approximate(instance):
    return approx_rmaf(instance) if instance.rooted else approx_umaf(instance)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_verified(instance):
    print(f"verified against {instance.m} input trees")


def _verify_or_die(af, instance):
    if not af.verify(instance):
        raise MafError("certificate failed re-validation against the inputs")
    _print_verified(instance)


def cmd_pmaf(args) -> int:
    instance = _read_instance(args.input, args.rooted)
    t0 = time.perf_counter()
    boot = bootstrap(instance)
    try:
        # a cap below the bound leaves no k to try, so this fails at once
        res = find_min_k(instance, boot.lower_bound, args.k, incumbent=boot.incumbent)
    except NoSolutionError:
        if args.k is None:
            raise
        print(f"no agreement forest of order <= {args.k}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    wall_ms = (time.perf_counter() - t0) * 1000.0
    cert = serialize(res.af.forest)
    print(f"order {res.order}")
    print(cert)
    print(f"# bootstrap k'={boot.given.order} start k={boot.lower_bound} "
          f"merged={boot.incumbent.order()}")
    print(f"# {res.stats.summary()} wall_ms={wall_ms:.1f}")
    if args.verify:
        _verify_or_die(res.af, instance)
    if args.out:
        _emit(cert + "\n", args.out)
    return EXIT_OK


def cmd_amaf(args) -> int:
    instance = _read_instance(args.input, args.rooted)
    t0 = time.perf_counter()
    res = _approximate(instance)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    cert = serialize(res.forest)
    print(f"order {res.order}")
    print(cert)
    counts = " ".join(f"{k}={v}" for k, v in res.step_counts().items())
    print(f"# ratio_bound={res.ratio_bound} steps: {counts} wall_ms={wall_ms:.1f}")
    if args.verify:
        # ``certify`` checks each input's witness by the removal it names and
        # raises on a failure, which is the comparison ``verify`` would repeat
        certify(res.forest, instance)
        _print_verified(instance)
    if args.out:
        _emit(cert + "\n", args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n,
        m=args.m,
        x=args.x,
        seed=_default_seed() if args.seed is None else args.seed,
        rooted=args.rooted,
        contract_count=args.contract,
    )
    instance = generate_instance(spec)
    _emit(format_instance(instance, header=spec.header()), args.out)
    return EXIT_OK


def _bench_file(job):
    """One worker unit: solve a single instance file every requested way."""
    path, rooted, mode = job
    name = os.path.basename(path)
    rows = []

    def row(**kw):
        base = {f: "" for f in CSV_FIELDS}
        base.update(instance=name, **kw)
        rows.append(base)

    exact_order = None
    approx_order = None
    try:
        instance = _read_instance(path, rooted)
        n, m = instance.taxa_count(), instance.m
        common = dict(n=n, m=m, rooted="1" if rooted else "0")
        if mode in ("all", "approx", "fpt"):
            t0 = time.perf_counter()
            ares = _approximate(instance)
            ms = (time.perf_counter() - t0) * 1000.0
            approx_order = ares.order
            if mode != "fpt":
                row(method="approx", order=ares.order, wall_ms=f"{ms:.2f}", **common)
        if mode in ("all", "fpt"):
            t0 = time.perf_counter()
            boot = bootstrap(instance, ares)
            res = find_min_k(instance, boot.lower_bound, incumbent=boot.incumbent)
            ms = (time.perf_counter() - t0) * 1000.0
            exact_order = res.order
            row(
                method="fpt",
                order=res.order,
                wall_ms=f"{ms:.2f}",
                nodes=res.stats.nodes,
                leaves=res.stats.leaves,
                max_depth=res.stats.max_depth,
                **common,
            )
        if mode in ("all", "oracle"):
            try:
                t0 = time.perf_counter()
                ores = brute_force_maf(instance)
                ms = (time.perf_counter() - t0) * 1000.0
                exact_order = ores.opt_order
                row(method="oracle", order=ores.opt_order, wall_ms=f"{ms:.2f}", **common)
            except OracleSizeError as exc:
                row(method="oracle", note=str(exc), **common)
    except (OSError, MafError) as exc:
        row(method="error", note=str(exc))
        return rows
    except Exception as exc:
        # a fault outside the package's own errors (say, a RecursionError on
        # a very deep tree) must not take the rest of the sweep down with it
        traceback.print_exc()
        row(method="error", note=f"{type(exc).__name__}: {exc}")
        return rows

    if approx_order is not None and exact_order:
        ratio_val = approx_order / exact_order
        for r in rows:
            if r["method"] == "approx":
                r["ratio"] = f"{ratio_val:.4f}"
    return rows


def cmd_bench(args) -> int:
    files = sorted(
        os.path.join(args.directory, f)
        for f in os.listdir(args.directory)
        if not f.startswith(".")
        and os.path.isfile(os.path.join(args.directory, f))
    )
    jobs = [(p, args.rooted, args.mode) for p in files]
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            per_file = list(pool.map(_bench_file, jobs))
    else:
        per_file = [_bench_file(j) for j in jobs]

    rows = [r for rs in per_file for r in rs]

    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        if r["method"] in ("error",) or r["n"] == "":
            continue
        groups.setdefault((r["n"], r["m"]), []).append(r)
    agg_rows = []
    for (n, m), rs in sorted(groups.items(), key=lambda kv: kv[0]):
        orders = [
            int(r["order"])
            for r in rs
            if r["method"] in ("fpt", "oracle") and r["order"] != ""
        ]
        if not orders:
            orders = [int(r["order"]) for r in rs if r["order"] != ""]
        ratios = [float(r["ratio"]) for r in rs if r["ratio"] != ""]
        agg = {f: "" for f in CSV_FIELDS}
        agg.update(
            instance=f"t{n}-{m}",
            n=n,
            m=m,
            rooted=rs[0]["rooted"],
            method="aggregate",
            order=f"{sum(orders) / len(orders):.3f}" if orders else "",
            ratio=f"{max(ratios):.4f}" if ratios else "",
            note=f"instances={len({r['instance'] for r in rs})}",
        )
        agg_rows.append(agg)

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in rows + agg_rows:
        writer.writerow(r)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maf",
        description="maximum agreement forests of multiple general phylogenetic trees",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("pmaf", help="exact minimum order with certificate")
    p.add_argument("input", help="instance file, one Newick tree per line")
    _add_rootedness(p)
    p.add_argument("--k", type=int, default=None, help="cap on the order searched")
    p.add_argument("--verify", action="store_true", help="re-validate the certificate")
    p.add_argument("--out", default=None, help="also write the certificate here")
    p.set_defaults(func=cmd_pmaf)

    p = sub.add_parser("amaf", help="approximate agreement forest")
    p.add_argument("input")
    _add_rootedness(p)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_amaf)

    p = sub.add_parser("gen", help="generate a simulated instance")
    p.add_argument("-n", type=int, required=True, help="taxa count")
    p.add_argument("-m", type=int, required=True, help="tree count")
    p.add_argument("-x", type=int, required=True, help="SPR moves per extra tree")
    p.add_argument("--contract", type=int, default=None,
                   help="internal edges to contract (default: random)")
    p.add_argument("--seed", type=int, default=None, help="default: $MAF_SEED, else 0")
    _add_rootedness(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run a directory of instances to CSV")
    p.add_argument("directory")
    _add_rootedness(p)
    p.add_argument("--mode", choices=["all", "fpt", "approx", "oracle"], default="all")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, NewickError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MafError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        # exit 1 means "no solution"; an unforeseen fault must not look like it
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
