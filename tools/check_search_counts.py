"""Compare the search-shape counts of a traced benchmark run with a record.

    python3 perfbench/run.py --workload pmaf-exact --seed 1 --seconds 2 --trace 1 \
        | python3 tools/check_search_counts.py pmaf-exact tests/data/search_counts_seed1.json

Reads the run's output on stdin, takes its last line (one JSON object) and
compares every recorded count of the workload with it: the exact search's
``fpt.*`` counters, the approximation's ``approx.steps.*``, the
reduction's ``reduction.reduce_pair.removals``, and the call counts of the
scan and the derivations (``find_applicable``, one per ``reduce_pair``;
``split_labels``, which the solvers do not call; ``remove_edges``; and
``group_labels``, which the solvers do not call either, as
``reduction.next_case`` groups each run of sibling sets in one derivation
per forest).  It also compares ``forest.canonical_key.calls``: only
the Newick writer builds keys, one per forest it writes (a certificate, or
a tree of ``newick-io``), since the equality test builds none.  And it
compares the call counts of every other solver-layer span the trace
records: the sibling-set analysis (``find_mss``, ``sibling_case``), the
expansion, the certificate and its check (``expand_labels``, ``certify``,
``verify``) and the meta-step audit (``essential_subset``,
``check_metastep_ratio``).  These repeat exactly for one seed, and a change
that is meant to leave the search alone must not move them: an extra scan,
derivation, false-positive split, case analysis, audit or key shows.  Exits 1 and names every
count that differs.  With ``--write`` it records the run's counts for the
workload instead, and names every count that it changes with its old and
new value.
"""

from __future__ import annotations

import argparse
import json
import sys

COUNTS = (
    [f"fpt.{name}" for name in ("attempts", "nodes", "leaves", "max_depth", "case1",
                                "case2", "case31", "case32", "collapses", "rule1_edges")]
    + [f"approx.steps.{kind}" for kind in ("rule1", "group", "ms2", "ms31", "ms32")]
    + ["reduction.reduce_pair.removals"]
    + [f"{op}.calls" for op in ("reduction.find_applicable", "reduction.reduce_pair",
                                "forest.split_labels", "forest.remove_edges",
                                "forest.group_labels", "forest.canonical_key",
                                "forest.find_mss", "forest.sibling_case",
                                "forest.expand_labels", "forest.certify", "forest.verify",
                                "approx.essential_subset", "approx.check_metastep_ratio")]
)


def run_counts(text: str) -> dict[str, int]:
    """The search-shape counts in the last line of a traced run's output."""
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("no benchmark output")
    metrics = json.loads(lines[-1])["metrics"]
    return {name: int(metrics[name]["value"]) for name in COUNTS}


def differences(recorded: dict[str, int], got: dict[str, int]) -> list[tuple]:
    """``(name, recorded value, run's value)`` for every count that differs."""
    return [(name, recorded.get(name), got.get(name))
            for name in COUNTS if recorded.get(name) != got.get(name)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload")
    p.add_argument("record", help="JSON file: workload -> {count name: value}")
    p.add_argument("--write", action="store_true", help="record this run's counts")
    args = p.parse_args(argv)
    got = run_counts(sys.stdin.read())
    try:
        with open(args.record, encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {}
    diffs = differences(record.get(args.workload, {}), got)
    if args.write:
        record[args.workload] = got
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        for name, was, now in diffs:
            print(f"{args.workload}: {name}: {was} → {now}", file=sys.stderr)
        return 0
    for name, was, now in diffs:
        print(f"{args.workload}: {name}: recorded {was}, run gave {now}", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
