"""Bounds from the approximation with the input trees in any order."""

import csv
import io
import itertools
import os
import random

import pytest

import mafkit as mk
from mafkit import cli

from helpers import approximate

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def reordered(inst, order):
    return mk.Instance(inst.rooted, tuple(inst.forests[i] for i in order), inst.name)


def pair_first_orders(m):
    """Every ordered pair of trees put first, the rest in input order."""
    for i, j in itertools.permutations(range(m), 2):
        yield (i, j, *(t for t in range(m) if t not in (i, j)))


def sweep(seed, count):
    """``count`` generated instances, n 6–16, m 2–4, rooted and unrooted in turn."""
    rng = random.Random(seed)
    for i in range(count):
        spec = mk.GenSpec(n=rng.randint(6, 16), m=rng.randint(2, 4), x=rng.randint(1, 2),
                          seed=rng.randrange(10**9), rooted=i % 2 == 0)
        yield mk.generate_instance(spec), None


# unrooted (instance, order) pairs on which the approximation's unrooted path
# step once cut two edges off one interior vertex, and the bound passed the
# optimum
UNSOUND_BEFORE = [
    ((21, 2, 2, 1127), (1, 0)),
    ((15, 3, 2, 63), (2, 0, 1)),
    ((18, 3, 1, 1255), (1, 0, 2)),
]


def named():
    for (n, m, x, seed), order in UNSOUND_BEFORE:
        yield mk.generate_instance(mk.GenSpec(n=n, m=m, x=x, seed=seed, rooted=False)), order


def test_bounds_hold_with_any_pair_of_trees_first():
    ratio_met = 0
    for inst, only in itertools.chain(named(), sweep(29, 60)):
        opt = mk.find_min_k(inst).order
        for order in [only] if only else pair_first_orders(inst.m):
            tried = reordered(inst, order)
            ares = approximate(tried)
            r = 3 if inst.rooted else 4
            merged = mk.coarsen(tried, ares.forest)
            assert -(-ares.order // r) <= ares.lower_bound() <= opt <= merged.order(), (
                inst.name, order)
            assert mk.certify(merged, inst).verify(inst)
            ratio_met += ares.lower_bound() == opt
    # the bound is often the optimum itself
    assert ratio_met > 100


def test_unrooted_path_step_keeps_the_bound_under_the_optimum(capsys):
    # three unrooted trees whose approximation once claimed a bound of 4
    path = os.path.join(DATA, "unrooted_path_step.nwk")
    assert cli.main(["pmaf", path, "--unrooted", "--verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "order 3"
    assert "verified against 3 input trees" in lines
    inst = cli._read_instance(path, rooted=False)
    assert approximate(inst).lower_bound() <= mk.find_min_k(inst).order == 3


@pytest.fixture
def approximations(monkeypatch):
    """``(instance, result)`` of each approximation the bootstrap runs, in
    call order."""
    seen = []
    for name in ("approx_rmaf", "approx_umaf"):
        original = getattr(mk.approx, name)

        def counted(instance, original=original):
            seen.append((instance, original(instance)))
            return seen[-1][1]

        monkeypatch.setattr(mk.approx, name, counted)
    return seen


def test_bootstrap_tries_orders_until_the_gap_is_below_two(approximations):
    for inst, _ in sweep(31, 40):
        opt = mk.find_min_k(inst).order
        approximations.clear()
        boot = mk.bootstrap(inst)
        assert approximations[0][0] is inst and boot.given is approximations[0][1]
        assert boot.lower_bound <= opt <= boot.incumbent.order()
        assert mk.certify(boot.incumbent, inst).verify(inst)
        # the given order, then each ordered pair put first in turn
        tried = [tuple(inst.forests.index(f) for f in t.forests) for t, _ in approximations]
        assert tried == list(pair_first_orders(inst.m))[:len(tried)]
        # the largest bound and the smallest merged order, each order's
        # forest merged only while the gap is still 2 or more, and the
        # orders tried up to the first that brings the gap below 2
        lower, best = 0, inst.n_labels + 1
        for at, (tried_inst, ares) in enumerate(approximations):
            assert at == 0 or best - lower >= 2
            lower = max(lower, ares.lower_bound())
            if at == 0 or best - lower >= 2:
                best = min(best, mk.coarsen(tried_inst, ares.forest).order())
        assert (boot.lower_bound, boot.incumbent.order()) == (lower, best)
        assert best - lower < 2 or len(tried) == inst.m * (inst.m - 1)


def test_gap_of_one_runs_one_approximation(tmp_path, capsys, approximations):
    path = tmp_path / "i.nwk"
    cli.main(["gen", "-n", "12", "-m", "3", "-x", "2", "--seed", "5", "--out", str(path)])
    assert cli.main(["pmaf", str(path), "--verify"]) == 0
    assert "# bootstrap k'=7 start k=3 merged=4" in capsys.readouterr().out.splitlines()
    assert len(approximations) == 1


def test_swapped_trees_give_the_optimum_without_search(tmp_path, capsys, approximations):
    # the given order merges to 9 against a bound of 6; with the two trees
    # swapped the merged forest has order 6, so no k is searched
    path = tmp_path / "i.nwk"
    cli.main(["gen", "-n", "40", "-m", "2", "-x", "5", "--seed", "47", "--out", str(path)])
    assert cli.main(["pmaf", str(path), "--verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "order 6"
    assert "# bootstrap k'=14 start k=6 merged=6" in lines
    assert next(l for l in lines if l.startswith("# k=")).startswith("# k=6 nodes=0 ")
    assert len(approximations) == 2
    # ``maf bench`` starts its exact run from the same bootstrap, handing it
    # the approximation it runs itself, so the bootstrap runs one more
    assert cli.main(["bench", str(tmp_path), "--mode", "fpt"]) == 0
    row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert (row["method"], row["order"], row["nodes"]) == ("fpt", "6", "0")
    assert len(approximations) == 3
