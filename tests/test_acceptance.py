"""Acceptance gate: each criterion runs at its stated tolerance.

Every test prints one PASS line (visible with ``pytest -s`` or in captured
output); a failed assertion is the FAIL signal.  The shared corpus covers
rooted and unrooted instances with |X| in [4, 8], m in {2, 3} and x in
{0, 1, 2}, four seeds per cell: 240 instances, all oracle-tractable.
"""

import os
import random
import time
from dataclasses import dataclass

import pytest

import mafkit as mk

from helpers import (
    approximate,
    random_forest,
    rebuilt,
    reduction_preserves_optimum,
    reductions_seen,
)
from test_ground_truth import optimum


@dataclass
class Record:
    spec: mk.GenSpec
    inst: mk.Instance
    opt: int
    minres: "mk.MinKResult"
    approx: "mk.ApproxResult"
    reductions: list  # (f1, f2, (f1, reduced f2, removals)) per reduce_pair call


def _build_corpus():
    records = []
    for rooted in (True, False):
        taxa = range(3, 8) if rooted else range(4, 9)  # |X| spans 4..8 both ways
        for n in taxa:
            for m in (2, 3):
                for x in (0, 1, 2):
                    for s in range(4):
                        spec = mk.GenSpec(
                            n=n, m=m, x=x, seed=1009 * s + 13 * n + 7 * m + x,
                            rooted=rooted,
                        )
                        inst = mk.generate_instance(spec)
                        opt = mk.brute_force_maf(inst).opt_order
                        with reductions_seen() as calls:
                            minres = mk.find_min_k(inst)
                            res = approximate(inst)
                        records.append(Record(spec, inst, opt, minres, res, calls))
    return records


@pytest.fixture(scope="module")
def corpus():
    t0 = time.perf_counter()
    records = _build_corpus()
    elapsed = time.perf_counter() - t0
    print(f"\n[corpus] {len(records)} instances solved three ways in {elapsed:.1f}s")
    return records


def test_criterion_1_oracle_exactness(corpus):
    assert len(corpus) >= 200
    wrong = [r for r in corpus if r.minres.order != r.opt]
    assert not wrong, [(r.spec, r.opt, r.minres.order) for r in wrong[:5]]
    assert all(r.minres.af.verify(r.inst) for r in corpus)
    print(f"criterion 1 PASS: find_min_k == oracle on {len(corpus)}/{len(corpus)} instances")


def test_criterion_2_approximation_ratio(corpus):
    worst_rooted = 0.0
    worst_unrooted = 0.0
    for r in corpus:
        limit = 3 if r.spec.rooted else 4
        assert r.approx.order <= limit * r.opt, (r.spec, r.approx.order, r.opt)
        ratio = r.approx.order / r.opt
        if r.spec.rooted:
            worst_rooted = max(worst_rooted, ratio)
        else:
            worst_unrooted = max(worst_unrooted, ratio)
    assert worst_rooted <= 3.0
    print(
        "criterion 2 PASS: zero ratio violations "
        f"(worst rooted {worst_rooted:.3f} <= 3, worst unrooted {worst_unrooted:.3f} <= 4)"
    )


def test_criterion_3_search_tree_bound(corpus):
    for r in corpus:
        base = 3 if r.spec.rooted else 4
        for st in r.minres.attempts:
            assert st.leaves <= base**st.k, (r.spec, st.k, st.leaves)
            assert st.max_depth <= st.k
    total = sum(len(r.minres.attempts) for r in corpus)
    print(f"criterion 3 PASS: leaves <= {{3,4}}^k with no slack across {total} searches")


def test_criterion_4_generation_bound(corpus):
    rooted = [r for r in corpus if r.spec.rooted]
    assert len(rooted) >= 50
    for r in rooted:
        assert r.opt <= r.spec.order_bound(), (r.spec, r.opt)
    print(f"criterion 4 PASS: oracle order <= x*(m-1)+1 on {len(rooted)} rooted instances")


def test_criterion_5_reduction_preservation(corpus):
    # every pair the contract admits (see ``reduction``): each input pair
    # (Ti, Tj), which admits no removal, and every pair the solvers reduced
    pairs = removed = 0
    for r in corpus:
        forests = r.inst.forests
        inputs = [(ti, tj) for ti in forests for tj in forests if ti is not tj]
        for ti, tj in inputs:
            assert mk.reduce_pair(ti, tj)[1] is tj, r.spec
        seen = set()
        for f1, f2, (_, reduced, removals) in r.reductions:
            key = (f1.canonical_key(), f2.canonical_key())
            if removals and key not in seen:
                seen.add(key)
                assert reduction_preserves_optimum(f1, f2, reduced), r.spec
                removed += 1
        pairs += len(inputs) + len(r.reductions)
    assert len(corpus) >= 200 and removed > 100
    print(f"criterion 5 PASS: optimum preserved on {pairs} pairs of {len(corpus)} instances, "
          f"{removed} distinct pairs with removals checked by the oracle")


def test_exact_search_start_is_a_lower_bound(corpus):
    # ``maf pmaf`` starts its ascent at ⌈k'/ratio⌉: the audited ratio puts
    # the optimum there or above
    for r in corpus:
        ratio = 3 if r.spec.rooted else 4
        assert -(-r.approx.order // ratio) <= r.opt, (r.spec, r.approx.order, r.opt)
    print(f"start bound PASS: ⌈k'/ratio⌉ <= optimum on {len(corpus)} instances")


def test_trace_lower_bound_never_exceeds_the_optimum(corpus):
    # ``maf pmaf`` starts at ``ApproxResult.lower_bound()``: at least
    # ⌈k'/ratio⌉, at most the optimum
    above_ratio = 0
    for r in corpus:
        ceiling = -(-r.approx.order // (3 if r.spec.rooted else 4))
        assert ceiling <= r.approx.lower_bound() <= r.opt, (r.spec, r.approx.order, r.opt)
        above_ratio += r.approx.lower_bound() > ceiling
    print(f"trace bound PASS: ⌈k'/ratio⌉ <= lower_bound() <= optimum on {len(corpus)} "
          f"instances, above ⌈k'/ratio⌉ on {above_ratio}")


def test_incumbent_keeps_every_exact_order(corpus):
    # the merged forest lies between the bounds, and an ascent that stops
    # below it finds the oracle's order
    answered = 0
    for r in corpus:
        merged = mk.coarsen(r.inst, r.approx.forest)
        assert r.approx.lower_bound() <= r.opt <= merged.order() <= r.approx.order
        res = mk.find_min_k(r.inst, r.approx.lower_bound(), incumbent=merged)
        assert res.order == r.opt, (r.spec, res.order, r.opt)
        assert all(st.k < merged.order() for st in res.attempts)
        answered += res.af.forest is merged
    print(f"incumbent PASS: find_min_k == oracle on {len(corpus)} instances, "
          f"{answered} answered by the merged forest")


def test_exact_orders_match_the_independent_oracle(corpus):
    # the oracle of criterion 1 derives forests through the solver's own
    # code; this one shares none, and tries every partition of at most 7
    # labels, ρ included
    small = [r for r in corpus if r.inst.n_labels <= 7]
    assert len(small) >= 190
    for r in small:
        want = optimum(mk.format_instance(r.inst).splitlines(), r.spec.rooted)
        assert r.minres.order == want, (r.spec, r.minres.order, want)
    print(f"independent oracle PASS: find_min_k == partition oracle on {len(small)} "
          f"instances of at most 7 labels")


def test_sibling_table_files_each_pick_under_its_hub(corpus):
    # ``next_case`` groups the partner around the hub its sibling-set table
    # files the picked set under, without classifying the set there: every
    # set picked in a run, on every pair the solvers reduced, is filed under
    # the hub ``sibling_case`` names
    picks = 0
    for r in corpus:
        for f1, _, (_, f2, _) in r.reductions:
            while (mss := f2.find_mss()) is not None:
                filed = [v for v, (_, labels) in f2._mss.items() if labels == mss]
                assert filed == [f2.sibling_case(mss).hub] == [f2._filed_hub(mss)], r.spec
                picks += 1
                if f1.sibling_case(mss).kind != "mss":
                    break
                f1, f2 = f1.group_labels(mss), f2.group_labels(mss)
    assert picks > 1000
    print(f"table hubs PASS: {picks} picked sets filed under their hub")


def test_criterion_6_throughput():
    inst = mk.generate_instance(mk.GenSpec(n=50, m=5, x=2, seed=606))
    t0 = time.perf_counter()
    res = mk.approx_rmaf(inst)
    amaf_s = time.perf_counter() - t0
    assert res.order >= 1
    assert amaf_s < 2.0, f"amaf on t50-5 took {amaf_s:.2f}s (>2x the 1s target)"

    pmaf_times = []
    for seed in (41, 42):
        inst = mk.generate_instance(mk.GenSpec(n=40, m=2, x=5, seed=seed))
        t0 = time.perf_counter()
        ares = mk.approx_rmaf(inst)
        exact = mk.find_min_k(inst, max(1, ares.order // 3))
        dt = time.perf_counter() - t0
        pmaf_times.append(dt)
        assert exact.order <= 6
        assert dt < 120.0, f"pmaf on t40-2 took {dt:.1f}s (>2x the 60s target)"
    slow = amaf_s > 1.0 or any(t > 60.0 for t in pmaf_times)
    note = " (over 1x target, within 2x: reported)" if slow else ""
    print(
        f"criterion 6 PASS: amaf t50-5 {amaf_s*1000:.0f}ms, "
        f"pmaf t40-2 {max(pmaf_times):.2f}s max{note}"
    )


POACEAE_DIR = os.environ.get("MAF_POACEAE_DIR")
POACEAE_SETS = [
    ("rpoC2_waxy_ITS.nwk", 5),
    ("ndhF_phyB_rbcL.nwk", 8),
    ("ndhF_phyB_rbcL_rpoC2_ITS.nwk", 10),
]


@pytest.mark.skipif(
    not POACEAE_DIR,
    reason="optional check: set MAF_POACEAE_DIR to a directory with the three "
    "grass-locus tree files (see README)",
)
def test_criterion_7_poaceae_orders():
    for fname, want in POACEAE_SETS:
        path = os.path.join(POACEAE_DIR, fname)
        with open(path, encoding="utf-8") as fh:
            inst = mk.parse_instance(fh.read(), rooted=True, name=fname)
        res = mk.find_min_k(inst)
        assert res.order == want, (fname, res.order, want)
    print("criterion 7 PASS: published orders 5, 8, 10 reproduced")


def test_criterion_8_validity_suites(corpus):
    rng = random.Random(88)
    for _ in range(30):
        f = random_forest(rng, rng.randint(3, 8), rooted=rng.random() < 0.5)
        # irreducible: contracting it again changes nothing
        g = rebuilt(f)
        assert g.same_structure(f)
        assert (len(g.vertices()), len(g.edge_ids())) == (len(f.vertices()), len(f.edge_ids()))
    for _ in range(30):
        rooted = rng.random() < 0.5
        spec = mk.GenSpec(n=rng.randint(3, 9), m=2, x=1, seed=rng.randrange(10**6),
                          rooted=rooted)
        t = mk.generate_instance(spec).forests[0]
        text = mk.serialize(t)
        assert mk.parse_instance(text, rooted).forests[0].same_structure(t)
    for r in corpus[:40]:
        assert r.minres.af.verify(r.inst)
        assert mk.certify(r.approx.forest, r.inst).verify(r.inst)
    print("criterion 8 PASS: contraction, round-trip and certificate suites clean")
