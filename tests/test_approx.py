"""Approximation driver: ratio ceilings, meta-step bookkeeping, audits."""

import dataclasses
import gc
import weakref

import pytest

import mafkit as mk
from mafkit import approx
from mafkit.approx import GROUP, MS2, MS31, MS32, RULE1
from mafkit.forest import Forest, LabelTable

from helpers import (
    approximate,
    audited_steps,
    greedy_essential_by_order,
    random_forest,
    random_instance,
)
from test_deep_trees import ladder


def test_identical_trees(identical_rooted):
    res = mk.approx_rmaf(identical_rooted)
    assert res.order == 1
    assert res.ratio_bound == 1  # only safe steps were needed
    assert res.forest.same_structure(identical_rooted.forests[0])


def test_conflicting_pair_within_three_times(rooted_pair):
    res = mk.approx_rmaf(rooted_pair)
    assert 2 <= res.order <= 6  # optimum is 2
    for f in rooted_pair.forests:
        assert mk.is_subforest(res.forest, f)


def test_quartets_within_four_times(quartets):
    res = mk.approx_umaf(quartets)
    assert 2 <= res.order <= 8
    assert res.ratio_bound <= 4


def test_rootedness_dispatch(rooted_pair, quartets):
    with pytest.raises(mk.MafError):
        mk.approx_umaf(rooted_pair)
    with pytest.raises(mk.MafError):
        mk.approx_rmaf(quartets)


def test_ratio_ceiling_on_random_instances(rng):
    for _ in range(30):
        rooted = rng.random() < 0.5
        inst = random_instance(rng, rooted)
        opt = mk.brute_force_maf(inst).opt_order
        res = approximate(inst)
        limit = 3 if rooted else 4
        assert res.order <= limit * opt
        assert res.ratio_bound <= limit
        for f in inst.forests:
            assert mk.is_subforest(res.forest, f)


def test_every_record_passes_audit(rng):
    for _ in range(20):
        rooted = rng.random() < 0.5
        inst = random_instance(rng, rooted, x=rng.randint(1, 2))
        for rec, before, after in audited_steps(inst):
            assert mk.check_metastep_ratio(rec, before, after)


def test_audit_fails_a_record_of_unknown_kind(rooted_pair):
    for rec, before, after in audited_steps(rooted_pair):
        assert mk.check_metastep_ratio(rec, before, after)
        assert not mk.check_metastep_ratio(dataclasses.replace(rec, kind="bogus"), before, after)


def test_working_order_never_decreases(rng):
    for _ in range(15):
        inst = random_instance(rng, rooted=True, x=2)
        for _, before, after in audited_steps(inst):
            assert after.order() >= before.order()


def test_rule1_records_are_fully_essential(rooted_pair):
    res = mk.approx_rmaf(rooted_pair)
    rule1 = [r for r in res.trace if r.kind == RULE1]
    assert rule1
    for rec in rule1:
        assert len(rec.essential) == len(rec.removed_f1)
        assert rec.declared_ratio == 1


def test_ms31_scenario():
    # F2 has the cherry (a,b); in F1 they sit in different components
    table = LabelTable.from_names(["a", "b", "c", "d", mk.RHO])
    ids = {n: table.id_of(n) for n in ("a", "b", "c", "d", mk.RHO)}
    f1 = Forest.build(
        True,
        table,
        {1: ids["a"], 2: ids["c"], 3: ids[mk.RHO], 5: ids["b"], 6: ids["d"]},
        [(3, 0), (0, 1), (0, 2), (4, 5), (4, 6)],
    )
    f2 = mk.parse_instance("((a,b),(c,d));", rooted=True).forests[0]
    inst = mk.Instance(rooted=True, forests=(f1, f2))
    res = mk.approx_rmaf(inst)
    recs = [r for r in res.trace if r.kind == MS31]
    assert recs
    rec = recs[0]
    assert len(rec.removed_f1) == 2 and len(rec.essential) == 2
    assert rec.declared_ratio == 2


def test_ms2_rooted_scenario():
    # S={a,b} is maximal in F2 but in F1 shares its parent with x as well
    inst = mk.parse_instance("((a,b,x),c);\n((a,b),x,c);", rooted=True)
    res = mk.approx_rmaf(inst)
    recs = [r for r in res.trace if r.kind == MS2]
    assert recs
    rec = recs[0]
    assert len(rec.removed_f1) == 3
    assert len(rec.removed_partner) == 2
    assert rec.declared_ratio == 3
    assert len(rec.essential) <= 3


def test_ms2_unrooted_star_has_nontrivial_essential_subset():
    inst = mk.parse_instance("(a,b,x,y);\n((a,b),x,y);", rooted=False)
    res = mk.approx_umaf(inst)
    recs = [r for r in res.trace if r.kind == MS2]
    assert recs
    rec = recs[0]
    assert len(rec.removed_f1) == 4
    # cutting all four star edges makes the hub vanish: one cut is redundant
    assert len(rec.essential) == 3
    assert rec.declared_ratio == 4


def test_essential_subset_matches_the_greedy(rng):
    stranded = 0
    for i in range(360):
        f = random_forest(rng, rng.randint(4, 12), rooted=i % 2 == 0)
        eids = sorted(f.edge_ids())
        sub = rng.sample(eids, rng.randint(1, len(eids))) if eids else []
        ess = approx.essential_subset(f, sub)
        assert ess == greedy_essential_by_order(f, sub)
        assert f.remove_edges(ess).same_structure(f.remove_edges(sub))
        # an unlabeled piece left by the removal: some removed edge is dropped
        stranded += len(ess) < len(sub)
    assert stranded > 100


def test_essential_subset_of_nothing_builds_nothing(monkeypatch):
    f = mk.parse_instance("((a,b),c);\n((a,b),c);", rooted=True).forests[0]
    monkeypatch.setattr(Forest, "joined_without", None)
    assert approx.essential_subset(f, []) == ()


def test_essential_subset_rejects_unknown_edges():
    f = mk.parse_instance("((a,b),c);\n((a,b),c);", rooted=True).forests[0]
    with pytest.raises(mk.ForestError, match="unknown edge ids"):
        approx.essential_subset(f, [min(f.edge_ids()), 999])


def test_ms32_scenario(rooted_pair):
    res = mk.approx_rmaf(rooted_pair)
    recs = [r for r in res.trace if r.kind == MS32]
    assert recs and recs[0].declared_ratio == 3
    assert len(recs[0].removed_f1) == 3


def test_group_records_remove_nothing():
    # the trees share the cherry (a,b) but disagree elsewhere, so the driver
    # groups the cherry before it has to cut anything
    inst = mk.parse_instance("((a,b),(c,d));\n((a,b),c,d);", rooted=True)
    res = mk.approx_rmaf(inst)
    groups = [r for r in res.trace if r.kind == GROUP]
    assert groups
    for rec in groups:
        assert rec.removed_f1 == () and rec.removed_partner == ()
        assert rec.essential == ()
        assert rec.declared_ratio == 1


def test_auditing_a_group_record_builds_no_key(monkeypatch):
    # a GROUP record removes nothing, so its audit compares a forest with
    # itself; that needs no canonical key
    inst = mk.parse_instance("((a,b),(c,d));\n((a,b),c,d);", rooted=True)
    groups = [step for step in audited_steps(inst) if step[0].kind == GROUP]
    keyed = []
    canonical_key = Forest.canonical_key

    def counting(self):
        keyed.append(self)
        return canonical_key(self)

    monkeypatch.setattr(Forest, "canonical_key", counting)
    assert groups
    for step in groups:
        assert approx.check_metastep_ratio(*step)
    assert keyed == []


def test_auditing_derives_only_a_partial_essential_removal(rng, monkeypatch):
    # the step's own after is the removal of all its edges, so the audit
    # derives nothing when every removed edge is essential, and only the
    # essential removal otherwise
    derived = []
    remove_edges = Forest.remove_edges

    def counting(self, eids):
        derived.append(tuple(sorted(eids)))
        return remove_edges(self, eids)

    steps = [step for _ in range(30)
             for step in audited_steps(random_instance(rng, rng.random() < 0.5,
                                                       n=rng.randint(8, 14), x=2))
             if step[0].removed_f1]
    monkeypatch.setattr(Forest, "remove_edges", counting)
    full = partial = 0
    for rec, before, after in steps:
        derived.clear()
        assert approx.check_metastep_ratio(rec, before, after)
        if set(rec.essential) == set(rec.removed_f1):
            assert derived == []
            full += 1
        else:
            assert derived == [rec.essential]
            partial += 1
        # the identities are still checked against the after it is given
        assert not approx.check_metastep_ratio(rec, before, before)
    assert full > 20 and partial > 5


@pytest.mark.parametrize("rooted", [True, False])
def test_only_the_result_outlives_the_approximation(rooted, rng, monkeypatch):
    # a record keeps edge ids, not forests, so once the call returns every
    # forest it derived is garbage but the one it hands back
    inst = mk.parse_instance(ladder(200, rng) + "\n" + ladder(200, rng) + "\n", rooted)
    made = []
    copy = Forest._copy

    def tracked(self):
        f = copy(self)
        made.append(weakref.ref(f))
        return f

    monkeypatch.setattr(Forest, "_copy", tracked)
    res = approximate(inst)
    monkeypatch.undo()
    gc.collect()
    alive = [f for f in (ref() for ref in made) if f is not None]
    assert len(made) > 100
    assert len(alive) == 1 and alive[0] is res.forest


def test_output_is_over_original_labels(rng):
    inst = random_instance(rng, rooted=True, x=1)
    res = mk.approx_rmaf(inst)
    assert not res.forest.has_grouped_labels()
    assert res.forest.original_label_ids() == inst.forests[0].original_label_ids()


def test_step_counts_sum_to_trace(rooted_pair):
    res = mk.approx_rmaf(rooted_pair)
    assert sum(res.step_counts().values()) == len(res.trace)


def test_groupings_do_not_rescan(rng, monkeypatch):
    # right after a GROUP record the pair is still reduced and unequal, so
    # neither the reduction nor the working-pair equality test runs
    events = []
    busy = []
    record, reduce_pair, same = approx._record, approx.reduce_pair, Forest.same_structure

    def logged(name, fn):
        def wrapper(*args):
            busy.append(name)
            try:
                got = fn(*args)
            finally:
                busy.pop()
            if not busy:
                events.append(args[0] if name == "record" else name)
            return got
        return wrapper

    monkeypatch.setattr(approx, "_record", logged("record", record))
    monkeypatch.setattr(approx, "reduce_pair", logged("reduce", reduce_pair))
    monkeypatch.setattr(Forest, "same_structure", logged("same", same))
    groupings = 0
    for _ in range(40):
        inst = random_instance(rng, rooted=rng.random() < 0.5, n=rng.randint(10, 20),
                               m=rng.randint(2, 4), x=rng.randint(1, 3))
        events.clear()
        approximate(inst)
        for before, after in zip(events, events[1:]):
            if before == GROUP:
                groupings += 1
                assert after not in ("reduce", "same")
        assert "reduce" in events and "same" in events
    assert groupings > 100


def test_lower_bound_never_exceeds_the_optimum(rng):
    # 1 + the partner-1 steps with an essential edge bounds the optimum of
    # (T1, T2), hence of the instance; it is never below ⌈k'/ratio⌉
    above_ratio = 0
    for i in range(320):
        rooted = i % 2 == 0
        inst = random_instance(rng, rooted=rooted, n=rng.randint(5, 10),
                               m=rng.randint(2, 4), x=rng.randint(1, 3))
        res = approximate(inst)
        ceiling = -(-res.order // (3 if rooted else 4))
        assert ceiling <= res.lower_bound() <= mk.find_min_k(inst).order, inst.name
        above_ratio += res.lower_bound() > ceiling
    assert above_ratio > 50


def test_lower_bound_counts_only_partner_one_steps():
    # T1 = T2, so partner 1 needs no step; every cut comes from T3
    inst = mk.parse_instance("((a,b),(c,d));\n((a,b),(c,d));\n((a,c),(b,d));",
                             rooted=True)
    res = mk.approx_rmaf(inst)
    assert all(rec.partner_index == 2 for rec in res.trace if rec.essential)
    assert res.lower_bound() == max(1, -(-res.order // 3))
