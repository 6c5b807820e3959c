"""Reduction rule: applicability, fixpoints, optimum preservation."""

import mafkit as mk

from helpers import random_instance


def test_singleton_triggers_leaf_removal():
    inst = mk.parse_instance("((a,b),c);\n((a,b),c);", rooted=True)
    full = inst.forests[0]
    b = full.labels.id_of("b")
    fp = full.remove_edges([full.pendant_edge(b)])  # b is a singleton here
    f1, f2, trace = mk.reduce_pair(fp, full)
    assert len(trace) >= 1
    first = trace[0]
    assert first.q_index == 1
    assert first.edge == full.pendant_edge(b)
    assert f1.same_structure(f2)


def test_identical_forests_no_removals():
    inst = mk.parse_instance("((a,b),(c,d));\n((a,b),(c,d));", rooted=True)
    f1, f2, trace = mk.reduce_pair(*inst.forests)
    assert len(trace) == 0
    assert f1.same_structure(inst.forests[0])


def test_component_union_side_removed():
    # F_p has components {a,b} and {c,d}; the host edge separating them goes
    inst = mk.parse_instance("((a,b),(c,d));\n((a,b),(c,d));", rooted=False)
    full = inst.forests[0]
    mid = next(
        e
        for e in full.edge_ids()
        if full.label_of(full.edge_ends(e)[0]) is None
        and full.label_of(full.edge_ends(e)[1]) is None
    )
    fp = full.remove_edges([mid])
    f1, f2, trace = mk.reduce_pair(fp, full)
    assert len(trace) == 1
    assert trace[0].q_index == 1
    assert f1.label_partition() == f2.label_partition()
    # optimum unchanged: both pairs have agreement order 2
    before = mk.brute_force_maf(mk.Instance(rooted=False, forests=(fp, full)))
    after = mk.brute_force_maf(mk.Instance(rooted=False, forests=(f1, f2)))
    assert before.opt_order == after.opt_order == 2


def test_all_singletons_propagate():
    inst = mk.parse_instance("((a,b),c);\n((a,c),b);", rooted=True)
    f1 = inst.forests[0]
    sing = f1.remove_edges(sorted(f1.edge_ids()))
    red, trace = mk.reduce_instance(
        mk.Instance(rooted=True, forests=(sing, inst.forests[1]))
    )
    assert all(f.order() == 4 for f in red.forests)
    # contraction absorbs edges, so fewer explicit removals than edges suffice
    assert 1 <= len(trace) <= len(list(inst.forests[1].edge_ids()))


def test_reduce_instance_preserves_optimum(rng):
    for _ in range(30):
        inst = random_instance(rng, rooted=rng.random() < 0.5, n=rng.randint(4, 6))
        before = mk.brute_force_maf(inst).opt_order
        red, trace = mk.reduce_instance(inst)
        after = mk.brute_force_maf(red).opt_order
        assert before == after
        total_edges = sum(len(list(f.edge_ids())) for f in inst.forests)
        assert len(trace) <= total_edges


def test_trace_witnesses_recorded():
    inst = mk.parse_instance("((a,b),c);\n((a,b),c);", rooted=True)
    full = inst.forests[0]
    fp = full.remove_edges([full.pendant_edge(full.labels.id_of("b"))])
    _, _, trace = mk.reduce_pair(fp, full)
    for rem in trace:
        assert rem.witness  # the covering component label sets at removal time
        assert rem.p_index != rem.q_index
