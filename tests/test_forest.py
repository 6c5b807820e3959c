"""Core forest value model: contraction, removal, sibling sets, embedding."""

import copy
import gc
import pickle
import weakref
from collections import Counter

import pytest

import mafkit as mk
from mafkit import forest as forest_mod
from mafkit import reduction
from mafkit.forest import Forest, LabelTable

from helpers import (
    all_removal_keys,
    brute_is_subforest,
    canonical_key_by_nesting,
    component_canonical_by_nesting,
    component_of,
    components_by_walk,
    find_mss_by_scan,
    greedy_essential_by_key,
    labels_of,
    mss_candidates_by_scan,
    names,
    partition_by_walk,
    random_forest,
    random_instance,
    random_tree,
    rebuilt,
    sibling_case_by_pairs,
    steiner_by_pruning,
    steiner_canonical_by_nesting,
    zero_sum_edges_by_walk,
)


def parse1(text, rooted=True):
    return mk.parse_instance(text, rooted).forests[0]


def derive(rng, f):
    """One random derivation: a removal, a grouping or an expansion."""
    eids = sorted(f.edge_ids())
    cands = mss_candidates_by_scan(f)
    pick = rng.random()
    if cands and pick < 0.5:
        f.find_mss()  # so that the grouping carries the sibling-set table
        return f.group_labels(rng.choice(cands).labels)
    if eids and pick < 0.85:
        return f.remove_edges(rng.sample(eids, rng.randint(1, min(3, len(eids)))))
    return f.expand_labels()


# -- order -------------------------------------------------------------------


def test_order_single_tree():
    f = parse1("((a,b),c);")
    assert f.order() == 1


def test_order_counts_components():
    f = parse1("((a,b),c);")
    g = f.remove_edges([f.pendant_edge(f.labels.id_of("b"))])
    assert g.order() == 2


def test_order_counts_components_along_derivations(rng):
    for _ in range(60):
        f = random_forest(rng, rng.randint(3, 9), rooted=rng.random() < 0.5)
        for _ in range(8):
            assert f.order() == len(components_by_walk(f))
            f = derive(rng, f)
        assert f.order() == len(components_by_walk(f))


def test_cyclic_edge_list_is_rejected():
    table = LabelTable.from_names(["a", "b", "c", "d", "e"])
    leaves = {0: 0, 1: 1, 2: 2}
    # every vertex of the triangle 3-4-5 keeps degree 3, so contraction
    # leaves the cycle in place; rooted, each of them has one parent
    triangle = [(3, 0), (4, 1), (5, 2), (3, 4), (4, 5), (5, 3)]
    # the same triangle in a second component, beside a valid cherry of d, e
    beside = {**leaves, 6: 3, 7: 4}
    cherry = [(8, 6), (8, 7)]
    for rooted in (True, False):
        with pytest.raises(mk.ForestError, match="cycle"):
            Forest.build(rooted, table, leaves, triangle)
        with pytest.raises(mk.ForestError, match="cycle"):
            Forest.build(rooted, table, beside, cherry + triangle)
        with pytest.raises(mk.ForestError, match="self-loop edge"):
            Forest.build(rooted, table, leaves, [(3, 0), (3, 1), (3, 3)])
    # a doubled edge: contracting its degree-2 end would close a self-loop
    with pytest.raises(mk.ForestError, match="cycle"):
        Forest.build(False, table, leaves, [(0, 3), (1, 3), (2, 3), (3, 4), (3, 4)])


def test_single_edge_removal_is_essential(rng):
    for _ in range(30):
        f = random_forest(rng, rng.randint(3, 6), rooted=rng.random() < 0.5)
        for eid in sorted(f.edge_ids()):
            assert f.remove_edges([eid]).order() == f.order() + 1


# -- forced contraction ------------------------------------------------------


def test_contract_suppresses_degree_two_chain():
    table = LabelTable.from_names(["a", "b"])
    f = Forest.build(False, table, {0: 0, 2: 1}, [(0, 1), (1, 2)])
    assert 1 not in f.vertices()
    assert len(f.edge_ids()) == 1
    assert f.same_structure(parse1("(a,b);", rooted=False))


def test_contract_idempotent(rng):
    # every value is irreducible: building it again from its own parts
    # contracts nothing, along random derivation chains too
    for _ in range(40):
        f = random_forest(rng, rng.randint(3, 7), rooted=rng.random() < 0.5)
        for _ in range(4):
            g = rebuilt(f)
            assert g.canonical_key() == f.canonical_key()
            assert len(g.vertices()) == len(f.vertices())
            assert len(g.edge_ids()) == len(f.edge_ids())
            f = derive(rng, f)


def test_degree_two_root_is_kept():
    f = parse1("((a,b),(c,d));")
    g = f.remove_edges([f.pendant_edge(f.labels.id_of(mk.RHO))])
    # the big component keeps an unlabeled degree-2 root standing for the LCA
    assert g.order() == 2
    assert mk.serialize(g) == "((a,b),(c,d));\nρ;"


# -- remove_edges ------------------------------------------------------------


def test_remove_nothing_is_identity():
    f = parse1("((a,b),c);")
    assert f.remove_edges([]).same_structure(f)


def test_remove_leaf_edge_example():
    f = parse1("((a,b),c);")
    g = f.remove_edges([f.pendant_edge(f.labels.id_of("b"))])
    assert mk.serialize(g) == "(a,c,ρ);\nb;"


def test_remove_all_edges_gives_singletons():
    f = parse1("((a,b),c);")
    g = f.remove_edges(sorted(f.edge_ids()))
    assert g.order() == 4
    assert all(len(c) == 1 for c in components_by_walk(g))


def test_remove_unknown_edge():
    f = parse1("((a,b),c);")
    with pytest.raises(mk.ForestError):
        f.remove_edges([999])
    with pytest.raises(mk.ForestError):
        f.order_without([999])


def test_removal_properties(rng):
    for _ in range(40):
        f = random_forest(rng, rng.randint(4, 7), rooted=rng.random() < 0.5)
        eids = sorted(f.edge_ids())
        sub = rng.sample(eids, rng.randint(0, len(eids)))
        g = f.remove_edges(sub)
        assert f.order_without(sub) == g.order()
        # a repeated id is cut once, where it first occurs
        again = f.remove_edges(sub + sub[::-1])
        assert again.same_structure(g) and again._origin[1] == g._origin[1]
        assert f.order_without(sub + sub) == g.order()
        assert g.order() <= f.order() + len(sub)
        assert g.label_ids() == f.label_ids()
        # removal never merges: new components refine old ones
        old = f.label_partition()
        for part in g.label_partition():
            assert any(part <= o for o in old)


def test_essential_subset_restores_equality(rng):
    for _ in range(30):
        f = random_forest(rng, rng.randint(4, 7), rooted=rng.random() < 0.5, max_cuts=1)
        eids = sorted(f.edge_ids())
        if not eids:
            continue
        sub = rng.sample(eids, rng.randint(1, min(4, len(eids))))
        ess = mk.essential_subset(f, sub)
        assert ess == greedy_essential_by_key(f, sub)
        assert set(ess) <= set(sub)
        assert f.remove_edges(ess).same_structure(f.remove_edges(sub))
        assert f.remove_edges(ess).order() == f.order() + len(ess)


# -- split_labels ------------------------------------------------------------


def test_split_leaf_edge():
    f = parse1("((a,b),c);")
    a = f.labels.id_of("a")
    split = f.split_labels(f.pendant_edge(a))
    sides = {frozenset(names(f, split.side1)), frozenset(names(f, split.side2))}
    assert frozenset(["a"]) in sides
    assert frozenset(["b", "c", "ρ"]) in sides


def test_split_cherry_edge():
    f = parse1("((a,b),c);")
    a = f.labels.id_of("a")
    hub = f.parent_vertex(f.vertex_of_label(a))
    eid = f.parent_edge(hub)
    split = f.split_labels(eid)
    sides = {frozenset(names(f, split.side1)), frozenset(names(f, split.side2))}
    assert frozenset(["a", "b"]) in sides and frozenset(["c", "ρ"]) in sides


def test_split_rho_edge():
    f = parse1("((a,b),c);")
    split = f.split_labels(f.pendant_edge(f.labels.id_of(mk.RHO)))
    sides = {frozenset(names(f, split.side1)), frozenset(names(f, split.side2))}
    assert frozenset(["ρ"]) in sides and frozenset(["a", "b", "c"]) in sides


def test_split_sides_partition_component(rng):
    for _ in range(20):
        f = random_forest(rng, rng.randint(4, 7), rooted=False)
        for eid in sorted(f.edge_ids()):
            split = f.split_labels(eid)
            u, _ = f.edge_ends(eid)
            comp = labels_of(f, component_of(f, u))
            assert split.side1 | split.side2 == comp
            assert not (split.side1 & split.side2)


def test_zero_sum_edges_match_split_sums(rng):
    # weights in -2..2 make zero-sum sides common, negative sums included;
    # each component sums to 0, as the scan requires of the forest it scans
    for _ in range(40):
        f = random_forest(rng, rng.randint(3, 10), rooted=rng.random() < 0.5)
        weight = {}
        for labels in partition_by_walk(f):
            *head, last = sorted(labels)
            weight.update((lid, rng.randint(-2, 2)) for lid in head)
            weight[last] = -sum(weight[lid] for lid in head)
        want = []
        for eid in sorted(f.edge_ids()):
            split = f.split_labels(eid)
            if any(sum(weight[l] for l in side) % 2**64 == 0
                   for side in (split.side1, split.side2)):
                want.append(eid)
        assert zero_sum_edges_by_walk(f, weight) == want


# -- is_subforest ------------------------------------------------------------


def test_subforest_reflexive(rooted_pair):
    for f in rooted_pair.forests:
        assert mk.is_subforest(f, f)


def test_singletons_always_subforest():
    f = parse1("((a,b),(c,d));")
    s = f.remove_edges(sorted(f.edge_ids()))
    assert mk.is_subforest(s, f)


def test_subforest_cut_c_case():
    # {ρ-(a,b), c} embeds in ((a,c),b) by cutting c's leaf edge; checked
    # against exhaustive enumeration of the host's edge subsets
    host = parse1("((a,c),b);")
    probe = parse1("((a,b),c);")
    sub = probe.remove_edges([probe.pendant_edge(probe.labels.id_of("c"))])
    assert mk.is_subforest(sub, host) is True
    assert brute_is_subforest(sub, host) is True


def test_subforest_negative_case():
    host = parse1("((a,c),b);")
    probe = parse1("((a,b),c);")
    # the intact conflicting tree is not a subforest
    assert mk.is_subforest(probe, host) is False
    assert brute_is_subforest(probe, host) is False


def test_subforest_matches_enumeration(rng):
    for rooted in (True, False):
        for _ in range(25):
            sup = random_forest(rng, rng.randint(3, 5), rooted, max_cuts=1)
            keys = all_removal_keys(sup)
            eids = sorted(sup.edge_ids())
            for _ in range(4):
                sub = sup.remove_edges(rng.sample(eids, rng.randint(0, min(3, len(eids)))))
                assert mk.is_subforest(sub, sup) == (sub.canonical_key() in keys)


def test_subforest_transitive_on_chains(rng):
    for _ in range(20):
        f = random_forest(rng, rng.randint(4, 7), rooted=rng.random() < 0.5, max_cuts=0)
        eids = sorted(f.edge_ids())
        cut1 = rng.sample(eids, min(2, len(eids)))
        g = f.remove_edges(cut1)
        eids2 = sorted(g.edge_ids())
        h = g.remove_edges(rng.sample(eids2, min(2, len(eids2))))
        assert mk.is_subforest(g, f)
        assert mk.is_subforest(h, g)
        assert mk.is_subforest(h, f)


def test_subforest_universe_mismatch():
    f = parse1("((a,b),c);")
    g = parse1("((a,b),d);")
    with pytest.raises(mk.LabelUniverseError):
        mk.is_subforest(f, g)


def test_verify_needs_one_witness_per_input():
    text = "((a,b),(c,d));\n((a,b),(c,d));\n((a,c),(b,d));"
    for rooted in (True, False):
        three = mk.parse_instance(text, rooted)
        two = mk.Instance(rooted, three.forests[:2])
        af = mk.certify(three.forests[0], two)
        assert af.verify(two)
        # the third tree is not a cut of the first, and has no witness here
        assert not mk.is_subforest(three.forests[0], three.forests[2])
        assert not af.verify(three)
        assert not mk.AgreementForest(af.forest, af.witnesses[:1]).verify(two)
        # a witness that names an edge its input forest lacks is no witness
        missing = max(three.forests[1].edge_ids()) + 1
        bad = (af.witnesses[0], af.witnesses[1] | {missing})
        assert not mk.AgreementForest(af.forest, bad).verify(two)


def test_subforest_witness_realizes_embedding(rng):
    for _ in range(20):
        sup = random_forest(rng, rng.randint(4, 6), rooted=rng.random() < 0.5, max_cuts=1)
        eids = sorted(sup.edge_ids())
        sub = sup.remove_edges(rng.sample(eids, rng.randint(0, min(3, len(eids)))))
        wit = mk.subforest_witness(sub, sup)
        assert wit is not None
        assert sup.remove_edges(wit).same_structure(sub)


def hanging_depths(f):
    """``up`` from ``Forest._hanging`` and the depth of every vertex below
    its top, read off ``order``."""
    order, up = f._hanging()
    depth = {}
    for v in order:
        depth[v] = depth[up[v]] + 1 if v in up else 0
    return up, depth


def test_hanging_contract(rng):
    kinds = {(rooted, grouped): 0 for rooted in (True, False) for grouped in (True, False)}
    # unrooted components hung from a grouped leaf
    grouped_tops = 0
    for _ in range(120):
        rooted = rng.random() < 0.5
        f = random_forest(rng, rng.randint(3, 12), rooted, max_cuts=rng.randint(0, 3))
        mss = f.find_mss()
        if mss is not None and rng.random() < 0.5:
            f = f.group_labels(mss)
        kinds[rooted, f.has_grouped_labels()] += 1
        order, up = f._hanging()
        assert sorted(order) == sorted(f.vertices())
        pos = {v: i for i, v in enumerate(order)}
        runs = []
        for comp in components_by_walk(f):
            run = order[min(pos[v] for v in comp):][:len(comp)]
            assert set(run) == comp
            top = run[0]
            assert top not in up and all(v in up for v in run[1:])
            lids = labels_of(f, comp)
            runs.append((pos[top], lids))
            if rooted:
                assert f.parent_vertex(top) is None
            else:
                assert top == f.vertex_of_label(min(lids))
                # and that id is the least original label of the component
                assert min(lids) == min(o for l in lids for o in f.originals(l))
                grouped_tops += len(f.originals(f.label_of(top))) > 1
        # the label partition lists the runs' label sets in the runs' order
        partition = f.label_partition()
        assert partition == tuple(lids for _, lids in sorted(runs))
        assert list(partition) == partition_by_walk(f)
        for v, p in up.items():
            assert pos[p] < pos[v]
            assert any(w == p for _, w in f.neighbors(v))
        if rooted:
            assert up == {v: f.parent_vertex(v) for v in f.vertices()
                          if f.parent_vertex(v) is not None}
    assert min(kinds.values()) > 5 and grouped_tops > 0


def test_steiner_matches_pruning_reference(rng):
    # a claim holds the Steiner subtree of its labels, tops it at that
    # subtree's highest vertex, and leaves every other edge apart
    checked = 0
    for _ in range(60):
        sup = random_forest(rng, rng.randint(3, 12), rooted=rng.random() < 0.5)
        _, depth = hanging_depths(sup)
        for comp in components_by_walk(sup):
            leaves = sorted(v for v in comp if sup.label_of(v) is not None)
            for _ in range(4):
                targets = rng.sample(leaves, rng.randint(1, len(leaves)))
                vset, eset = steiner_by_pruning(sup, targets)
                hung = forest_mod._Hung(sup, [[sup.label_of(v) for v in targets]])
                assert set(hung.owner) == vset and set(hung.owner.values()) == {0}
                assert hung.top == {0: min(vset, key=depth.__getitem__)}
                assert set(hung.apart([0])) == sup.edge_ids() - eset
                checked += 1
    assert checked > 300


# -- find_mss ----------------------------------------------------------------


def test_mss_rooted_cherry():
    f = parse1("((a,b),c);")
    mss = f.find_mss()
    assert names(f, mss) == ["a", "b"]
    assert f.sibling_case(mss).hub == f.parent_vertex(f.vertex_of_label(f.labels.id_of("a")))


def test_mss_none_on_singletons():
    f = parse1("((a,b),c);")
    assert f.remove_edges(sorted(f.edge_ids())).find_mss() is None


def test_mss_unrooted_single_edge_tree():
    f = parse1("((a,b),(c,d));", rooted=False)
    cuts = [f.pendant_edge(f.labels.id_of("c")), f.pendant_edge(f.labels.id_of("d"))]
    g = f.remove_edges(cuts)
    assert sorted(len(c) for c in components_by_walk(g)) == [1, 1, 2]
    mss = g.find_mss()
    assert names(g, mss) == ["a", "b"]
    # grouping keeps the smaller of the two leaf vertices
    assert g.sibling_case(mss).hub == min(g.vertex_of_label(l) for l in mss)


def test_mss_rooted_none_iff_at_most_one_edge():
    f = parse1("((a,b),c);")
    # cut both cherry leaves: remaining edge is the rho pendant
    g = f.remove_edges(
        [f.pendant_edge(f.labels.id_of("a")), f.pendant_edge(f.labels.id_of("b"))]
    )
    assert len(list(g.edge_ids())) == 1
    assert g.find_mss() is None


def test_mss_none_condition_random(rng):
    for _ in range(30):
        rooted = rng.random() < 0.5
        f = random_forest(rng, rng.randint(3, 6), rooted)
        has = f.find_mss() is not None
        n_edges = len(list(f.edge_ids()))
        if rooted:
            assert has == (n_edges > 1)
        else:
            assert has == (n_edges > 0)


def test_mss_unrooted_star_prefers_spec_tiebreak():
    # full star: the subset one leaf short wins, and with no label grouped
    # it drops the largest label
    for text, want in (("(a,b,c);", ["a", "b"]), ("(d,b,a,c);", ["a", "b", "c"])):
        f = parse1(text, rooted=False)
        assert names(f, f.find_mss()) == want


def test_find_mss_matches_scan_along_chains(rng):
    groupings = 0
    for _ in range(300):
        rooted = rng.random() < 0.5
        f = random_forest(rng, rng.randint(3, 16), rooted, max_cuts=4)
        while True:
            assert f.find_mss() == find_mss_by_scan(f)
            cands = mss_candidates_by_scan(f)
            if not cands:
                break
            if rng.random() < 0.85:
                f = f.group_labels(rng.choice(cands).labels)
                assert f._mss is not None  # patched from the parent, not rebuilt
                groupings += 1
            else:
                eids = sorted(f.edge_ids())
                f = f.remove_edges(rng.sample(eids, rng.randint(1, min(2, len(eids)))))
    assert groupings > 1000


def test_find_mss_after_grouping_stars_and_single_edges():
    quartet = parse1("((a,b),(c,d));", rooted=False)
    cuts = [quartet.pendant_edge(quartet.labels.id_of(x)) for x in "cd"]
    forests = [quartet.remove_edges(cuts)]  # holds the single-edge tree (a,b)
    texts = ["(a,b,c);", "(a,b,c,d);", "((a,b),(c,d));", "((a,b,c),d,e);"]
    forests += [parse1(text, rooted) for text in texts for rooted in (True, False)]
    for f in forests:
        for ss in mss_candidates_by_scan(f):
            f.find_mss()
            g = f.group_labels(ss.labels)
            assert g.find_mss() == find_mss_by_scan(g)
            if g.find_mss() is not None:
                h = g.group_labels(g.find_mss())
                assert h.find_mss() == find_mss_by_scan(h)
    star = parse1("(a,b,c);", rooted=False)
    ab = frozenset(star.labels.id_of(x) for x in "ab")
    star.find_mss()
    # grouping a one-leaf-short subset of a star leaves a single-edge tree
    g = star.group_labels(ab)
    mss = g.find_mss()
    assert g.sibling_case(mss).hub == min(g.vertex_of_label(l) for l in mss)


def full_mss_table(f):
    """The sibling-set table ``find_mss`` would build from scratch."""
    return {v: entry for v in f.vertices() if (entry := f._mss_entry(v)) is not None}


def test_removal_patches_sibling_set_table(rng):
    removals = 0
    for _ in range(200):
        rooted = rng.random() < 0.5
        f = random_forest(rng, rng.randint(3, 16), rooted, max_cuts=2)
        while list(f.edge_ids()):
            assert f.find_mss() == find_mss_by_scan(f)
            cands = mss_candidates_by_scan(f)
            if cands and rng.random() < 0.4:
                f = f.group_labels(rng.choice(cands).labels)
            else:
                eids = sorted(f.edge_ids())
                f = f.remove_edges(rng.sample(eids, rng.randint(1, min(3, len(eids)))))
                removals += 1
            # taken over from the parent and patched, equal to a fresh build
            assert f._mss is not None
            assert f._mss == full_mss_table(f)
    assert removals > 400


# -- sibling_case --------------------------------------------------------------


def _sibling_case_sets(rng, f):
    """Label sets of two to four labels, none a singleton: the sibling-set
    candidates, single-edge trees with a third label, and random draws from
    the leaves around one vertex, from one component and from the whole
    forest."""
    lids = sorted(l for l in f.label_ids() if f.degree(f.vertex_of_label(l)))
    part_of = {l: i for i, part in enumerate(f.label_partition()) for l in part}
    by_comp, around = {}, {}
    for l in lids:
        by_comp.setdefault(part_of[l], []).append(l)
        (_, w), = f.neighbors(f.vertex_of_label(l))
        around.setdefault(w, []).append(l)
    cands = [c.labels for c in mss_candidates_by_scan(f)]
    sets = list(cands)
    sets += [s | {rng.choice(lids)} for s in cands if len(s) == 2 and len(lids) > 2]
    for pool in [lids, *by_comp.values(), *around.values()] * 2:
        if len(pool) >= 2:
            sets.append(frozenset(rng.sample(pool, rng.randint(2, min(4, len(pool))))))
    return sets


def test_sibling_case_matches_pairwise_rule(rng):
    seen = Counter()
    for trial in range(300):
        rooted = trial % 2 == 0
        f = random_forest(rng, rng.randint(3, 12), rooted)
        for _ in range(rng.randint(0, 4)):
            f = derive(rng, f)
        rho = f.labels.id_of(mk.RHO) if rooted else None
        for lids in _sibling_case_sets(rng, f):
            kind, pair = sibling_case_by_pairs(f, lids)
            if rho in lids:
                # ρ is no label's sibling, and a set that holds it is refused
                assert kind in ("split", "path") and len(lids) >= 2
                with pytest.raises(mk.ForestError, match="parentless"):
                    f.sibling_case(lids)
                seen["rho"] += 1
                continue
            case = f.sibling_case(lids)
            assert (case.kind, case.pair) == (kind, pair)
            seen[kind] += 1
            seen["grouped"] += f.has_grouped_labels()
            seen["single edge"] += not rooted and any(
                f.label_of(w) is not None
                for l in lids for _, w in f.neighbors(f.vertex_of_label(l)))
            seen["across"] += not any(lids <= part for part in f.label_partition())
    assert min(seen.values()) > 100 and len(seen) == 8, seen


def test_bad_label_sets_raise_forest_error():
    for rooted in (True, False):
        f = parse1("((a,b),(c,d));", rooted)
        a, b, c = (f.labels.id_of(x) for x in "abc")
        f = f.remove_edges([f.pendant_edge(c)])
        bad = [[a], [c, a], [a, b, c]]
        if rooted:
            bad += [[f.labels.id_of(mk.RHO), a], [f.labels.id_of(mk.RHO), a, b]]
        for lids in bad:
            with pytest.raises(mk.ForestError):
                f.sibling_case(lids)
            with pytest.raises(mk.ForestError):
                f.group_labels(lids)
        grouped = f.group_labels([a, b])
        assert grouped.order() == f.order()
        # a label grouped into another, and an id past the label table
        for lid in (b, 99):
            with pytest.raises(mk.ForestError, match=f"label id {lid} is not in"):
                grouped.pendant_edge(lid)
    # a leaf map naming an id past the table, or a negative one
    table = mk.LabelTable.from_names("ab")
    for lid in (7, 2, -1):
        with pytest.raises(mk.ForestError, match="label id outside the label table"):
            mk.Forest.build(False, table, {0: lid, 1: 1}, [(0, 1)])


# -- group / expand ----------------------------------------------------------


def test_group_rooted_cherry():
    f = parse1("((a,b),c);")
    g = f.group_labels(f.find_mss())
    assert mk.serialize(g) == "(a+b,c,ρ);"
    assert g.order() == f.order()


def test_group_unrooted_single_edge():
    f = parse1("((a,b),(c,d));", rooted=False)
    g = f.remove_edges(
        [f.pendant_edge(f.labels.id_of("c")), f.pendant_edge(f.labels.id_of("d"))]
    )
    h = g.group_labels(g.find_mss())
    assert sorted(len(c) for c in components_by_walk(h)) == [1, 1, 1]
    assert mk.serialize(h) == "a+b;\nc;\nd;"


def test_group_requires_mss():
    f = parse1("((a,b),c);")
    with pytest.raises(mk.ForestError):
        f.group_labels([f.labels.id_of("a"), f.labels.id_of("c")])


def test_sibling_case_and_grouping_refuse_a_label_not_in_the_forest():
    for rooted in (True, False):
        f = parse1("((a,b),(c,d));", rooted)
        a, b, c = (f.labels.id_of(x) for x in "abc")
        g = f.group_labels({a, b})
        # the group keeps a's id, and b's leaf is gone, though b is in the table
        for lids in ({a, b}, {b, c}):
            with pytest.raises(mk.ForestError, match="not in the forest"):
                g.sibling_case(lids)
            with pytest.raises(mk.ForestError, match="not in the forest"):
                g.group_labels(lids)


def _group_named(f, names):
    """``f`` with the labels ``names`` grouped, and the grouped label's id."""
    lids = frozenset(f.labels.id_of(x) for x in names)
    g = f.group_labels(lids)
    (new,) = g.label_ids() - (f.label_ids() - lids)
    return g, new


def test_full_star_drops_its_newest_group():
    # a full star with three or more leaves admits every one-leaf-short
    # subset; find_mss keeps the least label and drops the group made last
    f = parse1("(a,(c,f),(b,e),d);", rooted=False)
    a, d = (f.labels.id_of(x) for x in "ad")
    for first, second in (("cf", "be"), ("be", "cf")):
        g, older = _group_named(f, first)
        g, _ = _group_named(g, second)
        assert g.find_mss() == {a, d, older}


def test_nested_group_name_lists_each_group_in_turn():
    # a grouped leaf is named by its parts in id order, each part by its own
    # name, so a nested group's originals stay together
    f = parse1("(((a,d),b),c);")
    g, _ = _group_named(f, "ad")
    h = g.group_labels(g.find_mss())
    assert mk.serialize(g) == "((a+d,b),c,ρ);"
    assert mk.serialize(h) == "(a+d+b,c,ρ);"


def test_grouping_keeps_the_least_id_and_the_table():
    for rooted in (True, False):
        f = parse1("((a,b),(c,d));", rooted)
        a, b, c = (f.labels.id_of(x) for x in "abc")
        g = f.group_labels([b, a])
        assert g.labels is f.labels
        assert g.label_ids() == f.label_ids() - {b} and g.has_grouped_labels()
        assert g.original_label_ids() == f.original_label_ids()
        for absorbed in ({b, c}, {b, a}):
            with pytest.raises(mk.ForestError, match="not in the forest"):
                g.sibling_case(absorbed)
            with pytest.raises(mk.ForestError, match="not in the forest"):
                g.group_labels(absorbed)
        back = g.expand_labels()
        assert back.same_structure(f) and not back.has_grouped_labels()
        assert back.labels is f.labels


def test_group_expand_round_trip(rng):
    done = 0
    while done < 25:
        rooted = rng.random() < 0.5
        f = random_forest(rng, rng.randint(3, 7), rooted, max_cuts=2)
        mss = f.find_mss()
        if mss is None:
            continue
        g = f.group_labels(mss)
        assert g.expand_labels().same_structure(f)
        done += 1


def test_nested_grouping_expands_fully():
    f = parse1("((a,b),c);")
    g = f.group_labels(f.find_mss())           # a+b
    h = g.group_labels(g.find_mss())           # (a+b)+c
    assert h.order() == 1
    back = h.expand_labels()
    assert back.same_structure(f)
    assert sorted(back.labels.name(l) for l in back.label_ids()) == ["a", "b", "c", "ρ"]


def test_expand_no_groups_is_identity():
    f = parse1("((a,b),c);")
    assert f.expand_labels().same_structure(f)


# -- immutability ------------------------------------------------------------


def test_operations_leave_input_untouched():
    f = parse1("((a,b),c);")
    before = f.canonical_key()
    f.remove_edges([f.pendant_edge(f.labels.id_of("a"))])
    f.group_labels(f.find_mss())
    f.expand_labels()
    assert f.canonical_key() == before


def test_scanned_values_pickle_without_their_ancestors():
    for rooted in (True, False):
        f1, f2 = mk.parse_instance(
            "((a,b),(c,(d,e)));\n((a,c),(b,(d,e)));", rooted).forests
        g = f1.remove_edges([f1.pendant_edge(f1.labels.id_of("c"))])
        _, _, removals = mk.reduce_pair(g, f2)  # g inherits what f1 had
        # and keeps side sums, scanned against a witness as fine as it
        reduction.find_applicable(f2.remove_edges([f2.pendant_edge(f2.labels.id_of("c"))]), g)
        assert g._weights is not None and g._sums is not None
        copies = [pickle.loads(pickle.dumps(g)), copy.deepcopy(g)]
        for h in copies:
            assert h.same_structure(g) and h._origin is None and h._weights is None
            assert h._sums is None
            assert mk.reduce_pair(h, f2)[2] == removals


def test_unscanned_derivations_do_not_hold_every_ancestor(rng):
    for rooted in (True, False):
        f = random_tree(rng, 60, rooted)
        first = weakref.ref(f)
        for _ in range(50):
            f = f.remove_edges([min(f.edge_ids())])
        links = 0
        g = f
        while g._origin is not None:
            links += 1
            g = g._origin[0]
        assert links <= forest_mod._ORIGIN_CHAIN
        gc.collect()
        assert first() is None


def _snapshot(f):
    return copy.deepcopy((f._adj, f._edges, f._vlabel, f._label_vertex))


def test_derivations_leave_every_ancestor_untouched(rng):
    # children share adjacency rows with their parent until they write them
    for _ in range(40):
        values = [random_forest(rng, rng.randint(3, 10), rooted=rng.random() < 0.5)]
        snaps = [_snapshot(values[0])]
        for _ in range(12):
            child = derive(rng, rng.choice(values))
            values.append(child)
            snaps.append(_snapshot(child))
        for f, snap in zip(values, snaps):
            assert _snapshot(f) == snap


def test_groupings_of_sibling_branches_are_independent():
    f = parse1("((a,b),(c,d));")
    a, b, c, d = (f.labels.id_of(x) for x in "abcd")
    g1, g2 = f.group_labels({a, b}), f.group_labels({c, d})
    assert not f.has_grouped_labels() and f.originals(a) == (a,)
    assert g1.originals(a) == (a, b) and g1.originals(c) == (c,)
    assert g2.originals(c) == (c, d) and g2.originals(a) == (a,)
    assert mk.serialize(g1) == "(a+b,(c,d),ρ);" and mk.serialize(g2) == "((a,b),c+d,ρ);"
    h = g1.group_labels({c, d}).group_labels({a, c})
    assert h.originals(a) == (a, b, c, d) and mk.serialize(h) == "(a+b+c+d,ρ);"
    assert f.labels is g1.labels is g2.labels is h.labels


def test_lockstep_grouping_builds_no_table():
    inst = mk.parse_instance("((a,b),(c,d));\n((a,b),c,d);", rooted=True)
    f1, f2 = inst.forests
    ab = f2.find_mss()
    g1, g2 = f1.group_labels(ab), f2.group_labels(ab)
    assert f1.labels is f2.labels is g1.labels is g2.labels
    assert g1.label_ids() == g2.label_ids() and g1.originals(min(ab)) == tuple(sorted(ab))
    # a grouping in between, in another branch, leaves the pair alike
    cd = frozenset(f1.labels.id_of(x) for x in "cd")
    f1.group_labels(cd)
    again = f2.group_labels(ab)
    assert again.label_ids() == g1.label_ids() and again.same_structure(g2)


def _caterpillar(n):
    """Unrooted caterpillar on labels 0..n-1, named so that names sort as
    ids do, with the cherry (0, 1) at one end and (n-2, n-1) at the other."""
    name = [f"{i:05d}" for i in range(n)]
    text = f"({name[0]},{name[1]}," + "".join(f"({name[i]}," for i in range(2, n - 2))
    return parse1(text + f"({name[n - 2]},{name[n - 1]})" + ")" * (n - 4) + ");",
                  rooted=False)


def test_nested_group_chain_expands_without_recursion():
    n = 1502  # groups nested deeper than the default recursion limit
    f = _caterpillar(n)
    at_least_end = f
    while (mss := at_least_end.find_mss()) is not None:
        at_least_end = at_least_end.group_labels(mss)
    # from the other end, each group takes a new id and holds the last one
    at_other_end = f
    for i in range(n - 2, 0, -1):
        at_other_end = at_other_end.group_labels({i, i + 1} if i > 1 else {0, 1, 2})
    everything = "+".join(f"{i:05d}" for i in range(n))
    for g, depth in ((at_least_end, n - 1), (at_other_end, n - 2)):
        assert len(g.label_ids()) == 1 and g.edge_ids() == set()
        assert sum(len(rec) for rec in g._groups.values()) == depth + n - 1
        for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert copied.same_structure(g) and copied.original_label_ids() == set(range(n))
        assert g.expand_labels().same_structure(f)
        assert g.original_label_ids() == set(range(n))
        assert mk.serialize(g) == everything + ";"


def test_original_label_ids_are_every_label_s_originals(rng):
    for _ in range(30):
        f = random_forest(rng, rng.randint(3, 9), rooted=rng.random() < 0.5)
        for _ in range(6):
            f = derive(rng, f)
            behind = [f.originals(lid) for lid in f.label_ids()]
            # a label's id is the least original behind it, and no two
            # labels share an original
            assert all(o[0] == min(o) for o in behind)
            assert f.original_label_ids() == {o for os in behind for o in os}
            assert sum(map(len, behind)) == len(f.original_label_ids())
    inst = random_instance(rng, rooted=True)
    assert inst.n_labels == inst.taxa_count() + 1 == len(inst.forests[0].label_ids())


# -- the flat canonical key against the nested reference ---------------------


def _shuffled_copy(rng, f):
    """``f`` rebuilt with its vertex ids permuted and its edges in another order."""
    verts = sorted(f.vertices())
    perm = verts[:]
    rng.shuffle(perm)
    ren = dict(zip(verts, perm))
    leaf_labels = {ren[v]: f.label_of(v) for v in verts if f.label_of(v) is not None}
    edges = []
    for eid in f.edge_ids():
        u, v = f.edge_ends(eid)
        if not f.rooted and rng.random() < 0.5:
            u, v = v, u
        edges.append((ren[u], ren[v]))
    rng.shuffle(edges)
    return Forest.build(f.rooted, f.labels, leaf_labels, edges)


def _family(rng, rooted):
    """Forests over one label table: plain and grouped, each with shuffled
    copies, so that equal and unequal keys both occur often."""
    inst = random_instance(rng, rooted, n=rng.randint(3, 7), m=2, x=rng.randint(0, 2))
    out = []
    for f in inst.forests:
        for _ in range(2):
            g = f
            for _ in range(rng.randint(0, 3)):
                g = derive(rng, g)
            out += [g, _shuffled_copy(rng, g)]
    return out


def test_flat_key_matches_nested_reference(rng):
    equal = unequal = 0
    for _ in range(60):
        forests = _family(rng, rooted=rng.random() < 0.5)
        flat = [f.canonical_key() for f in forests]
        nested = [canonical_key_by_nesting(f) for f in forests]
        # each code of a key pairs with its component by the labels it lists
        flat_c, nested_c = [], []
        for f, key in zip(forests, flat):
            code_of = {frozenset(code[::2]) - {-1}: code for code in key[1]}
            assert len(code_of) == len(key[1]) == f.order()
            for comp in components_by_walk(f):
                flat_c.append(code_of[labels_of(f, comp)])
                nested_c.append(component_canonical_by_nesting(f, comp))
        for keys, ref in ((flat, nested), (flat_c, nested_c)):
            for i in range(len(keys)):
                for j in range(i):
                    assert (keys[i] == keys[j]) == (ref[i] == ref[j])
                    if keys[i] == keys[j]:
                        equal += 1
                    else:
                        unequal += 1
        for f, key in zip(forests, flat):
            assert all(type(x) is int for code in key[1] for x in code)
    assert equal > 500 and unequal > 500


# -- structural equality against the nested reference --------------------------


def _one_edge(f, lids, a, b):
    """Forest over ``lids`` of ``f``'s table: singletons but for one edge a-b."""
    leaf_labels = dict(enumerate(lids))
    return Forest.build(f.rooted, f.labels, leaf_labels, [(lids.index(a), lids.index(b))])


def _equality_pairs(rng, rooted):
    """Fresh pairs over one label table, equal and unequal alike: random
    removals, a shuffled rebuild, the reduced pair and its lockstep
    groupings, singletons and single-edge forests."""
    inst = random_instance(rng, rooted, n=rng.randint(3, 8), m=2, x=rng.randint(0, 3))
    f1, f2 = inst.forests
    eids = sorted(f1.edge_ids())
    cut = rng.sample(eids, rng.randint(0, min(3, len(eids))))
    g = f1.remove_edges(cut)
    pairs = [
        (f1, f2),
        (g, f1.remove_edges(rng.sample(cut, len(cut)))),
        (g, f1.remove_edges(rng.sample(eids, len(cut)))),
        (g, _shuffled_copy(rng, g)),
        (g, f2.remove_edges(rng.sample(sorted(f2.edge_ids()), len(cut)))),
    ]
    a, b, _ = mk.reduce_pair(f1, f2)
    pairs.append((a, b))
    while (mss := b.find_mss()) is not None and a.sibling_case(mss).kind == "mss":
        a, b = a.group_labels(mss), b.group_labels(mss)
        pairs.append((a, b))
    lids = sorted(f1.label_ids())
    pairs.append((rebuilt(f1.remove_edges(eids)), f1.remove_edges(eids)))
    # rooted, the one edge a forest of singletons can keep hangs off ρ
    ends = [f1.labels.id_of(mk.RHO)] if rooted else rng.sample(lids, 1)
    x, y = (rng.choice([l for l in lids if l != ends[0]]) for _ in range(2))
    pairs.append((_one_edge(f1, lids, ends[0], x), _one_edge(f1, lids, ends[0], y)))
    return pairs


def test_same_structure_matches_nested_reference(rng, monkeypatch):
    keyed = []
    canonical_key = Forest.canonical_key

    def counting(self):
        keyed.append(self)
        return canonical_key(self)

    monkeypatch.setattr(Forest, "canonical_key", counting)
    outcomes = {True: 0, False: 0}
    hard = 0  # unequal with equal edge counts and label partitions
    kinds = {True: 0, False: 0}
    for _ in range(60):
        rooted = rng.random() < 0.5
        for f, g in _equality_pairs(rng, rooted):
            got = f.same_structure(g)
            assert got == g.same_structure(f)
            assert got == (canonical_key_by_nesting(f) == canonical_key_by_nesting(g))
            outcomes[got] += 1
            kinds[rooted] += 1
            hard += not got and len(f.edge_ids()) == len(g.edge_ids()) and (
                set(f.label_partition()) == set(g.label_partition()))
    assert keyed == []
    assert sum(outcomes.values()) >= 400 and min(outcomes.values()) > 50
    assert min(kinds.values()) > 100 and hard > 20


def test_same_structure_needs_equal_vertex_counts():
    # both cherry roots climb to the star's hub, and every check of the walk
    # holds: only the vertex count tells these forests apart
    star = parse1("(a,b,c,d);")
    star = star.remove_edges([star.pendant_edge(star.labels.id_of(mk.RHO))])
    rho, a, b, c, d = (star.labels.id_of(x) for x in (mk.RHO, *"abcd"))
    cherries = Forest.build(True, star.labels, {0: rho, 1: a, 2: b, 3: c, 4: d},
                            [(5, 1), (5, 2), (6, 3), (6, 4)])
    assert len(star.edge_ids()) == len(cherries.edge_ids())
    assert not star.same_structure(cherries) and not cherries.same_structure(star)


def _witness_by_reference(sub, sup):
    """``subforest_witness`` from the references alone, and whether two
    Steiner subtrees overlapped.

    The witness is None unless every component of ``sub`` lies in one
    component of ``sup``, the pruned Steiner subtrees are pairwise
    vertex-disjoint and each has the nested code of its component; else it
    is the set of edges outside the subtrees.
    """
    comps = components_by_walk(sub)
    lsets = [labels_of(sub, comp) for comp in comps]
    if any(len({component_of(sup, sup.vertex_of_label(l)) for l in lset}) != 1
           for lset in lsets):
        return None, False
    trees = [steiner_by_pruning(sup, [sup.vertex_of_label(l) for l in lset]) for lset in lsets]
    seen = set()
    for vset, _ in trees:
        if seen & vset:
            return None, True
        seen |= vset
    for comp, (vset, eset) in zip(comps, trees):
        nested = component_canonical_by_nesting(sub, comp)
        if steiner_canonical_by_nesting(sup, vset, eset) != nested:
            return None, False
    return frozenset(sup.edge_ids()).difference(*(eset for _, eset in trees)), False


def test_witness_matches_steiner_reference(rng):
    outcomes = {True: 0, False: 0}
    overlapping = 0
    for trial in range(400):
        rooted = trial % 2 == 0
        n = rng.randint(3, 9)
        sup = random_forest(rng, n, rooted, max_cuts=rng.randint(0, 2))
        if rng.random() < 0.4:
            eids = sorted(sup.edge_ids())
            sub = sup.remove_edges(rng.sample(eids, rng.randint(0, min(3, len(eids)))))
        else:
            sub = random_forest(rng, n, rooted)  # mostly not embeddable
        want, overlap = _witness_by_reference(sub, sup)
        got = mk.subforest_witness(sub, sup)
        assert got == want
        outcomes[got is not None] += 1
        overlapping += overlap
    assert min(outcomes.values()) > 50 and overlapping > 20


# -- the structural check of derived values ------------------------------------


def test_derived_values_pass_the_full_check(rng):
    # a derivation checks only the rows it wrote; every value of random
    # chains must still pass the check of every vertex
    kinds = {"remove": 0, "group": 0, "expand": 0}
    for _ in range(150):
        f = random_forest(rng, rng.randint(3, 14), rooted=rng.random() < 0.5)
        for _ in range(10):
            f = derive(rng, f)
            f._check()
            kinds["remove" if f._origin and f._origin[1][0][0] == "cut" else
                  "group" if f._origin else "expand"] += 1
    assert min(kinds.values()) > 100


def test_derivation_rejects_a_broken_written_row(monkeypatch):
    for rooted in (True, False):
        f = parse1("((a,b),(c,d));", rooted)
        a = f.labels.id_of("a")
        # without contraction the cut leaves a degree-2 vertex behind, in a
        # row the removal wrote
        monkeypatch.setattr(Forest, "_normalize", lambda self, dirty, log: None)
        with pytest.raises(mk.ForestError, match="degree 2"):
            f.remove_edges([f.pendant_edge(a)])
        monkeypatch.undo()
        # a written row that leaves a labeled vertex with two edges
        g = f.group_labels(f.find_mss())
        hub = g.vertex_of_label(f.labels.id_of("a"))
        broken = g._copy()
        broken._add_edge(hub, broken._add_vertex(len(g.labels)))
        with pytest.raises(mk.ForestError, match=f"labeled vertex {hub} has degree 2"):
            broken._check(vertices=broken._own)
