"""Core forest value model: contraction, removal, sibling sets, embedding."""

import pytest

import mafkit as mk
from mafkit.forest import Forest, LabelTable

from helpers import (
    all_removal_keys,
    brute_is_subforest,
    greedy_essential_by_key,
    names,
    random_forest,
)


def parse1(text, rooted=True):
    return mk.parse_instance(text, rooted).forests[0]


# -- order -------------------------------------------------------------------


def test_order_single_tree():
    f = parse1("((a,b),c);")
    assert f.order() == 1


def test_order_counts_components():
    f = parse1("((a,b),c);")
    g = f.remove_edges([f.pendant_edge(f.labels.id_of("b"))])
    assert g.order() == 2


def test_single_edge_removal_is_essential(rng):
    for _ in range(30):
        f = random_forest(rng, rng.randint(3, 6), rooted=rng.random() < 0.5)
        for eid in sorted(f.edge_ids()):
            assert f.remove_edges([eid]).order() == f.order() + 1


# -- force_contract ----------------------------------------------------------


def test_contract_suppresses_degree_two_chain():
    table = LabelTable.from_names(["a", "b"])
    raw = Forest.build(
        False, table, {0: 0, 2: 1}, [(0, 1), (1, 2)], normalize=False
    )
    assert raw.degree(1) == 2
    done = raw.force_contract()
    assert done.same_structure(parse1("(a,b);", rooted=False))


def test_contract_idempotent(rng):
    for _ in range(40):
        f = random_forest(rng, rng.randint(3, 7), rooted=rng.random() < 0.5)
        once = f.force_contract()
        assert once.same_structure(f)
        assert once.force_contract().same_structure(once)


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
    assert all(len(c) == 1 for c in g.components())


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
            comp = f.component_labels(f.component_index_of_vertex(u))
            assert split.side1 | split.side2 == comp
            assert not (split.side1 & split.side2)


# -- is_subforest ------------------------------------------------------------


def test_subforest_reflexive(rooted_pair):
    for f in rooted_pair.forests:
        assert mk.is_subforest(f, f)


def test_singletons_always_subforest():
    f = parse1("((a,b),(c,d));")
    s = Forest.singletons(True, f.labels, f.label_ids())
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


def test_subforest_witness_realizes_embedding(rng):
    for _ in range(20):
        sup = random_forest(rng, rng.randint(4, 6), rooted=rng.random() < 0.5, max_cuts=1)
        eids = sorted(sup.edge_ids())
        sub = sup.remove_edges(rng.sample(eids, rng.randint(0, min(3, len(eids)))))
        wit = mk.subforest_witness(sub, sup)
        assert wit is not None
        assert sup.remove_edges(wit).same_structure(sub)


# -- find_mss ----------------------------------------------------------------


def test_mss_rooted_cherry():
    f = parse1("((a,b),c);")
    mss = f.find_mss()
    assert names(f, mss.labels) == ["a", "b"]
    assert mss.hub == f.parent_vertex(f.vertex_of_label(f.labels.id_of("a")))


def test_mss_none_on_singletons():
    f = parse1("((a,b),c);")
    assert f.remove_edges(sorted(f.edge_ids())).find_mss() is None


def test_mss_unrooted_single_edge_tree():
    f = parse1("((a,b),(c,d));", rooted=False)
    cuts = [f.pendant_edge(f.labels.id_of("c")), f.pendant_edge(f.labels.id_of("d"))]
    g = f.remove_edges(cuts)
    assert sorted(len(c) for c in g.components()) == [1, 1, 2]
    mss = g.find_mss()
    assert names(g, mss.labels) == ["a", "b"]
    assert mss.hub is None


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
    f = parse1("(a,b,c);", rooted=False)
    mss = f.find_mss()
    # full star: the two-smallest subset wins on the size tiebreak
    assert names(f, mss.labels) == ["a", "b"]


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
    assert sorted(len(c) for c in h.components()) == [1, 1, 1]
    assert "a+b" in [h.labels.name(l) for l in h.label_ids()]


def test_group_requires_mss():
    f = parse1("((a,b),c);")
    with pytest.raises(mk.ForestError):
        f.group_labels([f.labels.id_of("a"), f.labels.id_of("c")])


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
    f.force_contract()
    assert f.canonical_key() == before
