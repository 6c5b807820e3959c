"""Instance generator: determinism, leaf preservation, stage behavior."""

import pytest

import mafkit as mk
from mafkit.datagen import internal_edges

from helpers import random_binary_tree_by_recursion


def leaf_names(f):
    return sorted(f.labels.name(l) for l in f.label_ids())


def test_two_taxon_tree_shape():
    t = mk.random_binary_tree(2, seed=9)
    assert mk.serialize(t) == "(1,2,ρ);"


def test_tree_determinism_and_leafset():
    a = mk.random_binary_tree(10, seed=4)
    b = mk.random_binary_tree(10, seed=4)
    c = mk.random_binary_tree(10, seed=5)
    assert mk.serialize(a) == mk.serialize(b)
    assert mk.serialize(a) != mk.serialize(c)
    assert leaf_names(a) == sorted([str(i) for i in range(1, 11)] + ["ρ"])


def test_tree_too_small():
    with pytest.raises(mk.GenerationError):
        mk.random_binary_tree(1, seed=0)


def test_contract_zero_is_identity():
    t = mk.random_binary_tree(8, seed=3)
    assert mk.contract_random_edges(t, 0, seed=1).same_structure(t)


def test_contract_all_gives_star():
    t = mk.random_binary_tree(6, seed=2)
    pool = internal_edges(t)
    star = mk.contract_random_edges(t, len(pool), seed=1)
    assert star.order() == 1
    assert mk.serialize(star) == "(1,2,3,4,5,6,ρ);"


def test_contract_too_many():
    t = mk.random_binary_tree(5, seed=2)
    with pytest.raises(mk.GenerationError):
        mk.contract_random_edges(t, 99, seed=1)


def test_contract_rejects_negative_count():
    t = mk.random_binary_tree(5, seed=2)
    with pytest.raises(mk.GenerationError, match="contract count cannot be negative"):
        mk.contract_random_edges(t, -1, seed=1)


def test_contract_preserves_leaves_and_order(rng):
    t = mk.random_binary_tree(9, seed=6)
    pool = internal_edges(t)
    for count in range(len(pool) + 1):
        g = mk.contract_random_edges(t, count, seed=count)
        assert g.order() == 1
        assert leaf_names(g) == leaf_names(t)


def test_spr_zero_identity():
    t = mk.random_binary_tree(7, seed=1)
    assert mk.apply_random_spr(t, 0, seed=5).same_structure(t)


def test_spr_rejects_negative_count():
    t = mk.random_binary_tree(7, seed=1)
    with pytest.raises(mk.GenerationError, match="SPR count cannot be negative"):
        mk.apply_random_spr(t, -2, seed=5)


def test_spr_rejects_an_unrooted_tree():
    t = mk.generate_instance(mk.GenSpec(n=7, m=2, x=0, seed=1, rooted=False)).forests[0]
    with pytest.raises(mk.GenerationError, match="SPR moves need a rooted tree"):
        mk.apply_random_spr(t, 1, seed=5)


def test_spr_preserves_leafset_and_stays_a_tree():
    t = mk.random_binary_tree(8, seed=1)
    for seed in range(8):
        moved = mk.apply_random_spr(t, 2, seed=seed)
        assert moved.order() == 1
        assert leaf_names(moved) == leaf_names(t)


def test_one_spr_pair_has_small_optimum():
    base = mk.parse_instance("((a,b),(c,d));", rooted=True).forests[0]
    for seed in range(6):
        moved = mk.apply_random_spr(base, 1, seed=seed)
        inst = mk.Instance(rooted=True, forests=(base, moved))
        assert mk.brute_force_maf(inst).opt_order <= 2


def test_spr_rejects_tiny_tree():
    # a single-taxon tree has only the root pendant edge: nothing to prune
    t = mk.parse_instance("a;", rooted=True).forests[0]
    with pytest.raises(mk.GenerationError):
        mk.apply_random_spr(t, 1, seed=0)


def test_spr_on_two_taxa_is_degenerate_but_legal():
    t = mk.parse_instance("(a,b);", rooted=True).forests[0]
    moved = mk.apply_random_spr(t, 1, seed=0)
    assert moved.same_structure(t)  # only the sibling edge can host the regraft


def test_generate_identical_when_x_zero():
    inst = mk.generate_instance(mk.GenSpec(n=5, m=2, x=0, seed=7))
    assert inst.forests[0].same_structure(inst.forests[1])
    assert mk.brute_force_maf(inst).opt_order == 1


def test_generate_deterministic_bytes():
    a = mk.generate_instance(mk.GenSpec(n=8, m=3, x=2, seed=13))
    b = mk.generate_instance(mk.GenSpec(n=8, m=3, x=2, seed=13))
    assert mk.format_instance(a) == mk.format_instance(b)


def test_generate_order_bound(rng):
    for seed in range(12):
        spec = mk.GenSpec(n=rng.randint(4, 7), m=rng.choice([2, 3]), x=rng.randint(0, 2), seed=seed)
        inst = mk.generate_instance(spec)
        assert mk.brute_force_maf(inst).opt_order <= spec.order_bound()


def test_generate_unrooted_strips_rho():
    inst = mk.generate_instance(mk.GenSpec(n=6, m=2, x=1, seed=3, rooted=False))
    assert not inst.rooted
    for f in inst.forests:
        assert mk.RHO not in [f.labels.name(l) for l in f.label_ids()]
        assert f.order() == 1


def test_spec_validation():
    with pytest.raises(mk.GenerationError):
        mk.GenSpec(n=2, m=2, x=0, seed=1)
    with pytest.raises(mk.GenerationError):
        mk.GenSpec(n=5, m=1, x=0, seed=1)
    with pytest.raises(mk.GenerationError):
        mk.GenSpec(n=5, m=2, x=-1, seed=1)


def test_random_binary_tree_matches_recursive_reference():
    for n in (2, 3, 7, 40, 300):
        for seed in range(8):
            f = mk.random_binary_tree(n, seed)
            leaf_labels, edges = random_binary_tree_by_recursion(n, seed)
            assert list(f._vlabel.items()) == list(leaf_labels.items())
            assert list(f._edges.values()) == edges
