"""Parameterized solvers: exactness, bounds, soundness, base cases."""

import ast
import pathlib

import pytest

import mafkit as mk

from helpers import random_instance


def test_identical_trees_any_k(identical_rooted):
    for k in (1, 2, 5):
        forest, stats = mk.solve_rmaf(identical_rooted, k)
        assert forest is not None and forest.order() == 1
        assert forest.same_structure(identical_rooted.forests[0])


def test_conflicting_pair_k1_then_k2(rooted_pair):
    forest, _ = mk.solve_rmaf(rooted_pair, 1)
    assert forest is None
    forest, stats = mk.solve_rmaf(rooted_pair, 2)
    assert forest is not None and forest.order() == 2
    for f in rooted_pair.forests:
        assert mk.is_subforest(forest, f)
    assert stats.leaves <= 3**2


def test_quartets_unrooted(quartets):
    forest, _ = mk.solve_umaf(quartets, 1)
    assert forest is None
    forest, stats = mk.solve_umaf(quartets, 2)
    assert forest is not None and forest.order() == 2
    assert stats.leaves <= 4**2


def test_rootedness_dispatch_errors(rooted_pair, quartets):
    with pytest.raises(mk.ForestError):
        mk.solve_umaf(rooted_pair, 2)
    with pytest.raises(mk.ForestError):
        mk.solve_rmaf(quartets, 2)
    with pytest.raises(mk.ForestError):
        mk.solve_rmaf(rooted_pair, 0)


def test_exactness_against_oracle(rng):
    for _ in range(30):
        rooted = rng.random() < 0.5
        inst = random_instance(rng, rooted)
        opt = mk.brute_force_maf(inst).opt_order
        res = mk.find_min_k(inst)
        assert res.order == opt
        assert res.af.verify(inst)


def test_leaf_and_depth_bounds(rng):
    for _ in range(20):
        rooted = rng.random() < 0.5
        inst = random_instance(rng, rooted, x=rng.randint(1, 2))
        res = mk.find_min_k(inst)
        base = 3 if rooted else 4
        for st in res.attempts:
            assert st.leaves <= base**st.k
            assert st.max_depth <= st.k


def test_soundness_of_certificates(rng):
    for _ in range(10):
        inst = random_instance(rng, rooted=True)
        res = mk.find_min_k(inst)
        for f, wit in zip(inst.forests, res.af.witnesses):
            assert f.remove_edges(wit).same_structure(res.af.forest)


def test_generated_bound_twenty_leaves():
    spec = mk.GenSpec(n=20, m=3, x=1, seed=17)
    inst = mk.generate_instance(spec)
    res = mk.find_min_k(inst)
    assert res.order <= spec.order_bound() == 3


def test_unique_maximal_af_all_singletons(rooted_pair):
    f1 = rooted_pair.forests[0]
    sing = f1.remove_edges(sorted(f1.edge_ids()))
    out = mk.unique_maximal_af(f1, sing)
    assert out.same_structure(sing)


def test_unique_maximal_af_rho_edge_cases():
    inst = mk.parse_instance("((a,b),c);\n((a,b),c);", rooted=True)
    f1 = inst.forests[0]
    # keep only the rho pendant edge: {rho-c} plus singletons
    a, b = f1.labels.id_of("a"), f1.labels.id_of("b")
    f2 = f1.remove_edges([f1.pendant_edge(a), f1.pendant_edge(b)])
    assert len(list(f2.edge_ids())) == 1
    # rho and c share a component in f1: the pair's maximal AF is f2 itself
    assert mk.unique_maximal_af(f1, f2).same_structure(f2)
    # but if they are separated, it collapses to singletons
    c = f1.labels.id_of("c")
    f1_split = f1.remove_edges([f1.pendant_edge(c)])
    out = mk.unique_maximal_af(f1_split, f2)
    assert out.order() == 4


def test_unique_maximal_af_requires_no_mss(rooted_pair):
    with pytest.raises(mk.ForestError):
        mk.unique_maximal_af(*rooted_pair.forests)


def test_find_min_k_reports_smallest(rooted_pair, identical_rooted):
    assert mk.find_min_k(identical_rooted).order == 1
    res = mk.find_min_k(rooted_pair)
    assert res.order == 2
    assert len(res.attempts) == 2  # k=1 failed, k=2 succeeded


def test_find_min_k_signals_infeasible_cap(rooted_pair):
    with pytest.raises(mk.NoSolutionError):
        mk.find_min_k(rooted_pair, k_hi=1)


def test_find_min_k_with_higher_floor(rooted_pair):
    # starting above the optimum still returns a valid certificate
    res = mk.find_min_k(rooted_pair, k_lo=3)
    assert res.af.verify(rooted_pair)
    assert res.order <= 3


def test_stats_summary_mentions_counts(rooted_pair):
    _, stats = mk.solve_rmaf(rooted_pair, 2)
    text = stats.summary()
    assert "nodes=" in text and "leaves=" in text


def test_package_checks_survive_optimized_mode():
    # ``python -O`` strips assert statements, so invariants must raise
    package = pathlib.Path(mk.__file__).parent
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
