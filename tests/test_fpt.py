"""Parameterized solvers: exactness, bounds, soundness, base cases."""

import ast
import pathlib

import pytest

import mafkit as mk
from mafkit import approx, fpt

from helpers import approximate, brute_is_subforest, random_instance, solve_eagerly


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


def test_rooted_solvers_refuse_a_table_without_rho():
    # ((a,b),c) assembled over a table that has no root label
    table = mk.LabelTable.from_names("abc")
    tree = mk.Forest.build(True, table, {0: 0, 1: 1, 2: 2}, [(3, 0), (3, 1), (4, 3), (4, 2)])
    inst = mk.Instance(rooted=True, forests=(tree, tree))
    with pytest.raises(mk.ForestError, match="lacks the root label"):
        mk.solve_rmaf(inst, 2)
    with pytest.raises(mk.ForestError, match="lacks the root label"):
        mk.find_min_k(inst)


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


def test_incumbent_stops_the_ascent_below_its_order(rng, solved_ks):
    answered = found = 0
    for i in range(60):
        inst = random_instance(rng, rooted=i % 2 == 0, n=rng.randint(5, 9),
                               m=rng.randint(2, 4), x=rng.randint(1, 3))
        ares = approximate(inst)
        merged = mk.coarsen(inst, ares.forest)
        solved_ks.clear()
        res = mk.find_min_k(inst, ares.lower_bound(), incumbent=merged)
        assert all(k < merged.order() for k in solved_ks), inst.name
        assert [st.k for st in res.attempts] == solved_ks
        solved_ks.clear()
        assert res.order == mk.find_min_k(inst).order
        assert res.af.verify(inst)
        if res.af.forest is merged:
            # every k below the incumbent failed, or none was left to try
            assert res.stats == mk.SearchStats(k=merged.order())
            answered += 1
        else:
            assert res.stats is res.attempts[-1] and res.order < merged.order()
            found += 1
    assert answered > 20 and found > 0


def test_incumbent_at_the_start_runs_no_search(solved_ks):
    inst = mk.generate_instance(mk.GenSpec(n=10, m=2, x=3, seed=1, rooted=True))
    ares = mk.approx_rmaf(inst)
    merged = mk.coarsen(inst, ares.forest)
    assert merged.order() == ares.lower_bound() == 3
    res = mk.find_min_k(inst, ares.lower_bound(), incumbent=merged)
    assert (res.order, res.attempts, solved_ks) == (3, (), [])
    assert res.af.forest is merged


def test_incumbent_that_is_no_agreement_forest_is_refused(rooted_pair, solved_ks):
    # the first tree has order 1 but is no subforest of the second: nothing
    # is left to search below it, and it is refused, not returned
    with pytest.raises(mk.ForestError, match="not a subforest"):
        mk.find_min_k(rooted_pair, incumbent=rooted_pair.forests[0])
    assert solved_ks == []
    # ((a,c),b) cut above (a,c) has the optimum's order 2, but a and c span
    # b's path to ρ in ((a,b),c): k = 1 fails, and the incumbent is refused
    f2 = rooted_pair.forests[1]
    hub = f2.parent_vertex(f2.vertex_of_label(f2.labels.id_of("a")))
    bad = f2.remove_edges([f2.parent_edge(hub)])
    assert bad.order() == 2
    with pytest.raises(mk.ForestError, match="not a subforest"):
        mk.find_min_k(rooted_pair, incumbent=bad)
    assert solved_ks == [1]
    # the same cut with d alone has order 3, above the optimum 2: the search
    # answers first, and the incumbent is never looked at
    inst = mk.parse_instance("((a,b),c,d);\n((a,c),b,d);", rooted=True)
    f2 = inst.forests[1]
    hub = f2.parent_vertex(f2.vertex_of_label(f2.labels.id_of("a")))
    worse = f2.remove_edges([f2.parent_edge(hub), f2.pendant_edge(f2.labels.id_of("d"))])
    assert worse.order() == 3 and not mk.is_subforest(worse, inst.forests[0])
    solved_ks.clear()
    res = mk.find_min_k(inst, incumbent=worse)
    assert res.order == 2 and res.af.forest is not worse and res.af.verify(inst)
    assert solved_ks == [1, 2]


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


def _calls_itself(fn):
    """Does function ``fn`` call itself by name, as ``name(...)``,
    ``self.name(...)`` or ``cls.name(...)``?  A call on any other object,
    such as ``super().__init__()`` or ``self.forest.order()``, does not count."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == fn.name:
            return True
        if (isinstance(f, ast.Attribute) and f.attr == fn.name
                and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
            return True
    return False


def test_package_has_no_self_recursion():
    # input trees can be thousands of levels deep, past the interpreter's
    # recursion limit; the exact search recurses, but at most k levels deep
    package = pathlib.Path(mk.__file__).parent
    recursive = [
        f"{path.name}:{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_itself(node)
    ]
    assert recursive == ["fpt.py:_search"]


def test_self_recursion_check_flags_only_self_calls():
    source = """
def down(v):
    return [down(w) for w in v]

class Tree:
    def __init__(self):
        super().__init__()

    def order(self):
        return self.forest.order()

    def walk(self):
        return self.walk()

    @classmethod
    def build(cls):
        return cls.build()
"""
    found = [
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and _calls_itself(node)
    ]
    assert found == ["down", "walk", "build"]


def test_groupings_do_not_rescan(rng, monkeypatch):
    # a Case-1 grouping leaves the pair reduced, so only the other nodes
    # run the reduction: one call per node that is not a grouping
    calls = []
    reduce_pair = fpt.reduce_pair

    def counting(f1, f2):
        calls.append(1)
        return reduce_pair(f1, f2)

    monkeypatch.setattr(fpt, "reduce_pair", counting)
    groupings = 0
    for _ in range(40):
        inst = random_instance(rng, rooted=rng.random() < 0.5, n=rng.randint(5, 9),
                               m=rng.randint(2, 4))
        for k in range(1, mk.find_min_k(inst).order + 1):
            calls.clear()
            _, stats = fpt._solve(inst, k)
            assert len(calls) == stats.nodes - stats.case1
            groupings += stats.case1
    assert groupings > 100


def test_branch_child_order_is_known_before_it_is_built(rng, monkeypatch):
    # a pendant cut adds one component, a cut of ``case.cuts`` one per edge
    sibling_case = mk.Forest.sibling_case
    checked = []

    def checking(f1, lids):
        case = sibling_case(f1, lids)
        if case.kind != "mss":
            for lid in case.pair:
                assert f1.remove_edges([f1.pendant_edge(lid)]).order() == f1.order() + 1
            for cut in case.cuts:
                assert f1.remove_edges(cut).order() == f1.order() + len(cut)
                checked.append(case.kind)
        return case

    monkeypatch.setattr(mk.Forest, "sibling_case", checking)
    for _ in range(60):
        inst = random_instance(rng, rooted=rng.random() < 0.5, n=rng.randint(5, 10),
                               m=rng.randint(2, 4), x=rng.randint(1, 3))
        mk.find_min_k(inst)
    assert {"siblings", "path"} <= set(checked)


def test_search_matches_the_eager_reference(rng):
    attempts = 0
    for i in range(120):
        rooted = i % 2 == 0
        inst = random_instance(rng, rooted=rooted, n=rng.randint(5, 9),
                               m=rng.randint(2, 4), x=rng.randint(1, 3))
        solve = mk.solve_rmaf if rooted else mk.solve_umaf
        for stats in mk.find_min_k(inst).attempts:
            forest, again = solve(inst, stats.k)
            ref_forest, ref_stats = solve_eagerly(inst, stats.k)
            assert again == stats == ref_stats, inst.name
            # only a node below order k branches (see the ``fpt`` docstring)
            assert stats.max_depth < stats.k
            if ref_forest is None:
                assert forest is None
            else:
                assert forest.canonical_key() == ref_forest.canonical_key()
            attempts += 1
    assert attempts > 200


def test_settling_at_order_k_keeps_every_result(rng):
    # the search without the order-k rule finds the same forest, or none
    attempts = 0
    for i in range(120):
        rooted = i % 2 == 0
        inst = random_instance(rng, rooted=rooted, n=rng.randint(5, 9),
                               m=rng.randint(2, 4), x=rng.randint(1, 3))
        for stats in mk.find_min_k(inst).attempts:
            forest, _ = solve_eagerly(inst, stats.k)
            free, free_stats = solve_eagerly(inst, stats.k, settle=False)
            assert (forest is None) == (free is None), inst.name
            if forest is not None:
                assert forest.canonical_key() == free.canonical_key(), inst.name
            assert free_stats.nodes >= stats.nodes
            assert free_stats.collapses == stats.collapses
            assert free_stats.rule1_edges == stats.rule1_edges
            attempts += 1
    assert attempts > 200


def test_a_reduced_pair_agrees_only_when_equal(rng):
    # the lemma in ``fpt``: on a reduced pair, F1 <= F2 iff F1 is F2
    equal = grouped = 0
    for i in range(240):
        rooted = i % 2 == 0
        inst = random_instance(rng, rooted=rooted, n=rng.randint(3, 6) if rooted
                               else rng.randint(4, 7), m=2, x=rng.randint(0, 2))
        t1, t2 = inst.forests
        eids = sorted(t1.edge_ids())
        f1, f2, _ = mk.reduce_pair(t1.remove_edges(rng.sample(eids, rng.randint(0, 2))), t2)
        if i % 3 == 0:
            while (mss := f2.find_mss()) is not None and \
                    f1.sibling_case(mss).kind == "mss":
                f1, f2 = f1.group_labels(mss), f2.group_labels(mss)
                grouped += 1
        same = f1.same_structure(f2)
        assert same == brute_is_subforest(f1.expand_labels(), f2.expand_labels()), inst.name
        equal += same
    assert 30 < equal < 210 and grouped > 20


def test_no_branch_child_over_k_is_built(rng, monkeypatch):
    # a branching node's working forest is the one its case analysis ran
    # on; count the removals from it whose result is over k
    sibling_case = mk.Forest.sibling_case
    remove_edges = mk.Forest.remove_edges
    branching = []  # the working forests the attempt branched on
    over = []

    def noting(f1, lids):
        case = sibling_case(f1, lids)
        if case.kind != "mss":
            branching.append(f1)
        return case

    def counting(f, eids):
        child = remove_edges(f, eids)
        if any(f is g for g in branching):
            over.append(child.order() > k)
        return child

    def rule_free(inst, k):
        return solve_eagerly(inst, k, settle=False)

    monkeypatch.setattr(mk.Forest, "sibling_case", noting)
    monkeypatch.setattr(mk.Forest, "remove_edges", counting)
    built = over_in_reference = 0
    for _ in range(60):
        inst = random_instance(rng, rooted=rng.random() < 0.5, n=rng.randint(5, 9),
                               m=rng.randint(2, 4), x=rng.randint(1, 3))
        solve = mk.solve_rmaf if inst.rooted else mk.solve_umaf
        for k in range(1, 4):
            for search in (rule_free, solve):
                branching.clear()
                over.clear()
                search(inst, k)
                if search is solve:
                    assert not any(over)
                    built += len(over)
                else:
                    over_in_reference += sum(over)
    assert built > 100 and over_in_reference > 50


def test_lockstep_grouping_builds_no_table(monkeypatch):
    # grouping keeps the instance's own table, across collapses too, and
    # both forests of a pair group one set into one label id
    inst = mk.generate_instance(mk.GenSpec(n=20, m=3, x=1, seed=1_001_000, rooted=True))
    table = inst.forests[0].labels
    runs = {fpt: [], approx: []}
    next_case = fpt.next_case

    def noting(module):
        def noted(f1, f2):
            got = next_case(f1, f2)
            runs[module].append(got)
            return got
        monkeypatch.setattr(module, "next_case", noted)

    noting(fpt)
    noting(approx)
    amaf = mk.approx_rmaf(inst)
    res = mk.find_min_k(inst, amaf.lower_bound())
    assert res.order == 3 and res.stats.collapses == 4
    both = runs[fpt] + runs[approx]
    assert all(g.labels is table for g1, g2, _, _ in both for g in (g1, g2))
    counts = {m: sum(len(grouped) for *_, grouped in r) for m, r in runs.items()}
    assert counts[fpt] == sum(a.case1 for a in res.attempts)
    assert counts[approx] == amaf.step_counts()["group"]
    assert counts[fpt] + counts[approx] == 36
    for g1, g2, _, grouped in both:
        assert g1.label_ids() == g2.label_ids()
        for lids in grouped:
            assert g1.originals(min(lids))[0] == min(lids)
