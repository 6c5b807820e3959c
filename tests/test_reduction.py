"""Reduction rule: applicability, fixpoints, optimum preservation."""

import gc
import random
import weakref

import pytest

import mafkit as mk
from mafkit import forest as forest_mod
from mafkit import reduction
from mafkit.reduction import find_applicable

from helpers import (
    approximate,
    brute_is_subforest,
    find_applicable_by_bfs,
    is_closed,
    mss_candidates_by_scan,
    random_instance,
    reduce_by_steps,
    reduction_preserves_optimum,
    reductions_seen,
    zero_sum_edges_by_walk,
)


def test_singleton_triggers_leaf_removal():
    inst = mk.parse_instance("((a,b),c);\n((a,b),c);", rooted=True)
    full = inst.forests[0]
    b = full.labels.id_of("b")
    fp = full.remove_edges([full.pendant_edge(b)])  # b is a singleton here
    f1, f2, trace = mk.reduce_pair(fp, full)
    assert len(trace) >= 1
    assert trace[0] == full.pendant_edge(b) == find_applicable_by_bfs(fp, full)[0]
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
    assert trace == (mid,) == find_applicable_by_bfs(fp, full)
    assert f1.label_partition() == f2.label_partition()
    # optimum unchanged: both pairs have agreement order 2
    before = mk.brute_force_maf(mk.Instance(rooted=False, forests=(fp, full)))
    after = mk.brute_force_maf(mk.Instance(rooted=False, forests=(f1, f2)))
    assert before.opt_order == after.opt_order == 2


def test_all_singletons_propagate():
    inst = mk.parse_instance("((a,b),c);\n((a,c),b);", rooted=True)
    f1 = inst.forests[0]
    sing = f1.remove_edges(sorted(f1.edge_ids()))
    g1, g2, trace = mk.reduce_pair(sing, inst.forests[1])
    assert g1.order() == g2.order() == 4
    # contraction absorbs edges, so fewer explicit removals than edges suffice
    assert 1 <= len(trace) <= len(list(inst.forests[1].edge_ids()))


def test_reduce_instance_preserves_optimum(rng):
    # every pair the contract admits: each input pair (Ti, Tj), and every
    # pair the solvers reduce on the way to their answers
    checked = 0
    for _ in range(30):
        inst = random_instance(rng, rooted=rng.random() < 0.5, n=rng.randint(4, 6))
        pairs = [(ti, tj) for ti in inst.forests for tj in inst.forests if ti is not tj]
        with reductions_seen() as calls:
            mk.find_min_k(inst)
            approximate(inst)
        pairs += [(f1, f2) for f1, f2, _ in calls]
        for f1, f2 in pairs:
            _, reduced, removals = mk.reduce_pair(f1, f2)
            assert len(removals) <= len(f2.edge_ids())
            if removals:
                assert reduction_preserves_optimum(f1, f2, reduced)
                checked += 1
    assert checked > 30


def test_fixpoint_stops_once_forests_are_equal(monkeypatch):
    inst = mk.parse_instance("((a,b),c);\n((a,b),c);", rooted=True)
    full = inst.forests[0]
    fp = full.remove_edges([full.pendant_edge(full.labels.id_of("b"))])
    scans = []
    scan = reduction.find_applicable

    def counting_scan(p, q):
        scans.append(scan(p, q))
        return scans[-1]

    monkeypatch.setattr(reduction, "find_applicable", counting_scan)
    f1, f2, trace = mk.reduce_pair(fp, full)
    # one scan finds the one hit, which makes the pair equal
    assert len(trace) == 1 and f1.same_structure(f2)
    assert len(scans) == 1 and scans[0] is not None


# -- the zero-sum scan against the per-edge reference ------------------------


def random_pair(rng, rooted):
    """Two forests over one label table, the second closed over the first
    (each of its components a union of the first's), as in the solvers:
    grouped in lockstep, the first cut, a label cut off in both, and the
    second partly reduced."""
    inst = random_instance(rng, rooted, n=rng.randint(4, 12), m=2, x=rng.randint(0, 3))
    fp, fq = inst.forests
    # group sibling sets the trees share, in lockstep as the solvers do
    for _ in range(rng.randint(0, 3)):
        mss = fq.find_mss()
        if mss is None or fp.sibling_case(mss).kind != "mss":
            break
        fp, fq = fp.group_labels(mss), fq.group_labels(mss)
    eids = sorted(fp.edge_ids())
    fp = fp.remove_edges(rng.sample(eids, rng.randint(0, min(3, len(eids)))))
    leaves = sorted(l for l in fp.label_ids()
                    if fp.degree(fp.vertex_of_label(l)) == 1 == fq.degree(fq.vertex_of_label(l)))
    if leaves and rng.random() < 0.5:
        lid = rng.choice(leaves)
        fp, fq = fp.remove_edges([fp.pendant_edge(lid)]), fq.remove_edges([fq.pendant_edge(lid)])
    removable = list(find_applicable_by_bfs(fp, fq) or ())
    if removable and rng.random() < 0.5:
        fq = fq.remove_edges(rng.sample(removable, rng.randint(1, len(removable))))
    return fp, fq


def scans_match_reference(fp, fq):
    """Compare the scan with the per-edge reference on a pair and on the
    reduced pair, which must admit no removal; count the removable edges."""
    got = find_applicable(fp, fq)
    assert got == find_applicable_by_bfs(fp, fq)
    _, reduced, _ = mk.reduce_pair(fp, fq)
    assert find_applicable(fp, reduced) is None is find_applicable_by_bfs(fp, reduced)
    return len(got or ())


def test_scan_matches_per_edge_reference(rng):
    hits = 0
    for _ in range(150):
        fp, fq = random_pair(rng, rooted=rng.random() < 0.5)
        hits += scans_match_reference(fp, fq)
    assert hits > 100


def test_bulk_removal_matches_one_at_a_time(rng):
    # one removal of every removable edge reaches the forest the rule
    # reaches one edge at a time, in either direction, with one record per
    # removal that loop makes
    removals = 0
    for _ in range(150):
        fp, fq = random_pair(rng, rooted=rng.random() < 0.5)
        f1, f2, trace = mk.reduce_pair(fp, fq)
        r1, r2, steps = reduce_by_steps(fp, fq)
        assert f1 is fp and r1 is fp  # the working forest loses no edge
        assert f2.same_structure(r2)
        assert len(trace) == steps
        # each recorded edge is a removable edge of the partner given
        assert set(trace) <= set(find_applicable_by_bfs(fp, fq) or ()) <= fq.edge_ids()
        assert list(trace) == sorted(trace)
        removals += steps
    assert removals > 100


def test_pair_outside_the_contract_is_refused():
    # the second forest cut where the first is whole: its components are
    # not unions of the first's, so one side of an edge is no longer enough
    for rooted in (True, False):
        t1, t2 = mk.parse_instance("((a,b),(c,d));\n((a,c),(b,d));", rooted).forests
        cut = t2.remove_edges([t2.pendant_edge(t2.labels.id_of("a"))])
        with pytest.raises(mk.ForestError, match="not a union of witness components"):
            mk.reduce_pair(t1, cut)
        with pytest.raises(mk.ForestError):
            find_applicable(t1, cut)
        assert mk.reduce_pair(cut, t1)[2]  # the other way round is closed


def test_solvers_refuse_a_later_input_that_is_not_a_tree():
    # the first input may be a forest; a later one must be one tree, or the
    # solvers' pairs would leave the contract
    for rooted in (True, False):
        t1, t2 = mk.parse_instance("((a,b),(c,d));\n((a,c),(b,d));", rooted).forests
        cut = t2.remove_edges([t2.pendant_edge(t2.labels.id_of("a"))])
        inst = mk.Instance(rooted=rooted, forests=(t1, cut))
        for solve in (mk.find_min_k, approximate):
            with pytest.raises(mk.ForestError, match="must be one tree"):
                solve(inst)
        cut_first = mk.Instance(rooted=rooted, forests=(cut, t1))
        opt = mk.brute_force_maf(cut_first).opt_order
        assert mk.find_min_k(cut_first).order == opt
        assert opt <= approximate(cut_first).order


def test_solver_pairs_are_closed(rng, monkeypatch):
    # Lemma A on every call the solvers make: the partner's components are
    # unions of the working forest's before and after, no working-forest
    # edge is removable, and each call makes one scan
    scans = []
    scan = reduction.find_applicable

    def counting_scan(fp, fq):
        scans.append(1)
        return scan(fp, fq)

    monkeypatch.setattr(reduction, "find_applicable", counting_scan)
    calls = 0
    for i in range(100):
        rooted = i % 2 == 0
        inst = random_instance(rng, rooted, n=rng.randint(4, 9), m=2 + i % 3,
                               x=rng.randint(1, 2))
        scans.clear()
        with reductions_seen() as seen:
            mk.find_min_k(inst)
            approximate(inst)
        assert len(scans) == len(seen)
        for f1, f2, (g1, g2, _) in seen:
            assert g1 is f1
            assert is_closed(f1, f2) and is_closed(f1, g2)
            assert find_applicable_by_bfs(f2, f1) is None
        calls += len(seen)
    assert calls > 1000


def test_scan_with_colliding_weights_matches_reference(rng, monkeypatch):
    # all-zero weights flag every edge: only the exact check tells hits apart
    def zeros(comp_labels):
        return {lid: 0 for labels in comp_labels for lid in labels}

    monkeypatch.setattr(reduction, "_label_weights", zeros)
    hits = 0
    for _ in range(80):
        fp, fq = random_pair(rng, rooted=rng.random() < 0.5)
        weight = zeros(fp.label_partition())
        assert zero_sum_edges_by_walk(fq, weight) == sorted(fq.edge_ids())
        hits += scans_match_reference(fp, fq)
    assert hits > 50


def test_scan_splits_only_the_edges_it_removes(monkeypatch):
    # guards the linear scan: one smaller-side check per removable edge it
    # finds, so none for an edge flagged by chance, and none per scanned edge
    inst = mk.generate_instance(mk.GenSpec(n=100, m=5, x=2, seed=43, rooted=True))
    calls = {"checks": 0, "hits": 0}
    side, weights_of, scan = (
        reduction._smaller_side, reduction._weights_of, reduction.find_applicable)
    carrying = []

    def counting_side(*args):
        # the weights' own walks (``_rezero``) are not checks
        calls["checks"] += not carrying
        return side(*args)

    def carried_weights(fp):
        carrying.append(1)
        try:
            return weights_of(fp)
        finally:
            carrying.pop()

    def counting_scan(fp, fq):
        found = scan(fp, fq)
        calls["hits"] += len(found or ())
        return found

    monkeypatch.setattr(reduction, "_smaller_side", counting_side)
    monkeypatch.setattr(reduction, "_weights_of", carried_weights)
    monkeypatch.setattr(reduction, "find_applicable", counting_scan)
    f1, f2 = inst.forests[:2]
    leaves = sorted(f1.label_ids())[1:6]
    cut = f1.remove_edges([f1.pendant_edge(l) for l in leaves])
    mk.reduce_pair(cut, f2)
    mk.approx_rmaf(inst)
    assert calls["hits"] > 0
    assert calls["checks"] == calls["hits"]


# -- side sums and weights carried from a forest to the values derived from it


def check_every_scan(monkeypatch):
    """Wrap the scan so that every call checks what it inherited.

    On every ``find_applicable`` call: the weights of ``fp`` sum to 0 mod
    2^64 over each of its components, the flagged edges equal a full walk's
    under those weights, and the answer is the per-edge reference's.
    Returns the counts of scans and of full walks.
    """
    counts = {"scans": 0, "walks": 0, "inside": False}
    scan, candidates, side_sums = (
        reduction.find_applicable, reduction._candidates, reduction._side_sums)

    def checked_candidates(fq, weight):
        counts["inside"] = True
        try:
            got = candidates(fq, weight)
        finally:
            counts["inside"] = False
        assert got == zero_sum_edges_by_walk(fq, weight)
        return got

    def checked_scan(fp, fq):
        got = scan(fp, fq)
        weight = reduction._weights_of(fp)
        assert set(weight) == fp.label_ids()
        for labels in fp.label_partition():
            assert sum(weight[lid] for lid in labels) % (1 << 64) == 0
        assert got == find_applicable_by_bfs(fp, fq)
        counts["scans"] += 1
        return got

    def counted_side_sums(f, weight):
        counts["walks"] += counts["inside"]  # the reference's walks do not count
        return side_sums(f, weight)

    monkeypatch.setattr(reduction, "_candidates", checked_candidates)
    monkeypatch.setattr(reduction, "find_applicable", checked_scan)
    monkeypatch.setattr(reduction, "_side_sums", counted_side_sums)
    return counts


def solve_every_way(rng, instances):
    for _ in range(instances):
        rooted = rng.random() < 0.5
        inst = random_instance(rng, rooted, n=rng.randint(4, 9),
                               m=rng.randint(2, 4), x=rng.randint(1, 2))
        mk.find_min_k(inst)
        (mk.approx_rmaf if rooted else mk.approx_umaf)(inst)


def test_carried_scan_matches_full_walk(rng, monkeypatch):
    counts = check_every_scan(monkeypatch)
    solve_every_way(rng, 100)
    assert counts["scans"] > 2000  # one per reduce_pair call
    # most scans inherit their sums (a scan under weights not derived from
    # the ones its inherited sums hold walks afresh)
    assert counts["walks"] < counts["scans"] / 2


def test_carried_scan_survives_evicted_sums(rng, monkeypatch):
    # with no value linked to its parent, no scan finds a kept ancestor and
    # most fall back to the full walk; the answers stay the same
    monkeypatch.setattr(forest_mod, "_ORIGIN_CHAIN", 0)
    counts = check_every_scan(monkeypatch)
    solve_every_way(rng, 20)
    assert counts["walks"] > counts["scans"] / 2


def test_grouping_keeps_weights_and_sums():
    inst = mk.parse_instance("((a,b),(c,(d,e)));\n((a,b),((c,d),e));", rooted=True)
    f1, f2 = inst.forests
    cut = f1.remove_edges([f1.pendant_edge(f1.labels.id_of("c"))])
    find_applicable(cut, f2)  # keeps f2's side sums under cut's weights
    ab = frozenset(f1.labels.id_of(x) for x in "ab")
    g1, g2 = cut.group_labels(ab), f2.group_labels(ab)
    w, gw = reduction._weights_of(cut), reduction._weights_of(g1)
    new = min(ab)  # the group keeps a's id, and the old a and b are behind it
    assert g1.label_ids() == cut.label_ids() - {max(ab)}
    assert gw[new] == (w[min(ab)] + w[max(ab)]) % (1 << 64)
    assert {lid: sorted(behind) for lid, behind in gw.changed.items()} == {new: sorted(ab)}
    before = reduction._sums_of(f2, w).below
    after = reduction._sums_of(g2, gw).below
    # every vertex the grouping kept keeps its sum
    assert {v: after[v] for v in g2.vertices()} == {v: before[v] for v in g2.vertices()}


def test_removal_rezeroes_each_piece():
    f = mk.parse_instance("((a,b),((c,d),(e,f)));", rooted=False).forests[0]
    w = reduction._weights_of(f)
    edge = next(e for e in sorted(f.edge_ids())
                if {len(s) for s in (f.split_labels(e).side1, f.split_labels(e).side2)} == {2, 4})
    g = f.remove_edges([edge])
    gw = reduction._weights_of(g)
    for labels in g.label_partition():
        assert sum(gw[lid] for lid in labels) % (1 << 64) == 0
    # one label on each side of the cut took the difference
    assert len(gw.changed) == 2 and {lid for lid in w if w[lid] != gw[lid]} == gw.changed.keys()
    assert all(behind == (lid,) for lid, behind in gw.changed.items())


def test_kept_sums_stay_as_they_were(rng, monkeypatch):
    # side sums kept on a value are never written: descendants carry a copy,
    # and only a scan of the value itself under other weights replaces them
    kept = []
    sums_of = reduction._sums_of

    def recording_sums_of(fq, weight):
        before = fq._sums
        got = sums_of(fq, weight)
        if fq._sums is not before:
            sums = fq._sums
            kept.append((fq, sums, sums.weight, dict(sums.weight),
                         dict(sums.up), dict(sums.below)))
        return got

    monkeypatch.setattr(reduction, "_sums_of", recording_sums_of)
    solve_every_way(rng, 20)
    assert len(kept) > 500
    latest = {}
    for fq, sums, weight, weights, up, below in kept:
        assert sums.weight is weight
        assert (dict(weight), sums.up, sums.below) == (weights, up, below)
        latest[id(fq)] = fq, sums
    for fq, sums in latest.values():
        assert fq._sums is sums


def test_scanned_child_lets_its_parent_go():
    for rooted in (True, False):
        f1, f2 = mk.parse_instance(
            "((a,b),(c,(d,e)));\n((a,c),(b,(d,e)));", rooted).forests
        find_applicable(f2, f1)  # f1 keeps side sums under f2's weights
        g = f1.remove_edges([f1.pendant_edge(f1.labels.id_of("c"))])
        parent = weakref.ref(f1)
        del f1
        find_applicable(g, f2)  # g inherits weights
        assert g._weights is not None and g._origin is not None
        # and side sums, under weights derived from f2's: the origin is not
        # needed now
        find_applicable(f2.remove_edges([f2.pendant_edge(f2.labels.id_of("c"))]), g)
        assert g._sums is not None and g._origin is None
        gc.collect()
        assert parent() is None


def test_scanned_partner_lets_its_ancestors_go():
    # a partner gets side sums but never weights: once scanned it lets go
    # of its origin, while a witness, which has weights only, keeps its own
    for rooted in (True, False):
        t1, t2 = mk.parse_instance(
            "((a,b),(c,(d,e)));\n((a,c),(b,(d,e)));", rooted).forests
        witness, partner, ancestors = t1, t2, []
        for name in "ca":  # each label cut off in both, as the solvers cut
            lid = t1.labels.id_of(name)
            witness = witness.remove_edges([witness.pendant_edge(lid)])
            ancestors.append(weakref.ref(partner))
            partner = partner.remove_edges([partner.pendant_edge(lid)])
        del t1, t2
        assert partner._origin is not None
        find_applicable(witness, partner)
        assert partner._sums is not None and partner._weights is None
        assert partner._origin is None
        assert witness._weights is not None and witness._sums is None
        assert witness._origin is not None
        gc.collect()
        assert all(ref() is None for ref in ancestors)


# -- grouping keeps a reduced pair reduced (the lemma the solvers rely on) ----


def group_checked(f1, f2):
    """Group every sibling set maximal in both forests of a reduced pair.

    After each grouping the per-edge reference must find nothing in either
    direction, and the pair must be equal exactly when it was before.
    Returns the grouped pair and the label sets grouped, in order.
    """
    groupings = []
    while (mss := f2.find_mss()) is not None and f1.sibling_case(mss).kind == "mss":
        equal = f1.same_structure(f2)
        f1, f2 = f1.group_labels(mss), f2.group_labels(mss)
        assert find_applicable_by_bfs(f1, f2) is None
        assert find_applicable_by_bfs(f2, f1) is None
        assert f1.same_structure(f2) == equal
        groupings.append(mss)
    return f1, f2, groupings


def test_grouping_keeps_pair_reduced_and_unequal(rng):
    # walk each partner of the first forest as the solvers do: reduce,
    # group, cut one label of a conflicting sibling set, and again
    groupings = {True: 0, False: 0}  # by whether the pair was equal
    for _ in range(120):
        inst = random_instance(rng, rooted=rng.random() < 0.5,
                               n=rng.randint(5, 12), m=rng.randint(2, 4), x=rng.randint(1, 3))
        f1 = inst.forests[0]
        for fi in inst.forests[1:]:
            while True:
                f1, fi, _ = mk.reduce_pair(f1, fi)
                equal = f1.same_structure(fi)
                f1, fi, sets = group_checked(f1, fi)
                groupings[equal] += len(sets)
                mss = fi.find_mss()
                if mss is None or f1.same_structure(fi):
                    break
                a = f1.sibling_case(mss).pair[rng.randrange(2)]
                f1 = f1.remove_edges([f1.pendant_edge(a)])
                fi = fi.remove_edges([fi.pendant_edge(a)])
            f1 = f1.expand_labels()
    assert groupings[False] > 200 and groupings[True] > 500


def test_next_case_matches_lockstep_grouping(rng):
    # every reduced pair the solvers reach, against the lockstep loop
    # ``group_checked``, which groups and checks each set on its own
    seen = {"groupings": 0, "equal": 0, "unequal": 0}
    for i in range(40):
        rooted = i % 2 == 0
        inst = random_instance(rng, rooted, n=rng.randint(4, 9), m=2 + i % 3,
                               x=rng.randint(1, 2))
        with reductions_seen() as calls:
            mk.find_min_k(inst)
            approximate(inst)
        for _, _, (f1, f2, _) in calls:
            g1, g2, case, grouped = reduction.next_case(f1, f2)
            r1, r2, sets = group_checked(f1, f2)
            assert g1.same_structure(r1) and g2.same_structure(r2)
            assert grouped == sets
            # the run records every grouping as the lockstep loop does
            assert all(g.originals(lid) == r.originals(lid)
                       for g, r in ((g1, r1), (g2, r2)) for lid in r.label_ids())
            assert (case is None) == f1.same_structure(f2)
            if case is not None:
                assert case.kind != "mss" and case == r1.sibling_case(r2.find_mss())
            seen["groupings"] += len(sets)
            seen["equal" if case is None else "unequal"] += 1
    assert seen["groupings"] > 800 and seen["equal"] > 200 and seen["unequal"] > 400


def as_written(f):
    """What a derivation may not write once ``f`` is returned."""
    return ({v: dict(row) for v, row in f._adj.items()}, dict(f._vlabel),
            dict(f._groups), None if f._mss is None else dict(f._mss))


def test_next_case_derives_each_forest_once(rng, monkeypatch):
    # a run of groupings copies each forest once, and a pair with nothing
    # to group none; the forests given stay as they were, and the tables
    # the run carries are those a full scan finds
    copies = []
    copy = mk.Forest._copy

    def counted(forest):
        copies.append(forest)
        return copy(forest)

    runs = [0, 0, 0]  # by the sets grouped: none, one, more
    for i in range(30):
        inst = random_instance(rng, i % 2 == 0, n=rng.randint(4, 9), m=2 + i % 2,
                               x=rng.randint(1, 2))
        with reductions_seen() as calls:
            mk.find_min_k(inst)
            approximate(inst)
        for f1, f2 in ((f1, f2) for _, _, (f1, f2, _) in calls):
            f1.find_mss()  # so that the run carries both tables
            f2.find_mss()
            before = [as_written(f) for f in (f1, f2)]
            copies.clear()
            with monkeypatch.context() as mp:
                mp.setattr(mk.Forest, "_copy", counted)
                g1, g2, _, grouped = reduction.next_case(f1, f2)
            assert [as_written(f) for f in (f1, f2)] == before
            assert copies == ([f1, f2] if grouped else [])
            if not grouped:
                assert g1 is f1 and g2 is f2
            for g in (g1, g2):
                assert set(g._mss) == {c.hub for c in mss_candidates_by_scan(g)}
            runs[min(len(grouped), 2)] += 1
    assert min(runs) > 20


def cut_off(forest, names):
    """``forest`` with the edge whose one side is exactly ``names`` removed."""
    want = frozenset(forest.labels.id_of(n) for n in names)
    eid = next(e for e in sorted(forest.edge_ids())
               if want in (forest.split_labels(e).side1, forest.split_labels(e).side2))
    return forest.remove_edges([eid])


def hand_built_pair(text, names):
    f1, f2 = mk.parse_instance(text, rooted=False).forests
    f1, f2 = cut_off(f1, names), cut_off(f2, names)
    assert find_applicable_by_bfs(f1, f2) is None
    assert find_applicable_by_bfs(f2, f1) is None
    assert not f1.same_structure(f2)
    return f1, f2


def test_grouping_a_single_edge_tree_keeps_pair_reduced():
    f1, f2 = hand_built_pair("((a,b),((c,d),(e,f)));\n((a,b),((c,e),(d,f)));", "ab")
    mss = f2.find_mss()
    hub = min(f2.vertex_of_label(l) for l in mss)  # the smaller leaf vertex
    assert f2.sibling_case(mss).hub == hub and f1.sibling_case(mss).kind == "mss"
    g1, g2, sets = group_checked(f1, f2)
    assert sets and g1.order() == f1.order()


def test_grouping_a_full_star_keeps_pair_reduced():
    f1, f2 = hand_built_pair(
        "((a,b,c),((d,e),(f,g)));\n((a,b,c),((d,f),(e,g)));", "abc")
    star = frozenset(f1.labels.id_of(n) for n in "abc")
    # the whole star, whose hub has no other neighbor, is maximal in both
    assert f1.sibling_case(star).kind == "mss" == f2.sibling_case(star).kind
    g1, g2 = f1.group_labels(star), f2.group_labels(star)
    s = min(star)  # the star's leaf keeps the least id
    assert g1.degree(g1.vertex_of_label(s)) == 0 == g2.degree(g2.vertex_of_label(s))
    assert find_applicable_by_bfs(g1, g2) is None
    assert find_applicable_by_bfs(g2, g1) is None
    assert not g1.same_structure(g2)
    # and the grouping find_mss prefers, two of the three star leaves
    assert group_checked(f1, f2)[2]


# -- a reduced pair whose second forest has no sibling set is equal -----------


def pairs_to_reduce(rng, inst):
    """Pairs over one label table, each second forest closed over its first:
    the first tree against each later one both ways, after lockstep
    groupings, and with random cuts of the first tree down to all
    singletons.  Rooted, also the first tree cut down to ρ's pendant edge,
    with and without that edge's other label cut off, against the first
    tree and the single-edge forest."""
    t1 = inst.forests[0]
    eids = sorted(t1.edge_ids())
    cuts = [t1.remove_edges(rng.sample(eids, rng.randint(1, len(eids)))) for _ in range(2)]
    cuts.append(t1.remove_edges(eids))
    pairs = []
    for ti in inst.forests[1:]:
        pairs += [(t1, ti), (ti, t1)] + [(g, ti) for g in cuts]
        f1, f2 = t1, ti
        while (mss := f2.find_mss()) is not None and f1.sibling_case(mss).kind == "mss":
            f1, f2 = f1.group_labels(mss), f2.group_labels(mss)
            pairs.append((f1, f2))
    if inst.rooted:
        rho = t1.labels.id_of(mk.RHO)
        c = rng.choice(sorted(t1.label_ids() - {rho}))
        rho_edge = t1.remove_edges(
            [t1.pendant_edge(lid) for lid in t1.label_ids() if lid not in (rho, c)])
        assert len(rho_edge.edge_ids()) == 1
        singles = rho_edge.remove_edges([rho_edge.pendant_edge(c)])
        pairs += [(rho_edge, t1), (singles, t1), (rho_edge, rho_edge), (singles, rho_edge)]
    return pairs


def test_reduced_pair_without_sibling_set_is_equal():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    hits = {0: 0, 1: 0}  # by the second forest's edge count

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1), rooted=st.booleans(),
                      m=st.integers(2, 4))
    def check(seed, rooted, m):
        rng = random.Random(seed)
        for f1, f2 in pairs_to_reduce(rng, random_instance(rng, rooted, m=m)):
            a, b, _ = mk.reduce_pair(f1, f2)
            if b.find_mss() is not None:
                continue
            hits[len(b.edge_ids())] += 1
            assert a.same_structure(b)
            assert brute_is_subforest(a, b) and brute_is_subforest(b, a)

    check()
    assert hits[0] + hits[1] > 30 and hits[1] > 0


# -- forests must share their label ids ---------------------------------------


def test_reduce_pair_rejects_different_label_ids():
    for rooted in (True, False):
        f = mk.parse_instance("((a,b),(c,d));", rooted=rooted).forests[0]
        grouped = f.group_labels(f.find_mss())
        with pytest.raises(mk.LabelUniverseError):
            mk.reduce_pair(f, grouped)
        with pytest.raises(mk.LabelUniverseError):
            mk.reduce_pair(grouped, f)
