"""Search counters and meta-step traces pinned on small generated instances.

The values are a fixed record of the solvers' output.  A change to the case
analysis, the reduction fixpoint or the essential subset that is meant to
keep output identical must reproduce them exactly: every k attempt's
``SearchStats`` and, for every approximation record,
``(kind, removed_f1, removed_partner, essential)``.  A cut step's
``removed_partner`` is pinned by the labels each edge splits off, not by
edge id (see :func:`approximation_records`).
"""

import pytest

import mafkit as mk

from helpers import audited_steps, labels_of, vertex_sides_by_walk

STATS_FIELDS = ("k", "nodes", "leaves", "max_depth", "case1", "case2", "case31",
                "case32", "rule1_edges", "collapses")

# (n, m, x, generator seed, rooted) -> (attempts, approximation records).
# The unrooted instances of seeds 10 and 12 branch on unrooted sibling sets
# in a way that makes their counters depend on the order of the two
# surplus-edge branches, so they pin that order too.
PINNED = {
    (12, 3, 2, 1, True): (
        [
            (1, 1, 1, 0, 0, 0, 0, 0, 0, 0),
            (2, 7, 3, 1, 3, 0, 0, 1, 1, 1),
            (3, 27, 4, 2, 16, 0, 0, 3, 5, 5),
        ],
        [
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('ms32', (0, 13, 19), ((1,), (10,)), (0, 13, 19)),
            ('rule1', (), (22,), ()),
            ('rule1', (), (18,), ()),
            ('rule1', (), (22,), ()),
            ('rule1', (), (23,), ()),
        ],
    ),
    (12, 3, 2, 2, True): (
        [
            (1, 1, 1, 0, 0, 0, 0, 0, 0, 0),
            (2, 4, 3, 1, 0, 0, 0, 1, 1, 0),
            (3, 16, 9, 2, 4, 1, 0, 3, 4, 1),
            (4, 33, 9, 3, 15, 0, 0, 6, 13, 5),
        ],
        [
            ('ms32', (11, 12, 14), ((2,), (8,)), (11, 12, 14)),
            ('rule1', (), (20,), ()),
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('ms32', (0, 5, 18), ((0,), (3,)), (0, 5, 18)),
            ('rule1', (), (0,), ()),
            ('rule1', (), (0,), ()),
            ('rule1', (), (6,), ()),
            ('rule1', (), (13,), ()),
            ('rule1', (), (14,), ()),
            ('rule1', (), (15,), ()),
            ('rule1', (), (20,), ()),
        ],
    ),
    (15, 4, 2, 1, True): (
        [
            (1, 1, 1, 0, 0, 0, 0, 0, 0, 0),
            (2, 5, 3, 1, 2, 0, 0, 1, 0, 0),
            (3, 11, 7, 2, 3, 0, 0, 3, 2, 1),
            (4, 29, 15, 3, 10, 0, 0, 7, 8, 3),
            (5, 70, 31, 4, 25, 0, 0, 16, 30, 9),
        ],
        [
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('ms32', (6, 8, 16), ((4,), (9,)), (6, 8, 16)),
            ('rule1', (), (5,), ()),
            ('ms32', (0, 12, 24), ((6,), (7,)), (0, 12, 24)),
            ('rule1', (), (10,), ()),
            ('rule1', (), (0,), ()),
            ('rule1', (), (6,), ()),
            ('rule1', (), (7,), ()),
            ('rule1', (), (12,), ()),
            ('rule1', (), (22,), ()),
            ('rule1', (), (23,), ()),
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('ms32', (7, 9, 13), ((3,), (11,)), (7, 9, 13)),
            ('rule1', (), (27,), ()),
            ('rule1', (), (0,), ()),
            ('rule1', (), (9,), ()),
            ('rule1', (), (10,), ()),
            ('rule1', (), (11,), ()),
            ('rule1', (), (15,), ()),
            ('rule1', (), (16,), ()),
            ('rule1', (), (24,), ()),
            ('rule1', (), (25,), ()),
            ('rule1', (), (26,), ()),
        ],
    ),
    (15, 4, 2, 2, True): (
        [
            (1, 1, 1, 0, 0, 0, 0, 0, 0, 0),
            (2, 4, 3, 1, 1, 0, 0, 1, 0, 0),
            (3, 13, 7, 2, 3, 1, 0, 2, 6, 2),
            (4, 46, 9, 3, 29, 1, 0, 5, 12, 5),
        ],
        [
            ('group', (), (), ()),
            ('ms32', (0, 1, 7), ((1,), (13,)), (0, 1, 7)),
            ('rule1', (), (27,), ()),
            ('ms2', (5, 6, 25), ((2,), (4,)), (5, 6, 25)),
            ('rule1', (), (28,), ()),
            ('rule1', (), (1,), ()),
            ('rule1', (), (3,), ()),
            ('rule1', (), (6,), ()),
            ('rule1', (), (7,), ()),
            ('rule1', (), (8,), ()),
            ('rule1', (), (25,), ()),
            ('rule1', (), (1,), ()),
            ('rule1', (), (3,), ()),
            ('rule1', (), (5,), ()),
            ('rule1', (), (6,), ()),
            ('rule1', (), (7,), ()),
            ('rule1', (), (8,), ()),
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('ms32', (11, 12, 22), ((0,), (10,)), (11, 12, 22)),
            ('rule1', (), (29,), ()),
        ],
    ),
    (12, 3, 2, 1, False): (
        [
            (1, 1, 1, 0, 0, 0, 0, 0, 0, 0),
            (2, 12, 4, 1, 3, 0, 0, 1, 5, 4),
            (3, 15, 1, 2, 11, 0, 1, 1, 1, 2),
        ],
        [
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('ms32', (0, 13, 19, 20), ((1,), (10,)), (13, 19, 20)),
            ('rule1', (), (23,), ()),
            ('rule1', (), (20,), ()),
            ('rule1', (), (21,), ()),
            ('rule1', (), (22,), ()),
        ],
    ),
    (12, 3, 2, 10, False): (
        [
            (1, 1, 1, 0, 0, 0, 0, 0, 0, 0),
            (2, 5, 4, 1, 1, 0, 0, 1, 1, 0),
            (3, 25, 13, 2, 5, 2, 0, 2, 13, 4),
            (4, 118, 47, 3, 33, 7, 1, 8, 75, 22),
            (5, 100, 36, 4, 23, 1, 1, 13, 106, 29),
        ],
        [
            ('group', (), (), ()),
            ('ms32', (7, 8, 11, 12), ((2,), (4,)), (7, 8, 11, 12)),
            ('rule1', (), (11,), ()),
            ('rule1', (), (19,), ()),
            ('ms2', (5, 14, 15, 21), ((0,), (8,)), (14, 15, 21)),
            ('rule1', (), (23,), ()),
            ('rule1', (), (5,), ()),
            ('rule1', (), (6,), ()),
            ('rule1', (), (8,), ()),
            ('rule1', (), (9,), ()),
            ('rule1', (), (10,), ()),
            ('rule1', (), (19,), ()),
            ('ms31', (22, 23), ((0,), (11,)), (22, 23)),
            ('rule1', (), (17,), ()),
        ],
    ),
    (15, 4, 2, 10, False): (
        [
            (1, 1, 1, 0, 0, 0, 0, 0, 0, 0),
            (2, 3, 4, 1, 0, 0, 0, 1, 0, 0),
            (3, 16, 10, 2, 2, 2, 0, 1, 7, 1),
            (4, 73, 36, 3, 19, 5, 2, 6, 28, 5),
            (5, 292, 128, 4, 87, 16, 10, 23, 167, 34),
            (6, 280, 117, 5, 90, 2, 12, 35, 166, 32),
        ],
        [
            ('ms32', (13, 14, 19, 20), ((0,), (5,)), (13, 14, 19, 20)),
            ('rule1', (), (14,), ()),
            ('rule1', (), (20,), ()),
            ('group', (), (), ()),
            ('ms2', (3, 4, 7, 8), ((2,), (7,)), (4, 7, 8)),
            ('rule1', (), (23,), ()),
            ('rule1', (), (0,), ()),
            ('rule1', (), (3,), ()),
            ('rule1', (), (10,), ()),
            ('rule1', (), (11,), ()),
            ('rule1', (), (17,), ()),
            ('rule1', (), (18,), ()),
            ('group', (), (), ()),
            ('ms32', (9, 11, 24, 26), ((9,), (10,)), (9, 11, 24, 26)),
            ('rule1', (), (6,), ()),
            ('rule1', (), (9,), ()),
            ('rule1', (), (27,), ()),
            ('rule1', (), (7,), ()),
            ('rule1', (), (8,), ()),
            ('rule1', (), (10,), ()),
            ('rule1', (), (13,), ()),
            ('rule1', (), (16,), ()),
            ('rule1', (), (19,), ()),
            ('rule1', (), (20,), ()),
            ('rule1', (), (21,), ()),
            ('rule1', (), (22,), ()),
            ('rule1', (), (23,), ()),
            ('rule1', (), (24,), ()),
        ],
    ),
    (15, 4, 2, 12, False): (
        [
            (1, 1, 1, 0, 0, 0, 0, 0, 0, 0),
            (2, 13, 4, 1, 4, 0, 0, 1, 5, 4),
            (3, 61, 14, 2, 38, 0, 1, 4, 10, 5),
            (4, 134, 45, 3, 61, 2, 5, 11, 54, 17),
            (5, 39, 6, 4, 26, 1, 2, 2, 5, 3),
        ],
        [
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('ms32', (0, 1, 2, 4), ((5,), (6,)), (1, 2, 4)),
            ('rule1', (), (24,), ()),
            ('rule1', (), (1,), ()),
            ('rule1', (), (23,), ()),
            ('rule1', (), (24,), ()),
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('group', (), (), ()),
            ('ms32', (16, 20, 29, 30), ((0,), (14,)), (16, 20, 29, 30)),
            ('rule1', (), (21,), ()),
            ('rule1', (), (27,), ()),
            ('rule1', (), (0,), ()),
            ('rule1', (), (2,), ()),
            ('rule1', (), (4,), ()),
            ('rule1', (), (19,), ()),
            ('rule1', (), (20,), ()),
            ('rule1', (), (21,), ()),
            ('group', (), (), ()),
            ('ms31', (36, 38), ((0,), (10,)), (36, 38)),
            ('rule1', (), (27,), ()),
            ('ms2', (37, 39, 40, 41), ((1,), (11,)), (39, 40, 41)),
            ('rule1', (), (29,), ()),
        ],
    ),
}


def smaller_side(forest, eid):
    """Sorted label ids of the side of ``eid`` with fewer labels (on a tie,
    the one with the lesser sorted ids)."""
    sides = (tuple(sorted(labels_of(forest, side))) for side in vertex_sides_by_walk(forest, eid))
    return min(sides, key=lambda side: (len(side), side))


def approximation_records(inst, monkeypatch):
    """``(kind, removed_f1, removed_partner, essential)`` for every record of
    the approximation of ``inst``.

    A cut step's partner edges are the pendant edges of its two labels, and
    their ids depend on how earlier reductions derived the partner, so each
    is named by its smaller side's labels instead.  The partner is the
    forest the step derives right after the working forest: every
    derivation is logged, in call order, and the step's working forests,
    as its audit gets them, find it.
    """
    derived = []
    remove = mk.Forest.remove_edges

    def logged(forest, eids):
        entry = [forest, tuple(sorted(eids)), None]
        derived.append(entry)
        entry[2] = remove(forest, eids)
        return entry[2]

    monkeypatch.setattr(mk.Forest, "remove_edges", logged)
    steps = audited_steps(inst)
    monkeypatch.undo()
    records = []
    for rec, before, after in steps:
        partner = rec.removed_partner
        if rec.kind not in ("rule1", "group"):
            at = next(i for i, (f, _, out) in enumerate(derived)
                      if f is before and out is after)
            forest, eids, _ = derived[at + 1]
            assert eids == partner
            partner = tuple(sorted(smaller_side(forest, e) for e in eids))
        records.append((rec.kind, rec.removed_f1, partner, rec.essential))
    return records


@pytest.mark.parametrize("key", sorted(PINNED))
def test_search_stats_and_approx_trace_are_pinned(key, monkeypatch):
    n, m, x, seed, rooted = key
    inst = mk.generate_instance(mk.GenSpec(n=n, m=m, x=x, seed=seed, rooted=rooted))
    attempts, records = PINNED[key]
    res = mk.find_min_k(inst)
    assert [tuple(getattr(st, f) for f in STATS_FIELDS) for st in res.attempts] == attempts
    assert approximation_records(inst, monkeypatch) == records


# GenSpec arguments -> (bootstrap bound, incumbent order, answer order, every
# attempt's counters, in STATS_FIELDS order).  Searches of thousands of nodes,
# where a changed edge id or cut order would show.
LARGE_SEARCHES = {
    (60, 2, 8, 41, True): (8, 9, 9, [(8, 2202, 944, 7, 867, 42, 1, 429, 409, 0)]),
    (40, 3, 4, 41, False): (7, 8, 8, [(7, 5254, 2132, 6, 2395, 17, 103, 659, 1384, 113)]),
    (40, 4, 3, 41, True): (8, 10, 10, [
        (8, 2541, 570, 7, 1764, 9, 7, 272, 866, 134),
        (9, 5570, 1240, 8, 3826, 10, 47, 586, 2248, 315),
    ]),
}


@pytest.mark.parametrize("key", sorted(LARGE_SEARCHES))
def test_large_search_shape_is_pinned(key):
    n, m, x, seed, rooted = key
    inst = mk.generate_instance(mk.GenSpec(n, m, x, seed, rooted=rooted))
    bound, incumbent, order, attempts = LARGE_SEARCHES[key]
    boot = mk.bootstrap(inst)
    assert (boot.lower_bound, boot.incumbent.order()) == (bound, incumbent)
    res = mk.find_min_k(inst, boot.lower_bound, incumbent=boot.incumbent)
    assert res.order == order
    assert [tuple(getattr(st, f) for f in STATS_FIELDS) for st in res.attempts] == attempts
