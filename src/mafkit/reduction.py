"""The instance-shrinking reduction rule.

An edge of one forest can be deleted outright when one side of its split is
exactly a union of whole components of another forest: no agreement forest
can keep such an edge, so removals preserve the full set of maximum agreement
forests.  Solvers drive forest pairs to the fixpoint ("strongly reducible")
before doing any case analysis or branching.

A scan finds such edges in time linear in the forest, not with one search
per edge.  Every label gets a random 64-bit weight, drawn so that the weights
within each component of the witness forest sum to 0 mod 2^64.  A side that
is a union of whole components then sums to exactly 0, so one post-order
pass that flags every edge with a zero-sum side (``Forest.zero_sum_edges``)
never misses a removable edge.  A side can also sum to 0 by chance; the exact
containment check run on each flagged edge rejects it.  So the answer is the
one a scan of every edge would give, whatever the weights.

The weights and the sums are inherited, not rebuilt, because a search node's
children differ from it by a few edits (``Forest.remove_edges`` and
``Forest.group_labels`` record each value's parent and what changed).  The
carried invariant is the one above: the weights of every component of the
witness forest sum to 0 mod 2^64.

* Grouping keeps it: a grouped label weighs the sum of its parts, so every
  per-component sum, and every side sum of the scanned forest, stays as it
  was.
* A removal breaks it only where it splits a component, and each new piece
  is brought back to a zero sum by changing the weight of one of its labels.
* The scanned forest keeps, per vertex, the weight of its subtree in a
  hanging of each component from one top.  A derivation of it is replayed on
  those sums (a cut edge subtracts its subtree along the path to the top;
  contraction and grouping only hand a vertex's place to a neighbor), and a
  label whose weight changed adds the change along its leaf-to-top path.  A
  scan then costs the changes times the depth, plus one pass over the sums
  to collect the edges one of whose sides sums to 0.
* A value with no kept ancestor gets fresh weights from ``_label_weights``
  and one full walk: an input tree, the expanded forest a search moves on to
  the next input with, the end of a long chain of values never scanned, or
  a value whose ancestors' sums were evicted.

Inherited weights are still zero-sum per component, so every qualifying side
is still flagged, and the exact check still rejects the rest: the answer is
the same first flagged edge, in id order, that passes the check, and so is
every trace built on it.  Only the weights differ from fresh ones, and they
are no less random.  Each carried weight is an integer combination of the
random draws, and the only label sets whose sum vanishes for every draw are
unions of whole components (a split adds exactly the two pieces' sums to
those, a grouping merges labels of one component), so any other side sums to
0 only by the same 2^-64 chance as under fresh weights.

Grouping keeps a pair reduced.  Let (F, G) admit no removal in either
direction, and let S be a sibling set maximal in both; F' and G' group S
into one leaf s.  The edges of F' are those of F minus the pendant edges of
S, and each side of such an edge, with s read as S, is the corresponding
side in F, because S and its hub lie on one side of it.  The components of
F' map one to one onto those of F in the same way.  So a side of a G' edge
that is a union of whole F' components would expand to a side of a G edge
that is a union of whole F components, and the same holds the other way
round: (F', G') admits no removal either.  If moreover F ≇ G, then F' ≇ G',
because undoing the grouping of s (as ``expand_labels`` does) turns
isomorphic F', G' back into isomorphic F, G.  Both solvers rely on this: a
Case-1 grouping goes straight back to the case analysis, with no
``reduce_pair`` and no equality test in between.
"""

from __future__ import annotations

import itertools
import random
import weakref
from dataclasses import dataclass

from .forest import (
    MASK64,
    Forest,
    Instance,
    LabelUniverseError,
    add_on_path,
    carry_side_sums,
    carry_zero_sums,
)


@dataclass(frozen=True)
class Removal:
    """One recorded application: edge ``edge`` left forest ``q_index``.

    ``witness`` holds the label sets of the ``p_index`` components that
    covered the detached side at the moment of removal.
    """

    q_index: int
    edge: int
    p_index: int
    witness: tuple[frozenset[int], ...]


# the answer does not depend on the weights, only the number of false
# candidates does; a fixed seed keeps that number repeatable
_WEIGHT_SEED = 0x5EED


def _label_weights(comp_labels) -> dict[int, int]:
    """Random 64-bit label weights that sum to 0 mod 2^64 per component."""
    rng = random.Random(_WEIGHT_SEED)
    weight = {}
    for labels in comp_labels:
        *head, last = sorted(labels)
        total = 0
        for lid in head:
            weight[lid] = rng.getrandbits(64)
            total += weight[lid]
        weight[last] = -total % (1 << 64)
    return weight


# -- label weights, inherited along derivations -------------------------------


class _Weights(dict):
    """Label weights that remember which labels differ from those they came from.

    ``base`` is a weak reference to the weights this map was derived from
    (None for fresh weights) and ``changed`` the labels whose weight differs
    from them or is new.  The reference is weak, so a map does not keep its
    ancestors alive.
    """

    __slots__ = ("base", "changed", "__weakref__")

    def __init__(self, weight, base=None):
        super().__init__(weight)
        self.base = None if base is None else weakref.ref(base)
        self.changed = set()


def _weights_of(fp: Forest) -> dict[int, int]:
    """Weights of ``fp``'s labels that sum to 0 mod 2^64 over each component.

    Kept on ``fp``.  A derived value inherits them from the nearest ancestor
    that has weights (``forest.carry_zero_sums``); a value with no such
    ancestor gets fresh ones from ``_label_weights``.
    """
    if fp._weights is None:
        chain = []
        f = fp
        while f._weights is None and (origin := f._origin) is not None:
            chain.append(origin)
            f = origin[0]
        if f._weights is None:
            f._weights = _Weights(_label_weights(f.label_partition()))
        if chain:
            weight = _Weights(f._weights, base=f._weights)
            for origin in reversed(chain):
                carry_zero_sums(origin, weight, weight.changed)
            fp._weights = weight
        _settle(fp)
    return fp._weights


# -- side sums of a scanned forest, inherited along derivations ---------------


class _SideSums:
    """Side sums of one forest's edges under one weight map.

    ``up`` and ``below`` are as from ``Forest.side_sums``: ``up`` maps every
    vertex but the tops to the edge to its parent, ``below`` every vertex to
    the weight of its subtree.
    """

    __slots__ = ("weight", "up", "below")

    def __init__(self, weight, up, below):
        self.weight = weight
        self.up = up
        self.below = below

    def copy(self):
        return _SideSums(self.weight, dict(self.up), dict(self.below))


# Side sums of recently scanned forests, least recently used first.  They are
# kept here, not on the forest values, so that values kept for other reasons
# (the approximation's records keep every working forest) do not keep their
# sums; an evicted value's descendants fall back to the full walk.
_SUMS: "weakref.WeakKeyDictionary[Forest, _SideSums]" = weakref.WeakKeyDictionary()
_SUMS_KEPT = 64


def _recall(f):
    """``f``'s side sums, marked as the most recently used, or None."""
    sums = _SUMS.pop(f, None)
    if sums is not None:
        _SUMS[f] = sums
    return sums


def _sums_of(fq: Forest, weight) -> _SideSums:
    """Side sums of ``fq`` under ``weight``, inherited where possible.

    Starting from the nearest ancestor whose sums are kept, a copy is
    carried across each derivation (``forest.carry_side_sums``) and brought
    to ``weight`` (:func:`_reweigh`).  With no such ancestor, one full walk.
    Kept sums are never changed, only replaced, so a value's sums stay valid
    for whoever holds them.
    """
    sums = _recall(fq)
    if sums is not None:
        if sums.weight is weight:
            return sums
        sums = sums.copy()
    else:
        chain = []
        f = fq
        while sums is None and (origin := f._origin) is not None:
            chain.append(origin)
            f = origin[0]
            sums = _recall(f)
        if sums is None:
            sums = _SideSums(weight, *fq.side_sums(weight))
        else:
            sums = sums.copy()
            for origin in reversed(chain):
                carry_side_sums(origin, sums.up, sums.below)
    _reweigh(sums, fq, weight)
    _SUMS[fq] = sums
    while len(_SUMS) > _SUMS_KEPT:
        del _SUMS[next(iter(_SUMS))]
    _settle(fq)
    return sums


def _reweigh(sums, fq, weight):
    """Bring ``sums`` from the weights it holds to ``weight``, in place.

    Each label whose weight changed moves the sums on its path to the top.
    When ``weight`` was not derived directly from the held weights, every
    label is compared, and if many differ one full walk is cheaper.
    """
    old = sums.weight
    if old is weight:
        return
    if weight.base is not None and weight.base() is old:
        changed = weight.changed
    else:
        changed = [lid for lid, w in weight.items() if old.get(lid) != w]
        if 4 * len(changed) > len(weight):
            sums.up, sums.below = fq.side_sums(weight)
            sums.weight = weight
            return
    edges, labels = fq._edges, fq.labels
    for lid in changed:
        was = old.get(lid)
        if was is None:
            # a label grouped since: its parts' weights stand in the sums
            was = 0
            parts = list(labels[lid].grouped)
            while parts:
                part = parts.pop()
                if part in old:
                    was += old[part]
                else:
                    parts.extend(labels[part].grouped)
        delta = (weight[lid] - was) & MASK64
        if delta:
            add_on_path(sums.up, sums.below, edges, fq._label_vertex[lid], delta)
    sums.weight = weight


def _settle(f):
    """Forget ``f``'s origin once it has both weights and kept side sums:
    its descendants stop there, and the chain of ancestors can go."""
    if f._weights is not None and f in _SUMS:
        f._origin = None


def _candidates(fq: Forest, weight) -> list[int]:
    """``fq.zero_sum_edges(weight)``, from the inherited side sums.

    An edge is flagged when the side below it sums to 0 or to its
    component's total.  Totals are few, so the test against the own total
    (a climb to the top) runs only for a sum equal to some total.
    """
    sums = _sums_of(fq, weight)
    up, below, edges = sums.up, sums.below, fq._edges
    totals = {below[v] for v in below.keys() - up.keys()}
    totals.discard(0)

    def top_total(v):
        while (e := up.get(v)) is not None:
            x, y = edges[e]
            v = x if y == v else y
        return below[v]

    flagged = [
        e for v, e in up.items()
        if not (s := below[v]) or (s in totals and s == top_total(v))
    ]
    flagged.sort()
    return flagged


def find_applicable(fp: Forest, fq: Forest):
    """First edge of ``fq`` (by id) removable with ``fp`` as witness, or None.

    Returns ``(edge_id, witness_component_label_sets)``.  A side qualifies
    when every one of its labels lies in an ``fp`` component whose label set
    is fully contained in that side.

    Only the edges flagged under the zero-sum weights of ``fp``'s components
    (``fq.zero_sum_edges``, here from inherited side sums) are split and
    checked, in id order, side1 before side2.  Every qualifying side sums to
    exactly 0, so no qualifying edge goes unflagged; a side that sums to 0 by
    chance fails the exact ``covered`` check, so it cannot change the answer.
    """
    flagged = _candidates(fq, _weights_of(fp))
    if not flagged:
        return None
    comp_labels = fp.label_partition()

    def covered(side):
        comps = set()
        for lid in side:
            c = fp.component_index_of_label(lid)
            if not comp_labels[c] <= side:
                return None
            comps.add(c)
        return tuple(comp_labels[c] for c in sorted(comps))

    for eid in flagged:
        split = fq.split_labels(eid)
        for side in (split.side1, split.side2):
            wit = covered(side)
            if wit is not None:
                return eid, wit
    return None


def _all_equal(forests) -> bool:
    """True when every forest has the structure of the first.

    Edge and component counts are compared first, so canonical keys are
    built only for forests that may well be equal.
    """
    first = forests[0]
    return all(
        len(f.edge_ids()) == len(first.edge_ids())
        and f.order() == first.order()
        and f.same_structure(first)
        for f in forests[1:]
    )


def _fixpoint(forests):
    """Apply the rule over all ordered pairs (p, q) until none applies.

    Pairs are scanned in ``itertools.permutations`` order, edges in id order;
    the first hit is applied and the scan restarts.  The order is fixed
    because confluence is not assumed.  A removal that makes all forests
    equal ends the loop at once: in equal forests every side of an edge is a
    proper part of one component, so the next round could not hit.

    Every forest must carry the same label ids (grouping applied to all of
    them alike); ``LabelUniverseError`` is raised otherwise.
    """
    forests = list(forests)
    labels = forests[0].label_ids()
    if any(f.label_ids() != labels for f in forests[1:]):
        raise LabelUniverseError("forests to reduce carry different label ids")
    removals = []
    while True:
        for p, q in itertools.permutations(range(len(forests)), 2):
            found = find_applicable(forests[p], forests[q])
            if found is not None:
                break
        else:
            break
        eid, wit = found
        forests[q] = forests[q].remove_edges([eid])
        removals.append(Removal(q_index=q, edge=eid, p_index=p, witness=wit))
        if _all_equal(forests):
            break
    return forests, tuple(removals)


def reduce_pair(f1: Forest, f2: Forest):
    """Apply the rule in both directions to fixpoint.

    Scans direction (p=0, q=1) then (p=1, q=0).  Returns the reduced pair and
    the removals in the order they were applied.
    """
    (f1, f2), removals = _fixpoint((f1, f2))
    return f1, f2, removals


def reduce_instance(instance: Instance):
    """Fixpoint over all ordered forest pairs of the instance.

    The set of maximum agreement forests is preserved; tests assert this by
    comparing brute-force optima before and after.
    """
    forests, removals = _fixpoint(instance.forests)
    reduced = Instance(
        rooted=instance.rooted, forests=tuple(forests), name=instance.name
    )
    return reduced, removals
