"""The instance-shrinking reduction rule.

An edge of one forest can be deleted outright when one side of its split is
exactly a union of whole components of another forest: no agreement forest
can keep such an edge, so removals preserve the full set of maximum agreement
forests.  Both solvers apply the rule to one pair (F1, F2) at a time, and
:func:`reduce_pair` is the one loop that drives a pair to the fixpoint
("strongly reducible"), in both directions, before any case analysis or
branching: the exact search reduces its first two forests, the
approximation its working forest against the current partner.

A scan finds such edges in time linear in the forest, not with one search
per edge.  Every label gets a random 64-bit weight, drawn so that the weights
within each component of the witness forest sum to 0 mod 2^64.  A side that
is a union of whole components then sums to exactly 0, so one post-order
pass that flags every edge with a zero-sum side (:func:`_side_sums`) never
misses a removable edge.  A side can also sum to 0 by chance; the exact
containment check run on each flagged edge rejects it.  So the answer is the
one a scan of every edge would give, whatever the weights.

This module owns the weights and the sums, and inherits them instead of
rebuilding them, because a search node's children differ from it by a few
edits (``Forest.remove_edges`` and ``Forest.group_labels`` record each
value's parent and a log of what changed).  A witness keeps its weights on
the value itself, and a scanned forest the side sums of its latest scan.
The carried invariant is the one above: the weights of every component of the
witness forest sum to 0 mod 2^64.

* Grouping keeps it: a grouped label weighs the sum of its parts, so every
  per-component sum, and every side sum of the scanned forest, stays as it
  was.
* A removal breaks it only where it splits a component, and each new piece
  is brought back to a zero sum by changing the weight of one of its labels.
* The scanned forest keeps, per vertex, the vertex above it and the weight
  of its subtree in a hanging of each component from one top (a fresh scan
  takes ``Forest._hanging``: the root, or the leaf with the least label
  id).  A derivation of it is replayed on those sums (a cut edge subtracts
  its subtree along the path to the top and makes a new top; contraction and
  grouping only hand a vertex's place to a neighbor), and a label whose
  weight changed adds the change along its leaf-to-top path.  A
  scan then costs the changes times the depth, plus one pass over the sums
  to collect the edges one of whose sides sums to 0.
* A value with no kept ancestor gets fresh weights from ``_label_weights``
  and one full walk: an input tree, the expanded forest a search moves on to
  the next input with, or the end of a long chain of values never scanned.

Inherited weights are still zero-sum per component, so every qualifying side
is still flagged, and the exact check still rejects the rest: the answer is
the same first flagged edge, in id order, that passes the check, and so is
every trace built on it.  Only the weights differ from fresh ones, and they
are no less random.  Each carried weight is an integer combination of the
random draws, and the only label sets whose sum vanishes for every draw are
unions of whole components (a split adds exactly the two pieces' sums to
those, a grouping merges labels of one component), so any other side sums to
0 only by the same 2^-64 chance as under fresh weights.

Three lemmas on a reduced pair (F1, F2) over one label set, one that admits
no removal in either direction, carry both solvers.

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

A reduced pair agrees iff it is equal: F1 is an agreement forest of the pair
(F1 ≤ F2) iff F1 ≅ F2.  The "if" direction is plain.  For "only if", let F1
be F2 − E, contracted, with E non-empty, and take an edge e of E with a side
that holds no other edge of E (from any edge of E, step to another on one
side while there is one; the walk ends).  That side holds a leaf, so a
label, and it is connected in F2 − E and cut off from the rest by e, so its
labels are exactly those of one component of F1, and the rule would remove
e from F2: the pair was not reduced.

A reduced pair whose second forest has no maximal sibling set is equal.
Such an F2 has at most one edge (``Forest.find_mss``): it is all singletons
plus at most one single-edge tree {a, b}, and rooted, one of a and b is ρ.
A side that holds both or neither of a and b (any side, if F2 has no edge)
is a union of whole F2 components, so every edge of F1 separates a from b,
or the rule would remove it.  So F1 has no edge if F2 has none.  Otherwise
each edge of F1 lies on the path from a to b, which is then its whole
component, with inner vertices unlabeled of degree 2.  F1 is irreducible,
so there are none: an unrooted forest has no such vertex, and a rooted one
only a component root, whose two neighbors are its children, while ρ, an
end of the path, has no parent.  So F1 has at most the one edge a–b.  If it
has it, F1 ≅ F2; if not, the side {a} of F2's edge a–b is a whole F1
component, and the pair was not reduced.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass

from .forest import Forest, LabelUniverseError


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

# label weights and side sums are kept mod 2^64
_MASK64 = (1 << 64) - 1


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


# -- what a value inherits from its ancestors ---------------------------------


def _nearest(f: Forest, slot: str):
    """The nearest of ``f`` and its linked ancestors whose ``slot`` is set,
    or the furthest one reached, and the origins from there down to ``f``."""
    chain = []
    while getattr(f, slot) is None and (origin := f._origin) is not None:
        chain.append(origin)
        f = origin[0]
    chain.reverse()
    return f, chain


def _release_origin(f: Forest):
    """Forget ``f``'s origin once it has both weights and side sums: its
    descendants stop there, and the chain of ancestors can go."""
    if f._weights is not None and f._sums is not None:
        f._origin = None


# -- label weights, inherited along derivations -------------------------------


class _Weights(dict):
    """Label weights that remember which labels differ from those they came from.

    ``base`` is a weak reference to the weights this map was derived from
    (None for fresh weights), and ``changed`` maps each label whose weight
    differs from them, or that a grouping made since, to the labels of
    ``base`` behind it.  The reference is weak, so a map does not keep its
    ancestors alive.
    """

    __slots__ = ("base", "changed", "__weakref__")

    def __init__(self, weight, base=None):
        super().__init__(weight)
        self.base = None if base is None else weakref.ref(base)
        self.changed = {}


def _weights_of(fp: Forest) -> dict[int, int]:
    """Weights of ``fp``'s labels that sum to 0 mod 2^64 over each component.

    Kept on ``fp``.  A derived value inherits them from the nearest ancestor
    that has weights (:func:`_carry_zero_sums`); a value with no such
    ancestor gets fresh ones from ``_label_weights``.
    """
    if fp._weights is None:
        f, chain = _nearest(fp, "_weights")
        if f._weights is None:
            f._weights = _Weights(_label_weights(f.label_partition()))
        if chain:
            weight = _Weights(f._weights, base=f._weights)
            for origin in chain:
                _carry_zero_sums(origin, weight, weight.changed)
            fp._weights = weight
        _release_origin(fp)
    return fp._weights


def _carry_zero_sums(origin, weight, changed):
    """Make zero-sum label weights of a parent zero-sum over its child.

    ``origin`` is the child's ``(parent, log, _)``, and ``weight`` maps the
    parent's labels to weights that sum to 0 mod 2^64 over each of the
    parent's components; it is changed in place, and each label whose weight
    changes, or that a grouping makes, is entered in ``changed`` with the
    labels behind it there (see ``_Weights``; grouped parts leave it).  A
    grouped label weighs the sum of its parts, which keeps every sum over
    whole components.  Each edge a removal cuts splits one zero-sum
    component in two: the side found complete first sums to some s, one of
    its labels gives up s and one label of the other side takes it.
    """
    parent, log, _ = origin
    removed = set()
    for step in log:
        if step[0] == "cut":
            removed.add(step[1])
            for lid in _rezero(parent, weight, removed, step[2], step[3]):
                changed.setdefault(lid, (lid,))
        elif step[0] == "group":
            _, lids, new_id = step
            weight[new_id] = sum(weight.pop(lid) for lid in lids) & _MASK64
            changed[new_id] = tuple(b for lid in lids for b in changed.pop(lid, (lid,)))


def _rezero(forest, weight, removed, a, b):
    """Zero both sides of a cut edge ``(a, b)`` of ``forest`` minus ``removed``.

    The two sides are walked in turn, one vertex at a time, so the walk ends
    after about twice the smaller side: that side is then complete, and the
    other side is walked on only until it shows a label.  Returns the labels
    whose weight changed.
    """
    adj, vlabel = forest._adj, forest._vlabel
    stacks = ([a], [b])
    found = ([], [])
    seen = {a, b}
    side = 0
    while stacks[side]:
        v = stacks[side].pop()
        if v in vlabel:
            found[side].append(vlabel[v])
        for e, w in adj[v].items():
            if w not in seen and e not in removed:
                seen.add(w)
                stacks[side].append(w)
        side ^= 1
    small = found[side]
    s = sum(weight[lid] for lid in small) & _MASK64
    if not s:
        return ()
    other, stack = found[1 - side], stacks[1 - side]
    while not other and stack:
        v = stack.pop()
        if v in vlabel:
            other.append(vlabel[v])
        for e, w in adj[v].items():
            if w not in seen and e not in removed:
                seen.add(w)
                stack.append(w)
    # the two sides of a zero-sum component sum to s and -s, so a side with
    # no label forces s = 0
    weight[small[0]] = (weight[small[0]] - s) & _MASK64
    weight[other[0]] = (weight[other[0]] + s) & _MASK64
    return small[0], other[0]


# -- side sums of a scanned forest, inherited along derivations ---------------


class _SideSums:
    """Side sums of one forest's edges under one weight map.

    ``up`` and ``below`` are as from :func:`_side_sums`: ``up`` maps every
    vertex but the tops to the vertex above it, ``below`` every vertex to
    the weight of its subtree.
    """

    __slots__ = ("weight", "up", "below")

    def __init__(self, weight, up, below):
        self.weight = weight
        self.up = up
        self.below = below

    def copy(self):
        return _SideSums(self.weight, dict(self.up), dict(self.below))


def _side_sums(f: Forest, weight):
    """Sum the weights below every vertex of ``f`` as :meth:`Forest._hanging`
    hangs it.

    ``weight`` maps every label id of ``f`` to an integer.  Returns ``(up,
    below)``: ``up`` maps every vertex but the tops to the vertex above it,
    and ``below`` maps every vertex to the total weight of the labels in its
    subtree, mod 2^64.  So the two sides of the edge from ``v`` to ``up[v]``
    weigh ``below[v]`` and the top's ``below`` minus that.
    """
    vlabel = f._vlabel
    order, up = f._hanging()
    below = {v: weight[vlabel[v]] if v in vlabel else 0 for v in order}
    for v in reversed(order):
        if v in up:
            below[up[v]] += below[v]
    return up, {v: s & _MASK64 for v, s in below.items()}


def _sums_of(fq: Forest, weight) -> _SideSums:
    """Side sums of ``fq`` under ``weight``, inherited where possible.

    Starting from the nearest value with side sums, ``fq`` or an ancestor, a
    copy is carried across each derivation (:func:`_carry_side_sums`) and
    brought to ``weight`` (:func:`_reweigh`), if ``weight`` is the weights
    it holds or was derived directly from them.  Otherwise one full walk.
    The result is kept on ``fq``.  Kept sums are never changed, only
    replaced, so they stay valid for whoever holds them.
    """
    f, chain = _nearest(fq, "_sums")
    sums = f._sums
    if sums is not None and not chain and sums.weight is weight:
        return sums
    if sums is not None and (sums.weight is weight or (
            weight.base is not None and weight.base() is sums.weight)):
        sums = sums.copy()
        for _, log, _ in chain:
            _carry_side_sums(log, sums.up, sums.below)
        _reweigh(sums, fq, weight)
    else:
        sums = _SideSums(weight, *_side_sums(fq, weight))
    fq._sums = sums
    _release_origin(fq)
    return sums


def _carry_side_sums(log, up, below):
    """Turn a parent's :func:`_side_sums` into its child's, in place.

    ``log`` is the child's change log (see ``Forest.remove_edges``).  The
    sums stay under the parent's weights, a grouped label read as the sum of
    its parts.  A cut edge subtracts the subtree below it along the path to
    its old top, and the subtree's upper end becomes a top.  Contraction and
    grouping move no label to the other side of any edge: a dropped or
    spliced vertex hands its place in the hanging to a neighbor, and a
    grouped leaf's weight stays in the sums of the vertex that takes its
    label.  So the tops need not be the ones :meth:`Forest._hanging` picks
    (a cut leaves one wherever it falls); the side sums of every edge are
    the same.
    """
    for step in log:
        kind = step[0]
        if kind == "cut":
            _, _, x, y = step
            child, other = (y, x) if up.get(y) == x else (x, y)
            del up[child]
            if below[child]:
                _add_on_path(up, below, other, -below[child])
        elif kind == "gone" or kind == "merge":
            _, v, _, w = step
            if up.get(v) == w:
                del up[v]  # a leaf of the hanging
            else:
                del up[w]  # v was a top with the one child w
                below[w] = below[v]
            del below[v]
        elif kind == "splice":
            _, v, _, w1, _, w2, _ = step
            p = up.pop(v, None)
            if p == w1:
                up[w2] = w1
            elif p == w2:
                up[w1] = w2
            else:  # v was a top: w1 takes its place
                del up[w1]
                up[w2] = w1
                below[w1] = below[v]
            del below[v]
        elif kind == "drop":
            del below[step[1]]


def _add_on_path(up, below, v, delta):
    """Add ``delta`` to the sums of ``v`` and every vertex above it.

    ``up`` and ``below`` are a hanging with its sums (see :func:`_side_sums`).
    """
    while v is not None:
        below[v] = (below[v] + delta) & _MASK64
        v = up.get(v)


def _reweigh(sums, fq, weight):
    """Bring ``sums`` from the weights it holds to ``weight``, in place.

    ``weight`` is those weights or was derived directly from them: each
    label whose weight changed moves the sums on its path to the top by its
    new weight less the old weights of the old labels behind it.
    """
    old = sums.weight
    if old is weight:
        return
    sums.weight = weight
    for lid, behind in weight.changed.items():
        delta = (weight[lid] - sum(map(old.__getitem__, behind))) & _MASK64
        if delta:
            _add_on_path(sums.up, sums.below, fq._label_vertex[lid], delta)


def _candidates(fq: Forest, weight) -> list[int]:
    """Sorted ids of the edges of ``fq`` one of whose sides sums to 0 under
    ``weight``, from the inherited side sums.

    The edge from ``v`` up to ``up[v]`` is flagged when the side below it
    sums to 0 or to its component's total.  Totals are few, so the test
    against the own total (a climb to the top) runs only for a sum equal to
    some total.  Only the flagged vertices have their edge id looked up.
    """
    sums = _sums_of(fq, weight)
    up, below = sums.up, sums.below
    totals = {below[v] for v in below.keys() - up.keys()}
    totals.discard(0)

    def top_total(v):
        while (p := up.get(v)) is not None:
            v = p
        return below[v]

    flagged = [
        v for v in up
        if not (s := below[v]) or (s in totals and s == top_total(v))
    ]
    return sorted(fq._edges_up(flagged, up))


def find_applicable(fp: Forest, fq: Forest):
    """First edge of ``fq`` (by id) removable with ``fp`` as witness, or None.

    Returns ``(edge_id, witness_component_label_sets)``.  A side qualifies
    when every one of its labels lies in an ``fp`` component whose label set
    is fully contained in that side.

    Only the edges flagged under the zero-sum weights of ``fp``'s components
    (:func:`_candidates`, from inherited side sums) are split and
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


def reduce_pair(f1: Forest, f2: Forest):
    """Apply the rule in both directions to fixpoint.

    Each round scans direction (p=0, q=1), then (p=1, q=0), edges in id
    order; the first hit is applied and the round starts again.  The order
    is fixed because confluence is not assumed.  A removal that makes the
    pair equal ends the loop at once: in equal forests every side of an edge
    is a proper part of one component, so the next round could not hit.

    Both forests must carry the same label ids (grouping applied to both
    alike); ``LabelUniverseError`` is raised otherwise.  Returns the reduced
    pair and the removals in the order they were applied.
    """
    if f1.label_ids() != f2.label_ids():
        raise LabelUniverseError("forests to reduce carry different label ids")
    pair = [f1, f2]
    removals = []
    while True:
        for p, q in ((0, 1), (1, 0)):
            found = find_applicable(pair[p], pair[q])
            if found is not None:
                break
        else:
            break
        eid, wit = found
        pair[q] = pair[q].remove_edges([eid])
        removals.append(Removal(q_index=q, edge=eid, p_index=p, witness=wit))
        if pair[1].same_structure(pair[0]):
            break
    return pair[0], pair[1], tuple(removals)
