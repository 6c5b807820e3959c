"""The instance-shrinking reduction rule.

An edge of one forest can be deleted outright when one side of its split is
exactly a union of whole components of another forest: no agreement forest
can keep such an edge, so removals preserve the full set of maximum agreement
forests.  Both solvers apply the rule to one pair (F1, F2) at a time, F1 the
working forest and F2 its partner, and :func:`reduce_pair` drives a pair to
the fixpoint ("strongly reducible") before any case analysis or branching:
the exact search reduces its first two forests, the approximation its
working forest against the current partner.  It makes one scan and one
derivation, because of two lemmas.

Call F2 *closed* over F1 when every component of F2 is a union of
components of F1.

Lemma A.  In both solvers F2 is closed over F1 at every call, so no edge of
F1 is ever removable with F2 as witness.  Closure holds by induction over
what the solvers do to a pair.

* Input trees start whole: (T1, T2), and later (F, Ti) for the expanded
  working forest F and a whole tree Ti.  A whole tree is closed over any
  forest on its labels.  The first input may be a forest, but every later
  one must be one tree; both solvers refuse other instances
  (:func:`require_whole_partners`).
* A search branch or a cut step that cuts a label's pendant edge cuts it in
  both forests: the label becomes a component of each, and what is left of
  its two components is still the one inside the other.  Every other edge
  a branch or step cuts is one of F1's, which only makes F1 finer.
* A grouping turns one sibling set S into one leaf in both forests, and S
  lies in one component of each.
* A rule removal splits a component C of F2 along an edge one of whose
  sides is a union of F1 components; C is one, so the other side is too.

Now take an edge of F1.  Its component D lies inside a component C of F2,
and each of its sides is a part of D that holds a leaf, so a label (F1 is
irreducible), and is not the whole of D.  Such a side meets C without
holding it, so it is not a union of whole F2 components.  So the rule only
ever removes edges of F2, and :func:`reduce_pair` scans only that way.

Lemma B.  Let F2 be closed over a fixed witness F1.  Within a component C of
F2, one side of an edge is a union of whole F1 components iff the other side
is, because C is; so an edge is removable iff no F1 component has labels on
both of its sides.  Let R be the set of removable edges.  Each F1 component
inside C lies in one piece of C − R: the path in C between two of its labels
crosses no edge of R, or the component would have labels on both sides of
that edge.  So every piece is a union of F1 components, and an edge outside
R, which some F1 component straddles in C, is straddled by it within its
piece as well.  Contraction of C − R keeps every edge outside R: a side of
such an edge with no label in its piece would hold, in C, only labels beyond
edges of R, whose far sides are unions of F1 components, and the edge would
have been in R.  Where contraction joins two such edges through a vertex of
degree 2, the new edge splits the labels of the piece as each of them did.
So F2 − R, contracted, admits no removal, and one scan of F2 finds every
edge the rule will ever remove from it.  The same facts, for one removal at
a time, show that a removal neither creates nor destroys a removable edge,
and that an edge made by joining two edges is removable iff either of them
was: the one-at-a-time loop removes edges of R, or edges made of them, and
reaches the same forest.  Each of its removals adds one component (both
sides of an edge of an irreducible forest hold a label), so it makes as
many removals as F2 − R has components more than F2: the number of
essential edges of R (:meth:`Forest.essential_edges`), and
:func:`reduce_pair` returns the id of each.

A scan finds R in time linear in the forest, not with one search per edge.
Every label gets a random 64-bit weight, drawn so that the weights within
each component of the witness forest sum to 0 mod 2^64.  A side that is a
union of whole components then sums to exactly 0.  A closed component of F2
sums to 0 too, so the side below each edge, in a hanging of each component
from one top (:func:`_side_sums`), sums to 0 whenever either side is a
union; one pass that flags every edge whose side below sums to 0 never
misses an edge of R.  A side can also sum to 0 by chance; the exact check
rejects it, so the answer is the one a scan of every edge would give,
whatever the weights.  The exact check walks the edge's two sides in turn
(:func:`_smaller_side`) until the smaller one is complete, and asks whether
that side is a union of whole F1 components: by closure, the larger side is
one iff the smaller is.  A component of F2 that is not closed sums to some
other value, except by a 2^-64 chance; the scan reads every component's
total and raises ``ForestError`` for a pair outside the contract, where a
test of one side would miss edges.

This module owns the weights and the sums, and inherits them instead of
rebuilding them, because a search node's children differ from it by a few
edits (``Forest.remove_edges`` and the groupings of :func:`next_case`
record each value's parent and a log of what changed; a run of groupings
is one derivation, whose log holds every grouping in order).  A witness
keeps its weights on the value itself, and a scanned forest the side sums
of its latest scan.
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
  to collect the edges whose side below sums to 0.
* A value with no kept ancestor gets fresh weights from ``_label_weights``
  and one full walk: an input tree, the expanded forest a search moves on to
  the next input with, or the end of a long chain of values never scanned.

Inherited weights are still zero-sum per component, so every qualifying side
is still flagged, and the exact check still rejects the rest: the answer is
the same set of edges, and so is every trace built on it.  Only the weights
differ from fresh ones, and they are no less random.  Each carried weight is
an integer combination of the random draws, and the only label sets whose
sum vanishes for every draw are unions of whole components (a split adds
exactly the two pieces' sums to those, a grouping merges labels of one
component), so any other side sums to 0 only by the same 2^-64 chance as
under fresh weights.

Three lemmas on a reduced pair (F1, F2) over one label set, one that admits
no removal in either direction, carry both solvers.  By Lemma A a pair the
solvers hold admits none from F1, so it is reduced once F2 admits none.

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
isomorphic F', G' back into isomorphic F, G.  Both solvers rely on this
through :func:`next_case`: a Case-1 grouping goes straight back to the case
analysis, with no ``reduce_pair`` and no equality test in between.

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
component, and the pair was not reduced.  Both solvers rely on this
through :func:`next_case` too: once its groupings leave F2 with no sibling
set, it names no case, and the pair is equal.
"""

from __future__ import annotations

import random
import weakref

from .forest import Forest, ForestError, LabelUniverseError, _walk


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
    """Forget ``f``'s origin once it has side sums: the scanned partner's
    descendants stop there, and the chain of ancestors can go.  A witness,
    which has weights only, keeps it; a value whose origin went and that
    later needs what it would have inherited takes a fresh walk instead,
    which gives the same answer."""
    if f._sums is not None:
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

    The smaller side is walked whole (:func:`_smaller_side`), and the other
    only until it shows a label.  Returns the labels whose weight changed.
    """
    small, other, walk = _smaller_side(forest, a, b, removed)
    s = sum(weight[lid] for lid in small) & _MASK64
    if not s:
        return ()
    # the two sides of a zero-sum component sum to s and -s, so a side with
    # no label forces s = 0
    far = other[0] if other else next(lid for lid in walk if lid is not None)
    weight[small[0]] = (weight[small[0]] - s) & _MASK64
    weight[far] = (weight[far] + s) & _MASK64
    return small[0], far


# what ``next`` gives for a walk that has run out
_END = object()


def _smaller_side(forest, a, b, removed=()):
    """Walk the two sides of the edge between ``a`` and ``b`` in turn, one
    vertex each, until one side is complete.

    ``forest`` minus the edges in ``removed`` must not join ``a`` and ``b``
    other than by that edge, which the walk never crosses: both ends count
    as seen from the start.  So the walk ends after about twice the smaller
    side.  Returns the labels of the side completed first, which has no
    more vertices than the other (on a tie, ``a``'s), the labels the other
    side has shown so far, and that side's walk, which can go on.
    """
    seen = {a, b}
    walks = (_walk(forest, a, seen, removed), _walk(forest, b, seen, removed))
    found = ([], [])
    side = 0
    while (lid := next(walks[side], _END)) is not _END:
        if lid is not None:
            found[side].append(lid)
        side ^= 1
    return found[side], found[1 - side], walks[1 - side]


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
    label.  A grouping logs each leaf it drops as contraction does, a
    ``gone`` step toward the hub, so one branch reads both.  So the tops
    need not be the ones :meth:`Forest._hanging` picks (a cut leaves one
    wherever it falls); the side sums of every edge are the same.
    """
    for step in log:
        kind = step[0]
        if kind == "cut":
            _, _, x, y = step
            child, other = (y, x) if up.get(y) == x else (x, y)
            del up[child]
            if below[child]:
                _add_on_path(up, below, other, -below[child])
        elif kind == "gone":
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
    """Sorted ids of the edges of ``fq`` whose side below sums to 0 under
    ``weight``, from the inherited side sums.

    The side below the edge from ``v`` up to ``up[v]`` sums to ``below[v]``.
    Every component must sum to 0, as one closed over the witness does (see
    the module docstring); ``ForestError`` is raised otherwise.  Only the
    flagged vertices have their edge id looked up.
    """
    sums = _sums_of(fq, weight)
    up, below = sums.up, sums.below
    zero = [v for v, s in below.items() if not s]
    flagged = [v for v in zero if v in up]
    # every vertex but the tops is in ``up``: each top must be among the zeros
    if len(zero) - len(flagged) != len(below) - len(up):
        raise ForestError("a partner component is not a union of witness components")
    return sorted(fq._edges_up(flagged, up))


def find_applicable(fp: Forest, fq: Forest):
    """Sorted ids of every edge of ``fq`` removable with ``fp`` as witness,
    or None if there is none.

    ``fq`` must be closed over ``fp``: each of its components a union of
    ``fp``'s, as Lemma A in the module docstring shows for the solvers'
    pairs.  ``ForestError`` is raised otherwise.

    Only the edges whose side below sums to 0 under the zero-sum weights of
    ``fp``'s components (:func:`_candidates`, from inherited side sums) are
    checked, each by walking its smaller side (:func:`_smaller_side`): that
    side is a union of whole ``fp`` components iff the other is.  It is one
    iff a walk of ``fp`` from the side's labels reaches no other label
    (:func:`_holds_whole_components`).  Every removable edge is flagged,
    and a side that sums to 0 by chance fails the check, so it cannot
    change the answer.
    """
    flagged = _candidates(fq, _weights_of(fp))
    if not flagged:
        return None
    ends = fq._edges
    found = [eid for eid in flagged
             if _holds_whole_components(fp, _smaller_side(fq, *ends[eid])[0])]
    return tuple(found) or None


def _holds_whole_components(fp: Forest, lids) -> bool:
    """True iff the labels ``lids`` are a union of whole components of
    ``fp``: walks of ``fp`` from each of their leaves, which stop at the
    first label outside them, reach no such label.  Every leaf counts as
    seen from the start, as each is walked from itself."""
    side = set(lids)
    starts = [fp._label_vertex[lid] for lid in side]
    seen = set(starts)
    return all(lid is None or lid in side for v in starts for lid in _walk(fp, v, seen, ()))


def require_whole_partners(forests):
    """Raise ``ForestError`` unless every forest after the first is one tree,
    as Lemma A asks of the solvers' inputs."""
    if any(f.order() != 1 for f in forests[1:]):
        raise ForestError("every input forest after the first must be one tree")


def reduce_pair(f1: Forest, f2: Forest):
    """Remove from ``f2`` every edge removable with ``f1`` as witness.

    ``f2`` must be closed over ``f1``, as it is in both solvers (Lemma A in
    the module docstring): then no edge of ``f1`` is removable, and one
    scan (:func:`find_applicable`) and one ``remove_edges`` reach the
    fixpoint (Lemma B).  Both forests must carry the same label ids
    (grouping applied to both alike); ``LabelUniverseError`` is raised
    otherwise.

    Returns ``f1``, the reduced ``f2`` and the ids of the essential edges of
    the removal (:meth:`Forest.essential_edges`), edges of the ``f2`` given,
    in id order: one for each removal that removing one edge at a time
    would make.
    """
    if f1.label_ids() != f2.label_ids():
        raise LabelUniverseError("forests to reduce carry different label ids")
    found = find_applicable(f1, f2)
    if found is None:
        return f1, f2, ()
    return f1, f2.remove_edges(found), f2.essential_edges(found)


def next_case(f1: Forest, f2: Forest):
    """Group every sibling set the pair shares, then name the case to act on.

    ``(f1, f2)`` must be a reduced pair, as :func:`reduce_pair` leaves it.
    Each sibling set that ``f2.find_mss`` picks and that ``f1`` calls
    ``"mss"`` (Case 1: maximal in both) is grouped in both forests, until
    one is not.  Returns ``(f1, f2, case, grouped)``: the grouped pair,
    ``f1.sibling_case`` of the first set that is not Case 1, or None if
    ``f2`` has no sibling set left, and the label sets grouped, in order.

    The run is one derivation per forest.  The first set grouped copies
    each forest once (``Forest._copy``), and every set is grouped in place
    on those two copies, which no one else holds yet; then the rows they
    wrote are checked and each is linked to its input with one log of the
    whole run.  Each set is classified once: ``f1.sibling_case`` names its
    hub in ``f1``, and its hub in ``f2`` is the one ``f2``'s sibling-set
    table files it under (``Forest._filed_hub``).  A pair with no set to
    group comes back as it was given.

    Two of the pair lemmas in the module docstring make this the one Case-1
    loop both solvers share.  A grouping keeps a reduced pair reduced, and
    an unequal one unequal, so no reduction or equality test is needed
    between groupings.  A reduced pair with no sibling set is equal, so
    ``case`` is None exactly when the grouped pair is equal.
    """
    start, logs, grouped = (f1, f2), ([], []), []
    while (mss := f2.find_mss()) is not None:
        case = f1.sibling_case(mss)
        if case.kind != "mss":
            break
        if not grouped:
            f1, f2 = f1._copy(), f2._copy()
        f1._group(mss, case.hub, logs[0])
        f2._group(mss, f2._filed_hub(mss), logs[1])
        grouped.append(mss)
    else:
        case = None
    if grouped:
        f1._link(start[0], logs[0])
        f2._link(start[1], logs[1])
    return f1, f2, case, grouped
