"""Polynomial-time approximation with a certified per-step ratio.

The driver walks the input forests left to right and edits the working forest
and the current partner with a sequence of meta-steps until they agree.  Each
meta-step removes a bundled edge set and carries a proven ratio: reduction
and grouping are free (ratio 1), cutting the two chosen labels is ratio 2,
and the steps that also cut surplus edges are ratio 3 rooted / ratio 4
unrooted.  The maximum ratio over the run bounds the output order against the
optimum, so the whole algorithm is a 3-approximation on rooted instances and
a 4-approximation on unrooted ones.

Each round is the one the exact search runs at a node: ``reduce_pair``,
then ``reduction.next_case``, which groups every maximal sibling set the
pair shares and names the case to act on.  The approximation stops when the
reduced pair is equal, before it groups, and otherwise cuts on the case: a
meta-step cuts the pendant edges of the case's pair plus the first edge of
each of its ``cuts``, so an unrooted path step cuts one edge off
``path[1]`` and one off ``path[-2]``.  It records one ``rule1`` step
per essential edge the reduction removes and one ``group`` step per
grouping.  A cut step cuts the pair's labels off in the partner too, so the
partner's components stay unions of the working forest's, and the working
forest never loses an edge to the rule (Lemmas A and B in ``reduction``).
That needs every input forest after the first to be one tree, and an
instance whose later forests are not raises ``ForestError``.

Every step is recorded with the removed edges, the working-forest subset, and
an essential subset (a removal set of the same effect in which every edge
genuinely splits a component).  ``check_metastep_ratio`` audits each record
where the step is made, against the forests the step passed through, and a
record keeps edge ids only, not those forests.  ``next_case`` makes a run of
groupings as one derivation, so each ``group`` record of a run is audited
against the working forests the run starts and ends with: a grouping
removes no edge and keeps the order, and so does the run.

The trace also bounds the optimum from below (``ApproxResult.lower_bound``).
For a pair (F1, F2) let d(F1, F2) be the number of further cuts of F1 that
a maximum agreement forest of the pair needs: its order minus F1's.  The
audited ratio rests on a per-step lemma: a ratio-r step that removes s
essential edges lowers d by at least s/r, and a grouping or a reduction
removal, which only ever leaves the partner, does not raise it.  d is an
integer, so every step with a non-empty essential set lowers it by at least
one.  The steps of partner 1 start from (T1, T2), where d is the
optimum of that pair minus 1, and d never falls below 0.  So the optimum of
(T1, T2) is at least 1 plus the number of those steps, and the instance's
optimum, whose agreement forests are agreement forests of (T1, T2), is at
least that too.  Later partners start from a working forest that is not an
agreement forest of optimal order, so their steps are not counted.

The lemma asks of a cut step only that some maximum agreement forest F* of
the pair cuts one of its edges: F* with the other edges cut as well is an
agreement forest of the pair the step leaves, of order at most one more per
edge, so d falls by at least one while the step removes at most r essential
edges.  On an unrooted path the case's pair a, b are siblings in the
partner and joined in F1 by a path a, v1, …, vt, b with t ≥ 2.  If F*
parts a from b, one of them is alone in it, as F* is a cut of the partner,
where they are siblings.  If it keeps them together they are siblings in
F* too, so the rest of their part meets the path at one vi at most, and
every edge off each other vj is cut; as t ≥ 2, every edge off v1 or every
edge off vt is.  So F* cuts one of the four edges the step removes, and
the ratio is 4.  Two edges chosen anywhere off the interior would not do:
both may hang off the vi that F* keeps, and then F* cuts none of the four.

The forest the approximation ends with is seldom maximal: often two of its
parts can be joined and the result is still an agreement forest.  That
holds when, in every input tree, no other part has a vertex on the path
between the two parts' Steiner subtrees, so the joined subtree stays
disjoint from the others, and the joined parts restrict every tree to the
same tree.  ``coarsen`` joins parts while such a join exists (its docstring
has the test and why each pair is tried once).  A join only lowers the
order, so the ratio bound holds for the coarsened forest too.  The lower
bound still reads the approximation's own order k', as ⌈k'/r⌉ is the
stronger bound; the coarsened order bounds the optimum from above, and
``maf pmaf`` hands the coarsened forest to the exact ascent as its
incumbent (see ``fpt.find_min_k``).  ``maf amaf`` prints the
approximation's own forest.

Both bounds hold whatever the order of the input trees, so ``bootstrap``
approximates and coarsens with other pairs of trees first while the two
are at least 2 apart, and keeps the best of each.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, permutations

from .forest import Forest, Instance, MafError, _Hung, find_root
from .reduction import next_case, reduce_pair, require_whole_partners

RULE1 = "rule1"
GROUP = "group"
MS2 = "ms2"
MS31 = "ms31"
MS32 = "ms32"

_CASE_KINDS = {"siblings": MS2, "split": MS31, "path": MS32}


def declared_ratio(kind: str, rooted: bool) -> int:
    if kind in (RULE1, GROUP):
        return 1
    if kind == MS31:
        return 2
    return 3 if rooted else 4


@dataclass(frozen=True)
class MetaStepRecord:
    """Bookkeeping for one meta-step application: edge ids and the declared
    ratio, but not the forests the step passed through."""

    kind: str
    partner_index: int
    removed_f1: tuple[int, ...]
    removed_partner: tuple[int, ...]
    essential: tuple[int, ...]
    declared_ratio: int


@dataclass(frozen=True)
class ApproxResult:
    forest: Forest
    trace: tuple[MetaStepRecord, ...]
    ratio_bound: int

    @property
    def order(self) -> int:
        return self.forest.order()

    def lower_bound(self) -> int:
        """A lower bound on the order of every agreement forest of the instance.

        ⌈k'/r⌉ for the approximation's order k' and ratio r (3 rooted, 4
        unrooted), or 1 plus the partner-1 steps with a non-empty essential
        set if larger (see the module docstring).  Agreement forests do not
        depend on the order of the input trees, so the bound an
        approximation of the trees in any order gives holds for every
        order (see :func:`bootstrap`).
        """
        ratio = 3 if self.forest.rooted else 4
        steps = sum(1 for rec in self.trace if rec.partner_index == 1 and rec.essential)
        return max(-(-self.order // ratio), 1 + steps)

    def step_counts(self) -> dict[str, int]:
        counts = {RULE1: 0, GROUP: 0, MS2: 0, MS31: 0, MS32: 0}
        for rec in self.trace:
            counts[rec.kind] += 1
        return counts


# the essential subset of a record's removal, ``essential_subset(forest,
# eids)``: the greedy the reduction also uses for its own removals
essential_subset = Forest.essential_edges


def check_metastep_ratio(rec: MetaStepRecord, before: Forest, after: Forest) -> bool:
    """Audit one record against its step's forests; False on any violation.

    ``before`` is the working forest the step started from and ``after``
    the one the step derived itself.  The essential edges are among the
    removed ones, removing them alone from ``before`` gives ``after`` (made
    only when they are fewer than the removal, as ``after`` is that
    derivation otherwise), and each raises the order by one.  A reduction
    step keeps every edge it removes as essential, a grouping has none,
    and a cut step removes at most as many essential edges as its ratio; a
    record of any other kind fails.
    """
    try:
        ess, removed = set(rec.essential), set(rec.removed_f1)
        if not ess <= removed:
            return False
        if ess != removed and not before.remove_edges(rec.essential).same_structure(after):
            return False
        if len(rec.essential) != after.order() - before.order():
            return False
        ratio = declared_ratio(rec.kind, before.rooted)
        if rec.kind == RULE1:
            if len(rec.essential) != len(rec.removed_f1):
                return False
        elif rec.kind == GROUP:
            if rec.essential:
                return False
        elif rec.kind not in _CASE_KINDS.values() or len(rec.essential) > ratio:
            return False
        if rec.declared_ratio != ratio:
            return False
    except MafError:
        return False
    return True


def _record(kind, idx, before, after, removed_f1, removed_partner) -> MetaStepRecord:
    rec = MetaStepRecord(
        kind=kind,
        partner_index=idx,
        removed_f1=tuple(sorted(removed_f1)),
        removed_partner=tuple(sorted(removed_partner)),
        essential=essential_subset(before, removed_f1),
        declared_ratio=declared_ratio(kind, before.rooted),
    )
    if not check_metastep_ratio(rec, before, after):
        raise MafError(f"meta-step {kind} failed its own ratio audit")
    return rec


def _approximate(instance: Instance) -> ApproxResult:
    require_whole_partners(instance.forests)
    f1 = instance.forests[0]
    trace: list[MetaStepRecord] = []
    for idx in range(1, len(instance.forests)):
        fi = instance.forests[idx]
        # the working forest and each fresh partner share the label table;
        # grouping below applies to both in lockstep
        budget = 8 * (len(f1.original_label_ids()) + 1) ** 2
        while True:
            budget -= 1
            if budget < 0:
                raise MafError("approximation made no progress")
            # the reduction removes partner edges only (see ``reduction``)
            _, fi, removed = reduce_pair(f1, fi)
            for eid in removed:
                trace.append(_record(RULE1, idx, f1, f1, (), (eid,)))
            if f1.same_structure(fi):
                break
            start = f1
            f1, fi, case, grouped = next_case(f1, fi)
            for _ in grouped:
                trace.append(_record(GROUP, idx, start, f1, (), ()))
            if case is None:  # impossible by the lemmas in ``reduction``
                raise MafError("unequal reduced pair with no sibling set")

            a, b = case.pair
            extra = tuple(e for cut in case.cuts for e in cut[:1])
            removed_f1 = (f1.pendant_edge(a), f1.pendant_edge(b), *extra)
            removed_fi = (fi.pendant_edge(a), fi.pendant_edge(b))
            nf1 = f1.remove_edges(removed_f1)
            nfi = fi.remove_edges(removed_fi)
            kind = _CASE_KINDS[case.kind]
            trace.append(_record(kind, idx, f1, nf1, removed_f1, removed_fi))
            f1, fi = nf1, nfi
        f1 = f1.expand_labels()
    bound = max((rec.declared_ratio for rec in trace), default=1)
    return ApproxResult(forest=f1, trace=tuple(trace), ratio_bound=bound)


def approx_rmaf(instance: Instance) -> ApproxResult:
    """Ratio-3 agreement forest for a rooted instance."""
    if not instance.rooted:
        raise MafError("approx_rmaf needs a rooted instance")
    return _approximate(instance)


def approx_umaf(instance: Instance) -> ApproxResult:
    """Ratio-4 agreement forest for an unrooted instance."""
    if instance.rooted:
        raise MafError("approx_umaf needs an unrooted instance")
    return _approximate(instance)


# ---------------------------------------------------------------------------
# coarsening: joining parts of an agreement forest


class _MergePass:
    """The state of one :func:`coarsen` call: the parts, one :class:`_Hung`
    per input tree, and the parts next to each other in the first tree.

    A join gives the joined part a new id; ``root`` is a union-find over
    part ids (see :func:`find_root`), in which the live parts are roots.
    ``meets`` lists the contacts of :meth:`_contacts_in_first` and
    ``contacts[p]`` the ones of part ``p``, whose ids resolve to the parts
    next to ``p`` in the first tree (see :meth:`neighbors`).
    """

    def __init__(self, instance: Instance, forest: Forest):
        if forest.has_grouped_labels():
            forest = forest.expand_labels()
        self.forest = forest
        self.rooted = instance.rooted
        self.parts = [sorted(part) for part in forest.label_partition()]
        self.root = list(range(len(self.parts)))
        self.trees = [_Hung(f, self.parts) for f in instance.forests]
        self.meets = self._contacts_in_first()
        self.contacts = [set() for _ in self.parts]
        for c, pids in enumerate(self.meets):
            for pid in pids:
                self.contacts[pid].add(c)

    def part_at(self, tree: _Hung, v):
        """The live part whose subtree holds ``v`` in ``tree``, or None."""
        pid = tree.owner.get(v)
        return None if pid is None else find_root(self.root, pid)

    def _contacts_in_first(self):
        """Where parts meet in the first tree: the parts next to each region
        of vertices that no part holds, and the two parts of each edge
        between two parts' subtrees, each as a sorted list of part ids.

        Two parts are next to each other iff they share a contact, and they
        share at most one: the first tree with each part's subtree and each
        region contracted to one vertex is still a tree.
        """
        tree = self.trees[0]
        owner = tree.owner
        region = {v: v for v in tree.depth if v not in owner}
        edges, touching = [], []
        for v, p in tree.up.items():
            ov, op = owner.get(v), owner.get(p)
            if ov is None and op is None:
                region[find_root(region, v)] = find_root(region, p)
            elif ov is None or op is None:
                touching.append((v, op) if ov is None else (p, ov))
            elif ov != op:
                edges.append(sorted((ov, op)))
        touch: dict[int, set[int]] = {}
        for v, pid in touching:
            touch.setdefault(find_root(region, v), set()).add(pid)
        return [sorted(pids) for pids in touch.values()] + edges

    def neighbors(self, pid):
        """The live parts that share a contact with live part ``pid``: every
        part next to it in the first tree, and maybe some that no longer are."""
        root = self.root
        return {find_root(root, q) for c in self.contacts[pid] for q in self.meets[c]} - {pid}

    def _path(self, tree: _Hung, a, b):
        """How the subtrees of live parts ``a`` and ``b`` meet in ``tree``:
        ``(inner vertices of the path between them, its end in a's subtree,
        its end in b's, top of the joined subtree)``, or None if another
        part's subtree lies on that path, or no path joins them.

        The end of the deeper climb goes up one vertex at a time from the two
        tops.  A climb that reaches the other part's subtree has found the
        path, with that part on top; two climbs that meet at a vertex no part
        holds have found it with the meeting vertex on top.
        """
        up, depth, top = tree.up, tree.depth, tree.top
        x, y = top[a], top[b]
        inner = []
        while True:
            from_a = depth[x] >= depth[y]
            v = up.get(x if from_a else y)
            if v is None:
                return None
            if v in tree.owner:
                if self.part_at(tree, v) != (b if from_a else a):
                    return None
                return (inner, top[a], v, top[b]) if from_a else (inner, v, top[b], top[a])
            if v == (y if from_a else x):
                return inner, top[a], top[b], v
            inner.append(v)
            if from_a:
                x = v
            else:
                y = v

    def _point(self, tree: _Hung, pid, v):
        """A name for the place of ``v`` in T|part ``pid``, the same in every
        tree: rooted, the part's labels below ``v`` and whether ``v`` lies
        inside an edge of T|part; unrooted, the part's labels in each branch
        of its subtree at ``v``."""
        labs, up = self.parts[pid], tree.up
        mine = [w for _, w in tree.forest.neighbors(v) if self.part_at(tree, w) == pid]
        if self.rooted:
            kids = sum(1 for w in mine if up.get(w) == v)
            return tree.below(v, labs), kids == 1 and tree.forest.label_of(v) is None
        outside = tree.below(v, labs)
        return frozenset(tree.below(w, labs) if up.get(w) == v else frozenset(labs) - outside
                         for w in mine)

    def _name(self, tree: _Hung, a, b, met):
        """How T|(a ∪ b) joins T|a and T|b in ``tree``, named the same way
        in every tree (see :func:`coarsen`)."""
        _, end_a, end_b, top = met
        if not self.rooted:
            return self._point(tree, a, end_a), self._point(tree, b, end_b)
        if top == tree.top[a]:
            return a, self._point(tree, a, end_a)
        if top == tree.top[b]:
            return b, self._point(tree, b, end_b)
        return None  # the two subtrees hang side by side

    def joinable(self, a, b):
        """The path of :meth:`_path` in every tree if live parts ``a`` and
        ``b`` can be joined, else None."""
        paths = []
        for tree in self.trees:
            met = self._path(tree, a, b)
            if met is None:
                return None
            paths.append(met)
        names = (self._name(tree, a, b, met) for tree, met in zip(self.trees, paths))
        first = next(names)
        return paths if all(name == first for name in names) else None

    def join(self, a, b, paths) -> int:
        """Join live parts ``a`` and ``b`` along ``paths``; the new part's id."""
        new = len(self.parts)
        self.parts.append(self.parts[a] + self.parts[b])
        self.root.append(new)
        self.root[a] = self.root[b] = new
        for tree, (inner, _, _, top) in zip(self.trees, paths):
            tree.owner.update(dict.fromkeys(inner, new))
            tree.top[new] = top
        self.contacts.append(self.contacts[a] | self.contacts[b])
        return new

    def run(self) -> Forest:
        """Try every pair of parts that share a contact, those of each
        contact at the start and then those of each joined part, in turn,
        and join those that can be; the first tree cut to the result.

        The pairs at the start are made as they are tried, as a region next
        to p parts has p(p − 1)/2 of them.
        """
        started, later = len(self.parts), deque()

        def queued():
            while later:
                yield later.popleft()

        start = ((a, b) for pids in self.meets for i, a in enumerate(pids) for b in pids[i + 1:])
        for a, b in chain(start, queued()):
            if self.root[a] != a or self.root[b] != b:
                continue
            paths = self.joinable(a, b)
            if paths is not None:
                new = self.join(a, b, paths)
                later.extend((new, c) for c in sorted(self.neighbors(new)))
        if len(self.parts) == started:
            return self.forest
        live = [find_root(self.root, pid) for pid in range(len(self.parts))]
        tree = self.trees[0]
        return tree.forest.remove_edges(tree.apart(live))


def coarsen(instance: Instance, forest: Forest) -> Forest:
    """A coarser agreement forest: the parts of ``forest``, an agreement
    forest of ``instance``, joined two at a time while the join is one too.

    The result is the first tree cut to the joined parts, or ``forest``
    itself if no join holds, and no two of its parts can be joined.

    Write S_i(Y) for the Steiner subtree of a label set Y in input tree T_i,
    the least subtree that holds its leaves, and T_i|Y for its contraction.
    A partition is an agreement forest iff in every T_i the S_i of its
    parts are disjoint and T_i|Y is one tree for every i.  So the join of
    parts A and B of one is one too iff in every T_i:

    * no other part's subtree holds a vertex of the path between S_i(A) and
      S_i(B), as S_i(A ∪ B) is S_i(A), S_i(B) and that path (A and B are
      *next to each other* in T_i); and
    * T_i|(A ∪ B) is T_1|(A ∪ B).

    *The test.*  T_i|(A ∪ B) is T_i|A and T_i|B, which are the same in
    every tree, with the path contracted to one edge between them.  Its
    ends are places of T|A and T|B: a vertex, or a point inside an edge.
    So T_i|(A ∪ B) is fixed by the places, and gives them back when
    restricted to A and to B; the trees agree iff their places do.  A place
    of T|A is named by labels of A, the same way in every tree.  Unrooted,
    by the label sets of its branches in S_i(A): three or more at a vertex,
    the two sides of the edge it splits, none at a lone leaf.  Rooted, the
    path leaves the upper subtree at a place and enters the lower one at its
    top, or leaves both at their tops for a new root above them, the path's
    highest vertex.  So the name is the upper part and its place, or none;
    the place is named by the labels below it, which differ between
    vertices and name an edge by its lower end, and whether it lies inside
    that edge.  The path takes one climb from the two tops, and a name
    O(|A|) steps with the preorder numbers of :class:`_Hung`.

    *Each pair is tried once.*  While A and B live their subtrees stay as
    they are, and T|(A ∪ B) depends on A and B alone.  A join only adds the
    path's vertices to the new part, so a vertex held by another part stays
    held by another part.  So a test of A and B that failed would fail
    again, and is not repeated.  The pairs next to each other in T_1 are
    all tried: those at the start, and for a new part A ∪ B, the neighbors
    of A and of B.  These are all of its neighbors.  Take a path from
    another part's subtree to S_1(A ∪ B) that crosses no other part.  It
    ends in S_1(A) or in S_1(B), so that part is next to A or B, or inside
    the path between them, and going on along that path reaches S_1(A)
    without crossing another part.  Two parts can stop being next to each
    other but never start, since held vertices stay held.  So when the
    worklist is empty no two parts can be joined.

    The order only falls, so the approximation's ratio bound holds for the
    result too.  ``forest`` must be an agreement forest of ``instance``;
    :func:`~mafkit.fpt.find_min_k` certifies the result before it uses it.
    """
    return _MergePass(instance, forest).run()


# ---------------------------------------------------------------------------
# bootstrap: the exact search's bounds from several tree orders


@dataclass(frozen=True)
class Bootstrap:
    """The bounds :func:`bootstrap` found: the approximation of the trees in
    the given order, and the largest lower bound and the smallest coarsened
    agreement forest over the orders it tried."""

    given: ApproxResult
    lower_bound: int
    incumbent: Forest


def bootstrap(instance: Instance, given: ApproxResult | None = None) -> Bootstrap:
    """Bounds on the optimum for :func:`~mafkit.fpt.find_min_k`, from the
    approximation of the instance's trees in more than one order.

    Agreement forests do not depend on the order of the input trees, so
    the approximation of the trees in any order gives a lower bound
    (:meth:`ApproxResult.lower_bound`), and :func:`coarsen` of its forest an
    agreement forest of the instance.  The given order comes first
    (``given`` is its approximation, if it has been run).  Then, while the
    smallest coarsened order and the largest bound are at least 2 apart,
    the next ordered pair (i, j) of trees, in lexicographic order, is put
    first with the rest in input order, and approximated; its forest is
    coarsened only if the gap is still at least 2, and kept if smaller.
    At a gap of 1, ``find_min_k`` makes one search, at the bound, the
    cheapest it makes, and another approximation tends to cost more.
    """
    approximate = approx_rmaf if instance.rooted else approx_umaf
    if given is None:
        given = approximate(instance)
    lower = given.lower_bound()
    best = coarsen(instance, given.forest)
    forests = instance.forests
    for i, j in permutations(range(instance.m), 2):
        if best.order() - lower < 2:
            break
        if (i, j) == (0, 1):
            continue
        rest = (f for t, f in enumerate(forests) if t not in (i, j))
        tried = Instance(instance.rooted, (forests[i], forests[j], *rest), instance.name)
        ares = approximate(tried)
        lower = max(lower, ares.lower_bound())
        if best.order() - lower >= 2:
            best = min(best, coarsen(tried, ares.forest), key=Forest.order)
    return Bootstrap(given, lower, best)
