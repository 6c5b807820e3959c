"""Depth-bounded branch-and-search solvers for agreement forests of order ≤ k.

The search works on the first two forests of the instance at a time, and
each node runs the round the approximation runs too: ``reduce_pair`` makes
the pair strongly reducible, and ``reduction.next_case`` groups every
maximal sibling set the two forests share (Case 1) and names the case to
act on.  The search branches on cutting either label of the case's pair and
on each of its ``cuts``.  Every branch cuts a label off in both forests or
cuts the first only, so the second forest's components stay unions of the
first's, as the one-scan reduction needs (Lemmas A and B in
``reduction``).  That needs every input forest after the first to be one
tree, and an instance whose later forests are not raises ``ForestError``.
Rooted branching is at most three-way, so a completed search visits at most
3^k leaves; unrooted branching is four-way with a 4^k bound.  Every branch
cuts at least one edge of the working forest, so its component count grows
strictly along any root-to-leaf path; searches prune as soon as it exceeds
k.

A child's order is known before it is built: every edge a branch cuts adds
exactly one component.  A pendant edge splits a labeled leaf off a component
that keeps other labels; each edge of a cut in ``cuts`` hangs a labeled
subtree off the path or the hub, which keeps both labels of the pair.  So a
child whose order would exceed k is counted as the leaf its own call would
count, and never built.

A node collapses at one site, when its reduced pair is equal: the first
forest is then an agreement forest of the pair and every other one is a cut
of it, so the search moves on to the next input forest with it.  By the pair
lemmas in ``reduction`` it finds the pair equal two ways.  At order k, where
no cut is left, a reduced pair agrees only if it is equal, so one equality
test (``Forest.same_structure``, which builds no canonical key) decides the
node; an unequal pair is a leaf where the case analysis would have branched
only into children over k.  Below k, the pair is equal once ``next_case``
names no case.  So only nodes below order k branch, and as a node at depth
d has order at least d + 1, the branching depth ``max_depth`` is at most
k − 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forest import (
    AgreementForest,
    Forest,
    ForestError,
    Instance,
    RHO,
    certify,
)
from .reduction import next_case, reduce_pair, require_whole_partners


class NoSolutionError(ForestError):
    """No agreement forest exists within the order cap searched."""


@dataclass
class SearchStats:
    """Counters describing one bounded search."""

    k: int = 0
    nodes: int = 0
    leaves: int = 0
    max_depth: int = 0
    case1: int = 0
    case2: int = 0
    case31: int = 0
    case32: int = 0
    rule1_edges: int = 0
    collapses: int = 0

    def summary(self) -> str:
        return (
            f"k={self.k} nodes={self.nodes} leaves={self.leaves} "
            f"depth={self.max_depth} branches(c2={self.case2} "
            f"c3.1={self.case31} c3.2={self.case32}) groupings={self.case1} "
            f"rule1={self.rule1_edges}"
        )


def _search(forests, k, stats, depth):
    while True:
        f1 = forests[0]
        if len(forests) == 1:
            stats.leaves += 1
            return f1 if f1.order() <= k else None
        if f1.order() > k:
            stats.leaves += 1
            return None
        stats.nodes += 1
        f1, f2, removed = reduce_pair(f1, forests[1])
        stats.rule1_edges += len(removed)
        if f1.order() < k:
            # each grouping still counts as a node
            f1, f2, case, grouped = next_case(f1, f2)
            stats.case1 += len(grouped)
            stats.nodes += len(grouped)
        elif f1.same_structure(f2):
            case = None
        else:
            # at order k no cut is left, and a reduced pair agrees only if it
            # is equal (see ``reduction``): this one has no solution
            stats.leaves += 1
            return None
        # the one collapse site: the pair is equal, by the test at order k,
        # and below it by the no-sibling-set lemma in ``reduction``
        if case is None:
            stats.collapses += 1
            forests = [f1.expand_labels()] + forests[2:]
            continue

        if case.kind == "siblings":
            stats.case2 += 1
        elif case.kind == "split":
            stats.case31 += 1
        else:
            stats.case32 += 1
        # every branch so far cut at least one working-forest edge
        if f1.order() < depth + 1:
            raise ForestError("component count fell behind branch depth")
        stats.max_depth = max(stats.max_depth, depth + 1)
        rest = forests[2:]
        branches = [([f1.pendant_edge(lid)], [f2.pendant_edge(lid)]) for lid in case.pair]
        branches += [(cut, ()) for cut in case.cuts]
        for cut1, cut2 in branches:
            # each edge of ``cut1`` adds one component (see above), so a
            # child over k is counted as the leaf its call would be, unbuilt
            if f1.order() + len(cut1) > k:
                stats.leaves += 1
                continue
            child = [f1.remove_edges(cut1), f2.remove_edges(cut2) if cut2 else f2]
            found = _search(child + rest, k, stats, depth + 1)
            if found is not None:
                return found
        return None


def _solve(instance: Instance, k: int) -> tuple[Forest | None, SearchStats]:
    if k < 1:
        raise ForestError("parameter k must be at least 1")
    require_whole_partners(instance.forests)
    stats = SearchStats(k=k)
    return _search(list(instance.forests), k, stats, 0), stats


def solve_rmaf(instance: Instance, k: int):
    """Agreement forest of order ≤ k for a rooted instance, or None."""
    if not instance.rooted:
        raise ForestError("solve_rmaf needs a rooted instance")
    try:
        rho = instance.forests[0].labels.id_of(RHO)
    except KeyError:
        rho = None  # a table without ρ: no forest holds it
    if any(rho not in f.label_ids() for f in instance.forests):
        raise ForestError("rooted forest lacks the root label")
    return _solve(instance, k)


def solve_umaf(instance: Instance, k: int):
    """Agreement forest of order ≤ k for an unrooted instance, or None."""
    if instance.rooted:
        raise ForestError("solve_umaf needs an unrooted instance")
    return _solve(instance, k)


@dataclass(frozen=True)
class MinKResult:
    order: int
    af: AgreementForest
    stats: SearchStats
    attempts: tuple[SearchStats, ...] = ()


def find_min_k(instance: Instance, k_lo: int = 1, k_hi: int | None = None,
               incumbent: Forest | None = None) -> MinKResult:
    """Smallest parameter admitting a solution, found by linear ascent.

    Feasibility is monotone in k: cutting a pendant edge of an agreement
    forest gives one of order one higher, up to the label count.  The search
    cost grows exponentially with k, so walking k upward from the lower
    bound keeps the cheap attempts cheap.  ``k_hi`` defaults to the label
    count, which always admits the all-singletons forest; ``NoSolutionError``
    reports that no order up to ``k_hi`` is feasible.  ``k_lo`` must be a
    lower bound on the optimum: if it exceeds ``k_hi``, that error comes at
    once, with no search.

    ``incumbent`` is an agreement forest known in advance (say, the
    approximation's, coarsened by :func:`~mafkit.approx.coarsen`) of order
    u.  The ascent then searches only below u, and if every k from ``k_lo``
    to u − 1 fails, it returns the incumbent: those k are infeasible, and
    by monotonicity so is every smaller one, so the optimum is at least u,
    which the incumbent reaches.  It is certified then, once, and one that
    is not an agreement forest raises ``ForestError``.  So it is never
    returned unchecked, and it cannot end the ascent wrongly either: if u
    is at most the optimum every search fails and the certificate is asked
    for; if u is above it, the search finds the optimum first.  When the
    incumbent answers, ``stats`` is an empty record at its order, as no
    search ran there; ``attempts`` lists the searches that ran, which may
    be none.
    """
    solve = solve_rmaf if instance.rooted else solve_umaf
    if k_hi is None:
        k_hi = instance.n_labels
    last = k_hi if incumbent is None else min(k_hi, incumbent.order() - 1)
    attempts = []
    for k in range(max(1, k_lo), last + 1):
        forest, stats = solve(instance, k)
        attempts.append(stats)
        if forest is not None:
            return MinKResult(
                order=forest.order(),
                af=certify(forest, instance),
                stats=stats,
                attempts=tuple(attempts),
            )
    if incumbent is not None and incumbent.order() <= k_hi:
        return MinKResult(order=incumbent.order(), af=certify(incumbent, instance),
                          stats=SearchStats(k=incumbent.order()), attempts=tuple(attempts))
    raise NoSolutionError(f"no agreement forest of order <= {k_hi}")
