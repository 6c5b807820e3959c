"""Depth-bounded branch-and-search solvers for agreement forests of order ≤ k.

The search works on the first two forests of the instance at a time: reduce
the pair, shrink matching maximal sibling sets into grouped leaves, and when
the structures disagree branch on the ways a maximal agreement forest of the
pair can treat the sibling set.  Rooted branching is at most three-way, so a
completed search visits at most 3^k leaves; unrooted branching is four-way
with a 4^k bound.  Once the second forest runs out of sibling sets the pair
collapses to its unique maximal agreement forest and the recursion moves on
to the next input forest.

The case analysis itself lives in ``Forest.sibling_case``, which the
approximation shares: the search branches on cutting either label of the
case's pair and on each of its ``cuts``.  Every branch cuts at least one edge
of the working forest, so its component count grows strictly along any
root-to-leaf path; searches prune as soon as it exceeds k.
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
from .reduction import reduce_pair


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


def unique_maximal_af(f1: Forest, f2: Forest) -> Forest:
    """The single maximal agreement forest of a pair whose second forest has
    no maximal sibling set.

    Such a forest is all singleton trees plus at most one single-edge tree;
    in the rooted case that edge hangs off ρ.  The pair's unique maximal
    agreement forest is the second forest itself, unless the edge's two
    labels sit in different components of the first forest, in which case it
    degenerates to all singletons.
    """
    if f2.find_mss() is not None:
        raise ForestError("second forest still has a maximal sibling set")
    eids = list(f2.edge_ids())
    if not eids:
        return f2
    if len(eids) > 1:
        raise ForestError("no-MSS forest cannot have more than one edge")
    u, v = f2.edge_ends(eids[0])
    x, y = f2.label_of(u), f2.label_of(v)
    if f1.component_index_of_label(x) == f1.component_index_of_label(y):
        return f2
    return Forest.singletons(f2.rooted, f2.labels, f2.label_ids())


def _cut(f: Forest, lid) -> Forest:
    return f.remove_edges([f.pendant_edge(lid)])


def _search(forests, k, stats, depth):
    forests = list(forests)
    while True:
        f1 = forests[0]
        if len(forests) == 1:
            stats.leaves += 1
            return f1 if f1.order() <= k else None
        if f1.order() > k:
            stats.leaves += 1
            return None
        stats.nodes += 1
        f1, f2, trace = reduce_pair(f1, forests[1])
        stats.rule1_edges += len(trace)
        forests[0], forests[1] = f1, f2

        mss = f2.find_mss()
        if mss is None:
            stats.collapses += 1
            collapsed = unique_maximal_af(f1, f2)
            forests = [collapsed.expand_labels()] + forests[2:]
            continue

        case = f1.sibling_case(mss.labels)
        if case.kind == "mss":
            stats.case1 += 1
            forests[0] = f1.group_labels(mss.labels)
            forests[1] = f2.group_labels(mss.labels)
            continue

        if case.kind == "siblings":
            stats.case2 += 1
        elif case.kind == "split":
            stats.case31 += 1
        else:
            stats.case32 += 1
        a, b = case.pair
        branches = [(_cut(f1, a), _cut(f2, a)), (_cut(f1, b), _cut(f2, b))]
        branches += [(f1.remove_edges(cut), f2) for cut in case.cuts]

        # every branch so far cut at least one working-forest edge
        if f1.order() < depth + 1:
            raise ForestError("component count fell behind branch depth")
        stats.max_depth = max(stats.max_depth, depth + 1)
        rest = forests[2:]
        for nf1, nf2 in branches:
            found = _search([nf1, nf2] + rest, k, stats, depth + 1)
            if found is not None:
                return found
        return None


def _solve(instance: Instance, k: int) -> tuple[Forest | None, SearchStats]:
    if k < 1:
        raise ForestError("parameter k must be at least 1")
    stats = SearchStats(k=k)
    found = _search(list(instance.forests), k, stats, 0)
    if found is not None and found.has_grouped_labels():
        found = found.expand_labels()
    return found, stats


def solve_rmaf(instance: Instance, k: int):
    """Agreement forest of order ≤ k for a rooted instance, or None."""
    if not instance.rooted:
        raise ForestError("solve_rmaf needs a rooted instance")
    rho = instance.forests[0].labels.id_of(RHO)
    for f in instance.forests:
        if rho not in f.label_ids():
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


def find_min_k(instance: Instance, k_lo: int = 1, k_hi: int | None = None) -> MinKResult:
    """Smallest parameter admitting a solution, found by linear ascent.

    Feasibility is monotone in k and the search cost grows exponentially with
    it, so walking k upward from the lower bound keeps the cheap attempts
    cheap.  ``k_hi`` defaults to the label count, which always admits the
    all-singletons forest; ``NoSolutionError`` reports that no order up to
    ``k_hi`` is feasible.
    """
    solve = solve_rmaf if instance.rooted else solve_umaf
    if k_hi is None:
        k_hi = instance.n_labels
    attempts = []
    for k in range(max(1, k_lo), k_hi + 1):
        forest, stats = solve(instance, k)
        attempts.append(stats)
        if forest is not None:
            return MinKResult(
                order=forest.order(),
                af=certify(forest, instance),
                stats=stats,
                attempts=tuple(attempts),
            )
    raise NoSolutionError(f"no agreement forest of order <= {k_hi}")
