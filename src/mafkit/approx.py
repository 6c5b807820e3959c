"""Polynomial-time approximation with a certified per-step ratio.

The driver walks the input forests left to right and edits the working forest
and the current partner with a sequence of meta-steps until they agree.  Each
meta-step removes a bundled edge set and carries a proven ratio: reduction
and grouping are free (ratio 1), cutting the two chosen labels is ratio 2,
and the steps that also cut surplus edges are ratio 3 rooted / ratio 4
unrooted.  The maximum ratio over the run bounds the output order against the
optimum, so the whole algorithm is a 3-approximation on rooted instances and
a 4-approximation on unrooted ones.

The case analysis is ``Forest.sibling_case``, shared with the exact search:
a meta-step cuts the pendant edges of the case's pair plus the first edge of
each of its ``cuts``, except that an unrooted path step takes the two
smallest edges off the whole path interior.  Each round reduces the pair,
stops if it is equal, groups while the case is a common sibling set, and
cuts.  By the pair lemmas in ``reduction`` a grouping leaves the pair reduced
and unequal, and a reduced unequal pair has a sibling set in the partner.

Every step is recorded with the removed edges, the working-forest subset, and
an essential subset (a removal set of the same effect in which every edge
genuinely splits a component); ``check_metastep_ratio`` re-audits a record's
bookkeeping after the fact.

The trace also bounds the optimum from below (``ApproxResult.lower_bound``).
For a pair (F1, F2) let d(F1, F2) be the number of further cuts of F1 that
a maximum agreement forest of the pair needs: its order minus F1's.  The
audited ratio rests on a per-step lemma: a ratio-r step that removes s
essential edges lowers d by at least s/r; a reduction removal lowers it by
exactly one per edge, and a grouping or a partner-side removal does not raise
it.  d is an integer, so every step with a non-empty essential set lowers it
by at least one.  The steps of partner 1 start from (T1, T2), where d is the
optimum of that pair minus 1, and d never falls below 0.  So the optimum of
(T1, T2) is at least 1 plus the number of those steps, and the instance's
optimum, whose agreement forests are agreement forests of (T1, T2), is at
least that too.  Later partners start from a working forest that is not an
agreement forest of optimal order, so their steps are not counted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forest import Forest, Instance, MafError, find_root
from .reduction import reduce_pair

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
    """Bookkeeping for one meta-step application."""

    kind: str
    partner_index: int
    removed_f1: tuple[int, ...]
    removed_partner: tuple[int, ...]
    essential: tuple[int, ...]
    declared_ratio: int
    f1_before: Forest
    f1_after: Forest


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
        set if larger (see the module docstring).
        """
        ratio = 3 if self.forest.rooted else 4
        steps = sum(1 for rec in self.trace if rec.partner_index == 1 and rec.essential)
        return max(-(-self.order // ratio), 1 + steps)

    def step_counts(self) -> dict[str, int]:
        counts = {RULE1: 0, GROUP: 0, MS2: 0, MS31: 0, MS32: 0}
        for rec in self.trace:
            counts[rec.kind] += 1
        return counts


def essential_subset(forest: Forest, eids) -> tuple[int, ...]:
    """Greedy essential subset: drop edges that do not change the removal.

    Scanning in id order, an edge is dropped whenever removing the remaining
    set still produces the same forest.  At the end every survivor genuinely
    splits a component, so the result is an essential edge set realizing the
    original removal.

    Putting one removed edge back either joins two labeled components, which
    lowers the order by one, or re-attaches an unlabeled piece that
    contraction deletes again, which leaves the forest unchanged.  So one
    union-find pass decides every trial: join every edge that is not
    removed, then walk the removed ids in order, keeping an edge whose two
    ends lie in labeled components and joining the ends of any other, as
    putting it back does.
    """
    removed = sorted(set(eids))
    if not removed:
        return ()
    parent = forest.joined_without(removed)
    labeled = {find_root(parent, forest.vertex_of_label(lid)) for lid in forest.label_ids()}
    keep = []
    for eid in removed:
        u, v = forest.edge_ends(eid)
        ru, rv = find_root(parent, u), find_root(parent, v)
        if ru in labeled and rv in labeled:
            keep.append(eid)
        else:
            parent[rv] = ru
            if rv in labeled:
                labeled.add(ru)
    return tuple(keep)


def check_metastep_ratio(rec: MetaStepRecord) -> bool:
    """Re-audit one record's identities; False on any violation.

    A reduction step keeps every edge it removes as essential, a grouping
    has none, and a cut step removes at most as many essential edges
    as its ratio; a record of any other kind fails.
    """
    before = rec.f1_before
    try:
        ess, removed = set(rec.essential), set(rec.removed_f1)
        if not ess <= removed:
            return False
        # an empty removal gives ``before`` back, and an essential set equal
        # to the whole removal names the same derivation, so neither is made
        # again; the identities below are checked all the same
        after_full = before.remove_edges(rec.removed_f1) if removed else before
        after_ess = after_full if ess == removed else before.remove_edges(rec.essential)
        if not after_full.same_structure(after_ess):
            return False
        if after_full.order() != before.order() + len(rec.essential):
            return False
        if len(rec.essential) != rec.f1_after.order() - before.order():
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


def _record(kind, idx, f1_before, f1_after, removed_f1, removed_partner) -> MetaStepRecord:
    ess = essential_subset(f1_before, removed_f1)
    rec = MetaStepRecord(
        kind=kind,
        partner_index=idx,
        removed_f1=tuple(sorted(removed_f1)),
        removed_partner=tuple(sorted(removed_partner)),
        essential=ess,
        declared_ratio=declared_ratio(kind, f1_before.rooted),
        f1_before=f1_before,
        f1_after=f1_after,
    )
    if not check_metastep_ratio(rec):
        raise MafError(f"meta-step {kind} failed its own ratio audit")
    return rec


def _approximate(instance: Instance) -> ApproxResult:
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
            _, fi, removals = reduce_pair(f1, fi)
            # replay the working-forest removals: each record keeps its own
            # before and after forests
            for rem in removals:
                if rem.q_index == 0:
                    nf1 = f1.remove_edges([rem.edge])
                    trace.append(_record(RULE1, idx, f1, nf1, (rem.edge,), ()))
                    f1 = nf1
                else:
                    trace.append(_record(RULE1, idx, f1, f1, (), (rem.edge,)))
            if f1.same_structure(fi):
                break
            # a grouping leaves the pair reduced and unequal (see
            # ``reduction``), so it goes straight back to the case analysis
            while (mss := fi.find_mss()) is not None:
                case = f1.sibling_case(mss)
                if case.kind != "mss":
                    break
                nf1, nfi = f1.group_labels(mss), fi.group_labels(mss)
                trace.append(_record(GROUP, idx, f1, nf1, (), ()))
                f1, fi = nf1, nfi
            if mss is None:  # impossible by the lemmas in ``reduction``
                raise MafError("unequal reduced pair with no sibling set")

            a, b = case.pair
            if case.kind == "path" and not f1.rooted:
                extra = f1.offpath_edges(case.path)[:2]
            else:
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
