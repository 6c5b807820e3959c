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
from dataclasses import dataclass

from .forest import Forest, Instance, LabelUniverseError


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


def find_applicable(fp: Forest, fq: Forest):
    """First edge of ``fq`` (by id) removable with ``fp`` as witness, or None.

    Returns ``(edge_id, witness_component_label_sets)``.  A side qualifies
    when every one of its labels lies in an ``fp`` component whose label set
    is fully contained in that side.

    Only the edges that ``fq.zero_sum_edges`` flags under the weights of
    ``fp``'s components are split and checked, in id order, side1 before
    side2.  Every qualifying side sums to exactly 0, so no qualifying edge
    goes unflagged; a side that sums to 0 by chance fails the exact
    ``covered`` check, so it cannot change the answer.
    """
    comp_labels = fp.label_partition()

    def covered(side):
        comps = set()
        for lid in side:
            c = fp.component_index_of_label(lid)
            if not comp_labels[c] <= side:
                return None
            comps.add(c)
        return tuple(comp_labels[c] for c in sorted(comps))

    # the weights depend only on fp's partition, so fp keeps them
    if fp._weights is None:
        fp._weights = _label_weights(comp_labels)
    for eid in fq.zero_sum_edges(fp._weights):
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
