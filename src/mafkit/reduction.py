"""The instance-shrinking reduction rule.

An edge of one forest can be deleted outright when one side of its split is
exactly a union of whole components of another forest: no agreement forest
can keep such an edge, so removals preserve the full set of maximum agreement
forests.  Solvers drive forest pairs to the fixpoint ("strongly reducible")
before doing any case analysis or branching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .forest import Forest, Instance


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


def find_applicable(fp: Forest, fq: Forest):
    """First edge of ``fq`` (by id) removable with ``fp`` as witness, or None.

    Returns ``(edge_id, witness_component_label_sets)``.  A side qualifies
    when every one of its labels lies in an ``fp`` component whose label set
    is fully contained in that side.
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

    for eid in sorted(fq.edge_ids()):
        split = fq.split_labels(eid)
        for side in (split.side1, split.side2):
            wit = covered(side)
            if wit is not None:
                return eid, wit
    return None


def _fixpoint(forests):
    """Apply the rule over all ordered pairs (p, q) until none applies.

    Pairs are scanned in ``itertools.permutations`` order, edges in id order;
    the first hit is applied and the scan restarts.  The order is fixed
    because confluence is not assumed.
    """
    forests = list(forests)
    removals = []
    while True:
        for p, q in itertools.permutations(range(len(forests)), 2):
            found = find_applicable(forests[p], forests[q])
            if found is not None:
                break
        else:
            return forests, tuple(removals)
        eid, wit = found
        forests[q] = forests[q].remove_edges([eid])
        removals.append(Removal(q_index=q, edge=eid, p_index=p, witness=wit))


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
