"""Brute-force exact optimum for small instances.

Every agreement forest of an instance is obtainable from the first forest by
deleting some edge subset, so enumerating all subsets of the first forest's
edges is a complete (if exponential) search.  This is the ground truth that
the solver and approximation test suites compare against; it is a test
fixture, not a solver, and refuses inputs beyond a small edge budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .forest import AgreementForest, Instance, MafError, certify, is_subforest


class OracleSizeError(MafError):
    """Instance exceeds the brute-force edge budget."""


@dataclass(frozen=True)
class OracleResult:
    opt_order: int
    witness: AgreementForest
    subsets_examined: int


def brute_force_maf(instance: Instance, max_edges: int = 18) -> OracleResult:
    """Exact minimum order over all edge subsets of the first forest.

    Enumeration goes by subset size then lexicographically, skipping any
    candidate whose component count cannot beat the best found so far.  Two
    conservative cutoffs keep it fast without giving up exhaustiveness:
    removing t edges always leaves at least ``order + ceil(t/2)`` components
    (every vanished unlabeled chunk eats at least two removed edges), and no
    removal can ever go below the starting component count.
    """
    f1 = instance.forests[0]
    eids = sorted(f1.edge_ids())
    if len(eids) > max_edges:
        raise OracleSizeError(
            f"forest has {len(eids)} edges, oracle budget is {max_edges}"
        )
    others = instance.forests[1:]
    base = f1.order()

    best_order = None
    best_forest = None
    examined = 0
    done = False
    for t in range(len(eids) + 1):
        if best_order is not None and base + (t - t // 2) >= best_order:
            break
        for combo in itertools.combinations(eids, t):
            examined += 1
            removed = frozenset(combo)
            ob = f1.order_without(removed)
            if best_order is not None and ob >= best_order:
                continue
            cand = f1.remove_edges(removed)
            if cand.order() != ob:
                raise MafError("component count fast path disagrees with removal")
            if all(is_subforest(cand, g) for g in others):
                best_order, best_forest = ob, cand
                if best_order == base:
                    done = True
                    break
        if done:
            break
    witness = certify(best_forest, instance)
    return OracleResult(best_order, witness, examined)
