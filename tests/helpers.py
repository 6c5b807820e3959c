"""Shared test utilities: brute-force references and random generators.

The enumeration helpers here are intentionally dumb.  They define the ground
truth that the fast implementations are checked against, so they must stay
independent of the code paths they validate.
"""

import itertools

import mafkit as mk


def all_removal_keys(forest, cap=12):
    """Canonical keys of every forest reachable by deleting an edge subset."""
    eids = sorted(forest.edge_ids())
    assert len(eids) <= cap, "brute enumeration is for tiny forests only"
    keys = set()
    for r in range(len(eids) + 1):
        for combo in itertools.combinations(eids, r):
            keys.add(forest.remove_edges(combo).canonical_key())
    return keys


def brute_is_subforest(sub, sup):
    s = sub.expand_labels() if sub.has_grouped_labels() else sub
    return s.canonical_key() in all_removal_keys(sup)


def greedy_essential_by_key(forest, eids):
    """Essential subset by the canonical-key greedy: build every trial forest.

    Reference for ``essential_subset``, which compares orders instead.
    """
    keep = sorted(eids)
    target = forest.remove_edges(keep).canonical_key()
    for e in sorted(eids):
        trial = [x for x in keep if x != e]
        if forest.remove_edges(trial).canonical_key() == target:
            keep = trial
    return tuple(keep)


def random_instance(rng, rooted, n=None, m=None, x=None):
    n = n if n is not None else rng.randint(4, 7)
    m = m if m is not None else rng.randint(2, 3)
    x = x if x is not None else rng.randint(0, 2)
    spec = mk.GenSpec(n=n, m=m, x=x, seed=rng.randrange(10**9), rooted=rooted)
    return mk.generate_instance(spec)


def random_tree(rng, n, rooted):
    return random_instance(rng, rooted, n=n, m=2, x=0).forests[0]


def random_forest(rng, n, rooted, max_cuts=3):
    """Random irreducible forest obtained by cutting a random tree."""
    f = random_tree(rng, n, rooted)
    eids = sorted(f.edge_ids())
    k = rng.randint(0, min(max_cuts, len(eids)))
    return f.remove_edges(rng.sample(eids, k))


def approximate(instance):
    return mk.approx_rmaf(instance) if instance.rooted else mk.approx_umaf(instance)


def names(forest, lids):
    return sorted(forest.labels.name(l) for l in lids)
