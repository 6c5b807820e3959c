"""Shared test utilities: brute-force references and random generators.

The enumeration helpers here are intentionally dumb.  They define the ground
truth that the fast implementations are checked against, so they must stay
independent of the code paths they validate.
"""

import itertools
from collections import deque

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


def find_applicable_by_bfs(fp, fq):
    """Reference for ``find_applicable``: split and check every edge of ``fq``.

    One breadth-first split per edge, in id order, side1 before side2.
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


def mss_candidates_by_scan(forest):
    """Every maximal sibling set candidate, found by scanning every vertex.

    Reference for the sibling-set table behind ``Forest.find_mss``.  Rooted:
    an unlabeled vertex whose children are two or more leaves.  Unrooted: an
    unlabeled vertex with two or more leaf neighbors and at most one other
    neighbor (a full star also offers each one-leaf-short subset), plus the
    single-edge trees, whose hub is None.
    """
    cands = []
    for p in forest.vertices():
        if forest.label_of(p) is not None:
            continue
        nbrs = [(e, w) for e, w in forest.neighbors(p)]
        if forest.rooted:
            kids = [w for e, w in nbrs if e != forest.parent_edge(p)]
            if len(kids) >= 2 and all(forest.label_of(w) is not None for w in kids):
                cands.append(mk.SiblingSet(frozenset(forest.label_of(w) for w in kids), p))
            continue
        leaves = [forest.label_of(w) for _, w in nbrs if forest.label_of(w) is not None]
        extra = len(nbrs) - len(leaves)
        if len(leaves) >= 2 and extra <= 1:
            s = frozenset(leaves)
            cands.append(mk.SiblingSet(s, p))
            if not extra and len(s) >= 3:
                cands.extend(mk.SiblingSet(s - {lid}, p) for lid in s)
    if not forest.rooted:
        for comp in forest.components():
            if len(comp) == 2:
                cands.append(mk.SiblingSet(frozenset(forest.label_of(v) for v in comp), None))
    return cands


def find_mss_by_scan(forest):
    """Reference for ``Forest.find_mss``: the least candidate of a full scan."""
    cands = mss_candidates_by_scan(forest)
    if not cands:
        return None

    def key(ss):
        ids = sorted(ss.labels)
        return (min(forest.labels.min_original(l) for l in ids), len(ids), tuple(ids))

    return min(cands, key=key)


def steiner_by_pruning(sup, leaf_vertices):
    """Reference for the Steiner subtree of ``subforest_witness``.

    Copies the component holding ``leaf_vertices`` and prunes every leaf that
    is not a target until none is left; returns the vertex and edge sets.
    """
    targets = set(leaf_vertices)
    comp = sup.components()[sup.component_index_of_vertex(next(iter(targets)))]
    deg = {v: dict(sup.neighbors(v)) for v in comp}
    queue = deque(v for v in comp if len(deg[v]) <= 1 and v not in targets)
    alive = set(comp)
    while queue:
        v = queue.popleft()
        if v not in alive or v in targets or len(deg[v]) > 1:
            continue
        alive.discard(v)
        for e, w in deg[v].items():
            del deg[w][e]
            if len(deg[w]) <= 1 and w not in targets:
                queue.append(w)
        deg[v] = {}
    eset = set()
    for v in alive:
        eset.update(deg[v])
    return alive, eset


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
