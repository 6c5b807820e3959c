"""A ground truth that shares no code with the solvers it checks.

It reads the generator's Newick text with its own reader, into nested
tuples whose leaves are name strings; ρ is a leaf like any other.  A
partition of the labels into blocks is an agreement forest of a list of
forests when, in every forest, each block lies in one tree, the blocks'
Steiner vertex sets are disjoint, and each block restricts the forest to the
tree it restricts the first forest to.  A vertex is in a block's Steiner set
when it is a leaf of the block, or when two or more of its branches hold
labels of the block.  A restriction is known by its split system: unrooted,
the two sides within the block of every edge; rooted, the block's labels
below every vertex, the cluster system, which fixes a rooted tree as splits
fix an unrooted one.  ρ is written as a leaf of the top of its tree and
stands for the root above that top, so it belongs to no cluster.  The
optimum is the least number of blocks of such a partition, found by trying
every set partition of the labels, fewer blocks first.

For two rooted binary trees there is a second measure: by Bordewich and
Semple (2005), the optimum minus one is their rSPR distance, the fewest
subtree prune-and-regraft moves that turn one into the other, which a
breadth-first search over such moves finds.  For two unrooted binary trees,
by Allen and Steel (2001), it is their TBR distance, the fewest tree
bisection and reconnection moves, found the same way.
"""

import random

import mafkit as mk

RHO = "ρ"


def read_forest(text):
    """Each ';'-terminated line of Newick text as a nested tuple."""
    trees = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        stack, name = [[]], ""
        for ch in line.strip():
            if ch not in "(,);":
                name += ch
                continue
            if name:
                stack[-1].append(name)
                name = ""
            if ch == "(":
                stack.append([])
            elif ch == ")":
                node = tuple(stack.pop())
                stack[-1].append(node)
        (tree,) = stack[0]
        trees.append(tree)
    return trees


def shape(trees):
    """The label set of each tree; each vertex as (leaf name or None, the
    label sets of its branches); the labels below each vertex."""
    wholes, vertices, sides = [], [], []
    for tree in trees:
        seen = []

        def down(node):
            kids = [] if isinstance(node, str) else [down(child) for child in node]
            labels = frozenset([node]) if isinstance(node, str) else frozenset().union(*kids)
            seen.append((node if isinstance(node, str) else None, kids, labels))
            return labels

        whole = down(tree)
        wholes.append(whole)
        vertices += [(name, kids + [whole - labels] * (labels != whole))
                     for name, kids, labels in seen]
        sides += [labels for _, _, labels in seen]
    return wholes, vertices, sides


def restriction(sides, block, rooted):
    if rooted:
        return {(side - {RHO}) & block for side in sides} - {frozenset()}
    return {frozenset((side & block, block - side)) for side in sides
            if side & block and block - side}


def agrees(blocks, shapes, rooted):
    """True iff ``blocks`` is an agreement forest of the shaped forests."""
    first = shapes[0][2]
    for wholes, vertices, sides in shapes:
        if not all(any(block <= whole for whole in wholes) for block in blocks):
            return False
        for name, branches in vertices:
            if sum(name in block or sum(1 for b in branches if b & block) >= 2
                   for block in blocks) > 1:
                return False
        if any(restriction(sides, block, rooted) != restriction(first, block, rooted)
               for block in blocks):
            return False
    return True


def set_partitions(labels):
    if not labels:
        yield []
        return
    for rest in set_partitions(labels[1:]):
        yield [frozenset([labels[0]]), *rest]
        for i, block in enumerate(rest):
            yield [*rest[:i], block | {labels[0]}, *rest[i + 1:]]


def optimum(texts, rooted):
    shapes = [shape(read_forest(text)) for text in texts]
    labels = sorted(set().union(*shapes[0][0]))
    assert len(labels) <= 7
    fewest_first = sorted(set_partitions(labels), key=len)
    return next(len(p) for p in fewest_first if agrees(p, shapes, rooted))


def test_optimum_matches_oracle_and_solver():
    seen, rng = {}, random.Random(2024)
    for seed in range(120):
        rooted, m = seed % 2 == 0, 2 + seed % 3
        spec = mk.GenSpec(n=rng.randint(4, 6 if rooted else 7), m=m,
                          x=rng.randint(1, 3), seed=seed, rooted=rooted)
        instance = mk.generate_instance(spec)
        texts = mk.format_instance(instance).splitlines()
        want = optimum(texts, rooted)
        assert mk.brute_force_maf(instance).opt_order == want, spec
        assert mk.find_min_k(instance).order == want, spec
        seen[rooted, m, want] = seen.get((rooted, m, want), 0) + 1
    assert {opt for _, _, opt in seen} >= {1, 2, 3, 4}
    assert len({(rooted, m) for rooted, m, _ in seen}) == 6


def test_subforest_verdict_matches_is_subforest():
    outcomes, rng = {True: 0, False: 0}, random.Random(7)
    for seed in range(150):
        rooted = seed % 2 == 0
        spec = mk.GenSpec(n=rng.randint(4, 6 if rooted else 7), m=2, x=rng.randint(1, 2),
                          seed=seed, rooted=rooted)
        t1, t2 = mk.generate_instance(spec).forests
        sub = t1.remove_edges(rng.sample(sorted(t1.edge_ids()), rng.randint(0, 4)))
        sup = rng.choice([t1, t2, t2.remove_edges(rng.sample(sorted(t2.edge_ids()), 1))])
        shapes = [shape(read_forest(mk.serialize(f))) for f in (sub, sup)]
        want = agrees(shapes[0][0], shapes, rooted)
        assert mk.is_subforest(sub, sup) == want
        outcomes[want] += 1
    assert min(outcomes.values()) > 30


def rooted_binary(text):
    """A rooted binary tree's line as nested pairs without ρ, which the
    writer puts beside the top's two branches; every pair is in a fixed
    order, so equal trees are equal tuples."""
    (top,) = read_forest(text)
    branches = tuple(x for x in top if x != RHO)
    assert len(top) == 3 and len(branches) == 2
    return canon(branches)


def canon(node):
    return node if isinstance(node, str) else tuple(sorted(map(canon, node), key=str))


def prunings(node):
    """Each subtree below ``node``'s top, with what is left once it is cut
    away and its parent suppressed."""
    if isinstance(node, str):
        return
    a, b = node
    yield a, b
    yield b, a
    for sub, rest in prunings(a):
        yield sub, (rest, b)
    for sub, rest in prunings(b):
        yield sub, (a, rest)


def graftings(node, sub):
    """``sub`` joined to each edge of ``node``, the edge above its top too."""
    yield node, sub
    if not isinstance(node, str):
        a, b = node
        for t in graftings(a, sub):
            yield t, b
        for t in graftings(b, sub):
            yield a, t


def spr_neighbors(tree):
    return {canon(t) for sub, rest in prunings(tree) for t in graftings(rest, sub)}


def move_distance(t1, t2, neighbors):
    """Fewest moves from ``t1`` to ``t2``, where ``neighbors(t)`` is every
    tree one move from ``t``, by a breadth-first search from both ends that
    grows the smaller frontier a whole level at a time.  The first level
    that meets the other side holds a shortest path's middle, so the least
    sum of distances met over that level is the answer."""
    if t1 == t2:
        return 0
    dist, frontier = ({t1: 0}, {t2: 0}), [[t1], [t2]]
    while True:
        side = int(len(frontier[0]) > len(frontier[1]))
        mine, theirs = dist[side], dist[1 - side]
        met, grown = [], []
        for t in frontier[side]:
            for u in neighbors(t):
                if u in theirs:
                    met.append(mine[t] + 1 + theirs[u])
                if u not in mine:
                    mine[u] = mine[t] + 1
                    grown.append(u)
        if met:
            return min(met)
        frontier[side] = grown


def test_rspr_distance_is_order_minus_one():
    instances = [mk.generate_instance(mk.GenSpec(n=4 + seed % 3, m=2, x=1 + seed % 3, seed=seed,
                                                 contract_count=0))
                 for seed in range(64)]
    # independent trees lie further apart than the generator's moved copies
    instances += [mk.Instance(rooted=True, forests=(mk.random_binary_tree(n, seed),
                                                    mk.random_binary_tree(n, 1000 + seed)))
                  for seed in range(64) for n in [4 + seed % 3]]
    seen = set()
    for instance in instances:
        t1, t2 = (rooted_binary(mk.serialize(f)) for f in instance.forests)
        want = move_distance(t1, t2, spr_neighbors)
        assert mk.find_min_k(instance).order - 1 == want, instance.name
        seen.add(want)
    assert seen == {0, 1, 2, 3}


def unrooted_splits(text):
    """An unrooted tree's line as its split system: each edge as the side,
    a bit mask over the sorted labels, that does not hold the first label;
    and the mask of all labels."""
    (whole,), _, sides = shape(read_forest(text))
    bit = {name: 1 << i for i, name in enumerate(sorted(whole))}
    full = (1 << len(bit)) - 1
    masks = {sum(bit[name] for name in side) for side in sides}
    return frozenset(m ^ full if m & 1 else m for m in masks if m != full), full


def restricted_splits(splits, part):
    """The split system of T|part: each edge as the side that does not hold
    the lowest label of ``part``."""
    low = part & -part
    return {x ^ part if x & low else x
            for x in (s & part for s in splits) if x and x != part}


def tbr_neighbors(tree):
    """Every tree one TBR move from a binary tree: cut an edge A|B, and join
    the middle of an edge of T|A, or its one leaf, to the middle of an edge
    of T|B, or its one leaf, by a new edge.  The edge that holds a joined
    point becomes two; every other edge S of T|A keeps its far side and
    gains B on the side nearer the point, the side that holds one side of
    the point's edge and more."""
    splits, full = tree

    def reconnected(edges, part, point):
        for s in edges:
            if s == point:
                yield from (s, part ^ s)
                continue
            near = next(side for side in (s, part ^ s)
                        if any(p & side == p != side for p in (point, part ^ point)))
            yield part ^ near

    trees = set()
    for cut in splits:
        a, b = cut, full ^ cut
        edges_a, edges_b = restricted_splits(splits, a), restricted_splits(splits, b)
        for pa in edges_a or [None]:
            for pb in edges_b or [None]:
                moved = [cut, *reconnected(edges_a, a, pa), *reconnected(edges_b, b, pb)]
                trees.add((frozenset(m ^ full if m & 1 else m for m in moved), full))
    return trees


def test_tbr_distance_is_order_minus_one():
    def unrooted(n, x, seed):
        return mk.generate_instance(mk.GenSpec(n=n, m=2, x=x, seed=seed, rooted=False,
                                               contract_count=0))

    instances = [unrooted(4 + seed % 4, 1 + seed % 3, seed) for seed in range(60)]
    # independent trees lie further apart than the generator's moved copies
    instances += [mk.Instance(rooted=False, forests=(unrooted(n, 0, seed).forests[0],
                                                     unrooted(n, 0, 1000 + seed).forests[0]))
                  for seed in range(60) for n in [4 + seed % 4]]
    seen = set()
    for instance in instances:
        t1, t2 = (unrooted_splits(mk.serialize(f)) for f in instance.forests)
        # binary: 2n - 3 edges over n labels
        assert len(t1[0]) == len(t2[0]) == 2 * t1[1].bit_length() - 3
        want = move_distance(t1, t2, tbr_neighbors)
        assert mk.find_min_k(instance).order - 1 == want, instance.name
        seen.add(want)
    assert seen == {0, 1, 2, 3}
