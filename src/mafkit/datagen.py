"""Simulated instances: random binary tree, random multifurcation, SPR copies.

Generation is a three-stage pipeline.  A rooted binary tree over taxa 1..n is
grown by recursively cutting a shuffled label list at a uniform position, and
the root leaf ρ is attached on top.  A random selection of internal edges is
then contracted to introduce multifurcations.  Finally each additional tree
of the instance is produced by applying a known number of subtree
prune-and-regraft moves to the original, which caps the optimum order of the
instance at x·(m−1)+1.

Everything is driven by ``random.Random`` so equal seeds give byte-identical
instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .forest import RHO, Forest, Instance, LabelTable, MafError, find_root


class GenerationError(MafError):
    """Generator got parameters it cannot satisfy."""


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated instance.

    ``contract_count`` of None means "pick uniformly from [0, internal/2]";
    0 keeps the tree binary.  Rooted generation implies that the instance has
    an agreement forest of order at most x·(m−1)+1.
    """

    n: int
    m: int
    x: int
    seed: int
    rooted: bool = True
    contract_count: int | None = None

    def __post_init__(self):
        if self.n < 3:
            raise GenerationError("need at least 3 taxa")
        if self.m < 2:
            raise GenerationError("an instance has at least 2 trees")
        if self.x < 0:
            raise GenerationError("SPR count cannot be negative")

    def order_bound(self) -> int:
        return self.x * (self.m - 1) + 1

    def header(self) -> str:
        parts = [f"spec n={self.n} m={self.m} x={self.x} seed={self.seed}"]
        if self.contract_count is not None:
            parts.append(f"contract={self.contract_count}")
        parts.append("rooted" if self.rooted else "unrooted")
        return " ".join(parts)


def _as_rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def taxa_table(n: int) -> LabelTable:
    """Label table matching what parsing the serialized instance would build."""
    return LabelTable.from_names(sorted(str(i) for i in range(1, n + 1)) + [RHO])


def random_binary_tree(n: int, seed) -> Forest:
    """Random rooted binary tree over taxa 1..n with ρ attached above."""
    if n < 2:
        raise GenerationError("need at least 2 taxa for a binary tree")
    rng = _as_rng(seed)
    table = taxa_table(n)
    items = list(range(1, n + 1))
    rng.shuffle(items)

    counter = [0]
    leaf_labels = {}
    edges = []

    def fresh():
        counter[0] += 1
        return counter[0] - 1

    def build(seg):
        v = fresh()
        if len(seg) == 1:
            leaf_labels[v] = table.id_of(str(seg[0]))
            return v
        cut = rng.randrange(1, len(seg))
        for part in (seg[:cut], seg[cut:]):
            w = build(part)
            edges.append((v, w))
        return v

    top = build(items)
    rho = fresh()
    leaf_labels[rho] = table.id_of(RHO)
    edges.append((rho, top))
    return Forest.build(True, table, leaf_labels, edges)


def internal_edges(f: Forest) -> list[int]:
    """Edges whose two endpoints are both unlabeled."""
    out = []
    for eid in sorted(f.edge_ids()):
        u, v = f.edge_ends(eid)
        if f.label_of(u) is None and f.label_of(v) is None:
            out.append(eid)
    return out


def contract_random_edges(f: Forest, count: int, seed) -> Forest:
    """Contract ``count`` uniformly chosen internal edges into multifurcations."""
    rng = _as_rng(seed)
    pool = internal_edges(f)
    if count > len(pool):
        raise GenerationError(
            f"asked to contract {count} edges, only {len(pool)} are internal"
        )
    if count == 0:
        return f
    chosen = set(rng.sample(pool, count))

    parent = {v: v for v in f.vertices()}
    for eid in chosen:
        u, v = f.edge_ends(eid)
        parent[find_root(parent, v)] = find_root(parent, u)
    leaf_labels = {find_root(parent, f.vertex_of_label(l)): l for l in f.label_ids()}
    edges = []
    for eid in sorted(f.edge_ids()):
        if eid in chosen:
            continue
        u, v = f.edge_ends(eid)
        edges.append((find_root(parent, u), find_root(parent, v)))
    return Forest.build(f.rooted, f.labels, leaf_labels, edges)


def _descendants(f: Forest, v) -> set[int]:
    out = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        pe = f.parent_edge(x)
        for e, w in f.neighbors(x):
            if e != pe and w not in out:
                out.add(w)
                stack.append(w)
    return out


def _one_spr(f: Forest, rng: random.Random) -> Forest:
    rho_edge = f.pendant_edge(f.labels.id_of(RHO))
    prunable = sorted(e for e in f.edge_ids() if e != rho_edge)
    if not prunable:
        raise GenerationError("tree too small for any SPR move")
    for _ in range(64):
        prune = prunable[rng.randrange(len(prunable))]
        _, below = f.edge_ends(prune)
        sub = _descendants(f, below)
        targets = sorted(
            e
            for e in f.edge_ids()
            if e not in (prune, rho_edge)
            and f.edge_ends(e)[0] not in sub
            and f.edge_ends(e)[1] not in sub
        )
        if not targets:
            continue
        target = targets[rng.randrange(len(targets))]
        w = max(f.vertices()) + 1
        edges = []
        for eid in sorted(f.edge_ids()):
            if eid == prune:
                continue
            if eid == target:
                tp, tc = f.edge_ends(eid)
                edges.append((tp, w))
                edges.append((w, tc))
            else:
                edges.append(f.edge_ends(eid))
        edges.append((w, below))
        leaf_labels = {f.vertex_of_label(l): l for l in f.label_ids()}
        return Forest.build(True, f.labels, leaf_labels, edges)
    raise GenerationError("tree too small for any SPR move")


def apply_random_spr(f: Forest, x: int, seed) -> Forest:
    """Apply x rooted prune-and-regraft moves, contracting after each.

    The pruned edge is never ρ's pendant edge and the regraft edge must lie
    outside the pruned subtree (and also not be ρ's pendant edge); draws that
    admit no target are rejected and redrawn.
    """
    rng = _as_rng(seed)
    for _ in range(x):
        f = _one_spr(f, rng)
    return f


def _unroot(f: Forest) -> Forest:
    rho_lid = f.labels.id_of(RHO)
    rho_v = f.vertex_of_label(rho_lid)
    table = LabelTable.from_names(
        [f.labels.name(l) for l in range(len(f.labels)) if l != rho_lid]
    )
    leaf_labels = {
        f.vertex_of_label(l): table.id_of(f.labels.name(l))
        for l in f.label_ids()
        if l != rho_lid
    }
    edges = [
        f.edge_ends(e)
        for e in sorted(f.edge_ids())
        if rho_v not in f.edge_ends(e)
    ]
    return Forest.build(False, table, leaf_labels, edges)


def generate_instance(spec: GenSpec) -> Instance:
    """Run all three stages; unrooted mode strips ρ and forgets orientation."""
    rng = random.Random(spec.seed)
    tree = random_binary_tree(spec.n, rng)
    pool = internal_edges(tree)
    count = (
        spec.contract_count
        if spec.contract_count is not None
        else rng.randint(0, len(pool) // 2)
    )
    t0 = contract_random_edges(tree, count, rng)
    trees = [t0]
    for _ in range(spec.m - 1):
        trees.append(apply_random_spr(t0, spec.x, rng))
    if not spec.rooted:
        trees = [_unroot(t) for t in trees]
    name = f"t{spec.n}-{spec.m}-x{spec.x}-s{spec.seed}"
    return Instance(rooted=spec.rooted, forests=tuple(trees), name=name)
