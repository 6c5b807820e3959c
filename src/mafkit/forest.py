"""Rooted and unrooted X-forests: the value model shared by every solver.

A forest is a collection of trees whose leaves are bijectively labeled by a
fixed label set; internal vertices are unlabeled.  Rooted forests carry a
distinguished root leaf named "ρ" and keep an explicit parent orientation,
because ancestor/descendant constraints matter for which edges may be cut.
Unrooted forests store plain undirected adjacency.

All values are immutable: every operation returns a new ``Forest``.  Forests
are kept irreducible at all times -- unlabeled degree-2 vertices are spliced
out and unlabeled debris is dropped, with the one exception that a component
root may keep degree 2 (it stands for the least common ancestor of the
component's labels).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

RHO = "ρ"


class MafError(Exception):
    """Base class for errors raised by this package."""


class ForestError(MafError):
    """Structurally invalid forest or invalid operation argument."""


class LabelUniverseError(MafError):
    """Two forests that should share a label universe do not."""


# ---------------------------------------------------------------------------
# labels


@dataclass(frozen=True)
class Label:
    """One entry of an instance's label table.

    ``grouped`` lists the constituent label ids when this label was produced
    by a grouping step (the shrunken sibling set); it is empty for original
    taxon labels.
    """

    id: int
    name: str
    grouped: tuple[int, ...] = ()


class LabelTable:
    """Append-only label registry shared by the forests of one instance.

    Original taxon labels form a prefix; grouped labels are appended behind
    them as grouping steps happen.  Two forests can take part in a pairwise
    operation only while their tables agree, which the solvers maintain by
    applying grouping to both sides in lockstep.
    """

    __slots__ = ("_labels", "_by_name", "_orig_cache")

    def __init__(self, labels):
        self._labels = tuple(labels)
        self._by_name = {lab.name: lab.id for lab in self._labels}
        if len(self._by_name) != len(self._labels):
            raise ForestError("duplicate label name in table")
        self._orig_cache: dict[int, frozenset[int]] = {}

    @classmethod
    def from_names(cls, names) -> "LabelTable":
        return cls(Label(i, str(n)) for i, n in enumerate(names))

    def __len__(self):
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __getitem__(self, lid: int) -> Label:
        return self._labels[lid]

    def name(self, lid: int) -> str:
        return self._labels[lid].name

    def id_of(self, name: str) -> int:
        return self._by_name[name]

    def originals(self, lid: int) -> frozenset[int]:
        """Recursively expanded set of original label ids behind ``lid``."""
        got = self._orig_cache.get(lid)
        if got is None:
            lab = self._labels[lid]
            if not lab.grouped:
                got = frozenset((lid,))
            else:
                got = frozenset().union(*(self.originals(p) for p in lab.grouped))
            self._orig_cache[lid] = got
        return got

    def min_original(self, lid: int) -> int:
        return min(self.originals(lid))

    def n_original(self) -> int:
        n = 0
        for lab in self._labels:
            if lab.grouped:
                break
            n += 1
        return n

    def trimmed(self) -> "LabelTable":
        """Table restricted to the original (ungrouped) prefix."""
        n = self.n_original()
        if n == len(self._labels):
            return self
        return LabelTable(self._labels[:n])

    def with_group(self, part_ids) -> tuple["LabelTable", int]:
        """Extended table with a new grouped label over ``part_ids``."""
        parts = tuple(sorted(part_ids, key=lambda p: (self.min_original(p), p)))
        if len(parts) < 2:
            raise ForestError("grouped label needs at least two parts")
        new_id = len(self._labels)
        name = "+".join(self._labels[p].name for p in parts)
        if name in self._by_name:
            # regrouping the same parts later in another branch is fine; the
            # id must stay distinct, so disambiguate the cosmetic name
            name = f"{name}#{new_id}"
        return LabelTable(self._labels + (Label(new_id, name, parts),)), new_id

    def same_originals(self, other: "LabelTable") -> bool:
        n = self.n_original()
        if n != other.n_original():
            return False
        return all(self._labels[i].name == other._labels[i].name for i in range(n))


# ---------------------------------------------------------------------------
# small value types consumed by the branching rules


@dataclass(frozen=True)
class EdgeSplit:
    """Label sets of the two subtrees created by deleting one edge."""

    edge: int
    side1: frozenset[int]
    side2: frozenset[int]


@dataclass(frozen=True)
class SiblingSet:
    """A maximal sibling set: its labels and its hub vertex.

    ``hub`` is the common parent (rooted) or common neighbor (unrooted); it is
    absent for an unrooted single-edge tree.
    """

    labels: frozenset[int]
    hub: int | None


@dataclass(frozen=True)
class SiblingCase:
    """How a sibling set of one forest sits inside another forest.

    This is the case analysis both solvers share.  ``kind`` is one of:

    * ``"mss"``       -- the labels form a maximal sibling set here too
      (Case 1, group them);
    * ``"siblings"``  -- all labels are siblings but the hub has surplus
      edges, the E_V / V-edge set (Case 2);
    * ``"split"``     -- ``pair`` are not even in the same component
      (Case 3.1);
    * ``"path"``      -- ``pair`` share a component but are not siblings;
      ``path`` is the vertex path between them (Case 3.2).

    Every kind but ``"mss"`` names the two labels whose pendant edges are
    cut in ``pair`` (for ``"siblings"`` the two smallest by original label).
    ``cuts`` lists the further edge sets of this forest that the exact
    search branches on, one branch each:

    * rooted siblings: all surplus edges;
    * unrooted siblings: the first surplus edge, then the second;
    * rooted path: the edges off the path, sparing its least common ancestor;
    * unrooted path: the edges off ``path[1]``, then those off ``path[-2]``;
    * split: none.
    """

    kind: str
    pair: tuple[int, int] | None = None
    path: tuple[int, ...] = ()
    cuts: tuple[tuple[int, ...], ...] = ()


def find_root(parent, x):
    """Root of ``x`` in a union-find ``parent`` map, halving the path walked."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


# ---------------------------------------------------------------------------
# the forest value


class Forest:
    """An irreducible rooted or unrooted X-forest value.

    Vertices and edges carry stable small-integer ids within one value;
    derived values keep the ids of everything they retain.  Structural
    identity is by canonical form (see :meth:`canonical_key`), never by id.
    """

    __slots__ = (
        "rooted",
        "labels",
        "_vlabel",
        "_adj",
        "_edges",
        "_parent_edge",
        "_next_v",
        "_next_e",
        "_comps",
        "_comp_of_v",
        "_canon",
        "_label_vertex",
    )

    def __init__(self, rooted, labels, vlabel, adj, edges, parent_edge, next_v, next_e):
        self.rooted = rooted
        self.labels = labels
        self._vlabel = vlabel          # vertex -> label id
        self._adj = adj                # vertex -> {edge id: neighbor}
        self._edges = edges            # edge id -> (u, v); u is parent when rooted
        self._parent_edge = parent_edge  # rooted: child vertex -> edge id
        self._next_v = next_v
        self._next_e = next_e
        self._comps = None
        self._comp_of_v = None
        self._canon = None
        self._label_vertex = {lid: v for v, lid in vlabel.items()}

    # -- construction

    @classmethod
    def build(cls, rooted, labels, leaf_labels, edge_list, normalize=True) -> "Forest":
        """Assemble a forest from raw parts.

        ``leaf_labels`` maps vertex id -> label id, ``edge_list`` is an
        iterable of vertex pairs (parent first when rooted).  The result is
        normalized by forced contraction unless ``normalize`` is False, which
        exists so tests can build reducible inputs on purpose.
        """
        vlabel = dict(leaf_labels)
        adj: dict[int, dict[int, int]] = {v: {} for v in vlabel}
        edges: dict[int, tuple[int, int]] = {}
        parent_edge: dict[int, int] = {}
        for eid, (u, v) in enumerate(edge_list):
            if u == v:
                raise ForestError("self-loop edge")
            adj.setdefault(u, {})
            adj.setdefault(v, {})
            adj[u][eid] = v
            adj[v][eid] = u
            edges[eid] = (u, v)
            if rooted:
                if v in parent_edge:
                    raise ForestError(f"vertex {v} has two parents")
                parent_edge[v] = eid
        next_v = max(adj, default=-1) + 1
        next_e = len(edges)
        f = cls(rooted, labels, vlabel, adj, edges, parent_edge, next_v, next_e)
        if normalize:
            f._normalize(list(adj))
        f._check(strict=normalize)
        return f

    @classmethod
    def singletons(cls, rooted, labels, lids) -> "Forest":
        """Forest consisting of one isolated leaf per label in ``lids``."""
        leaf_labels = {v: lid for v, lid in enumerate(sorted(lids))}
        return cls.build(rooted, labels, leaf_labels, [])

    def _copy(self) -> "Forest":
        return Forest(
            self.rooted,
            self.labels,
            dict(self._vlabel),
            {v: dict(d) for v, d in self._adj.items()},
            dict(self._edges),
            dict(self._parent_edge),
            self._next_v,
            self._next_e,
        )

    # -- internal mutation, used only on fresh copies ----------------------

    def _add_vertex(self, lid=None) -> int:
        v = self._next_v
        self._next_v += 1
        self._adj[v] = {}
        if lid is not None:
            self._vlabel[v] = lid
            self._label_vertex[lid] = v
        return v

    def _drop_vertex(self, v):
        if self._adj[v]:
            raise ForestError("dropping vertex with incident edges")
        del self._adj[v]
        lid = self._vlabel.pop(v, None)
        if lid is not None:
            self._label_vertex.pop(lid, None)
        self._parent_edge.pop(v, None)

    def _add_edge(self, u, v) -> int:
        eid = self._next_e
        self._next_e += 1
        self._edges[eid] = (u, v)
        self._adj[u][eid] = v
        self._adj[v][eid] = u
        if self.rooted:
            if v in self._parent_edge:
                raise ForestError(f"vertex {v} has two parents")
            self._parent_edge[v] = eid
        return eid

    def _del_edge(self, eid):
        u, v = self._edges.pop(eid)
        del self._adj[u][eid]
        del self._adj[v][eid]
        if self.rooted and self._parent_edge.get(v) == eid:
            del self._parent_edge[v]

    def _normalize(self, dirty):
        """Forced contraction from the given seed vertices outward."""
        queue = deque(dirty)
        while queue:
            v = queue.popleft()
            if v not in self._adj or v in self._vlabel:
                continue
            deg = len(self._adj[v])
            pe = self._parent_edge.get(v) if self.rooted else None
            if pe is None:
                # unrooted vertex, or a rooted component root
                if deg == 0:
                    self._drop_vertex(v)
                elif deg == 1:
                    eid, w = next(iter(self._adj[v].items()))
                    self._del_edge(eid)
                    self._drop_vertex(v)
                    queue.append(w)
                elif deg == 2 and not self.rooted:
                    (e1, w1), (e2, w2) = sorted(self._adj[v].items())
                    self._del_edge(e1)
                    self._del_edge(e2)
                    self._drop_vertex(v)
                    self._add_edge(w1, w2)
                # rooted roots keep degree 2: they are retained LCAs
            else:
                if deg == 1:
                    parent = self._adj[v][pe]
                    self._del_edge(pe)
                    self._drop_vertex(v)
                    queue.append(parent)
                elif deg == 2:
                    parent = self._adj[v][pe]
                    ce, child = next((e, w) for e, w in self._adj[v].items() if e != pe)
                    self._del_edge(pe)
                    self._del_edge(ce)
                    self._drop_vertex(v)
                    self._add_edge(parent, child)

    def _check(self, strict=True):
        for v, d in self._adj.items():
            deg = len(d)
            if v in self._vlabel:
                if deg > 1:
                    raise ForestError(f"labeled vertex {v} has degree {deg}")
            elif not strict:
                continue
            elif self.rooted:
                if v in self._parent_edge:
                    if deg < 3:
                        raise ForestError(f"unlabeled non-root {v} has degree {deg}")
                elif deg < 2:
                    raise ForestError(f"unlabeled root {v} has degree {deg}")
            elif deg < 3:
                raise ForestError(f"unlabeled vertex {v} has degree {deg}")
        if len(self._label_vertex) != len(self._vlabel):
            raise ForestError("label appears on two vertices")

    # -- derived structure -------------------------------------------------

    def vertices(self):
        return self._adj.keys()

    def edge_ids(self):
        return self._edges.keys()

    def edge_ends(self, eid) -> tuple[int, int]:
        return self._edges[eid]

    def degree(self, v) -> int:
        return len(self._adj[v])

    def neighbors(self, v):
        return self._adj[v].items()

    def label_of(self, v):
        return self._vlabel.get(v)

    def vertex_of_label(self, lid) -> int:
        return self._label_vertex[lid]

    def label_ids(self) -> frozenset[int]:
        return frozenset(self._label_vertex)

    def original_label_ids(self) -> frozenset[int]:
        out: set[int] = set()
        for lid in self._label_vertex:
            out |= self.labels.originals(lid)
        return frozenset(out)

    def has_grouped_labels(self) -> bool:
        return any(self.labels[lid].grouped for lid in self._label_vertex)

    def parent_vertex(self, v):
        pe = self._parent_edge.get(v)
        return None if pe is None else self._adj[v][pe]

    def parent_edge(self, v):
        return self._parent_edge.get(v)

    def pendant_edge(self, lid) -> int:
        v = self._label_vertex[lid]
        d = self._adj[v]
        if len(d) != 1:
            raise ForestError(f"label {self.labels.name(lid)} is not a pendant leaf")
        return next(iter(d))

    def components(self) -> tuple[frozenset[int], ...]:
        if self._comps is None:
            seen = set()
            comps = []
            comp_of = {}
            for v0 in sorted(self._adj):
                if v0 in seen:
                    continue
                comp = {v0}
                queue = deque((v0,))
                while queue:
                    v = queue.popleft()
                    for w in self._adj[v].values():
                        if w not in comp:
                            comp.add(w)
                            queue.append(w)
                seen |= comp
                idx = len(comps)
                comps.append(frozenset(comp))
                for v in comp:
                    comp_of[v] = idx
            self._comps = tuple(comps)
            self._comp_of_v = comp_of
        return self._comps

    def order(self) -> int:
        """Number of connected components."""
        return len(self.components())

    def order_without(self, eids) -> int:
        """``remove_edges(eids).order()``, counted without building the forest.

        Contraction keeps exactly the components that hold a label, so the
        order is the number of union-find roots over labeled vertices once
        every other edge is joined.
        """
        removed = set(eids)
        if not removed <= self._edges.keys():
            raise ForestError(f"unknown edge ids {sorted(removed - self._edges.keys())}")
        parent = {v: v for v in self._adj}
        for eid, (u, v) in self._edges.items():
            if eid not in removed:
                parent[find_root(parent, v)] = find_root(parent, u)
        return len({find_root(parent, v) for v in self._label_vertex.values()})

    def component_index_of_vertex(self, v) -> int:
        self.components()
        return self._comp_of_v[v]

    def component_index_of_label(self, lid) -> int:
        return self.component_index_of_vertex(self._label_vertex[lid])

    def component_labels(self, idx) -> frozenset[int]:
        return frozenset(
            self._vlabel[v] for v in self.components()[idx] if v in self._vlabel
        )

    def component_root(self, idx) -> int:
        """Rooted: the unique parentless vertex of component ``idx``."""
        for v in self.components()[idx]:
            if v not in self._parent_edge:
                return v
        raise ForestError("component without root")

    def label_partition(self) -> tuple[frozenset[int], ...]:
        return tuple(self.component_labels(i) for i in range(self.order()))

    def tree_path(self, v1, v2):
        """Vertex path between v1 and v2, or None if in different components."""
        if v1 == v2:
            return [v1]
        prev = {v1: None}
        queue = deque((v1,))
        while queue:
            v = queue.popleft()
            for w in self._adj[v].values():
                if w not in prev:
                    prev[w] = v
                    if w == v2:
                        out = []
                        x = v2
                        while x is not None:
                            out.append(x)
                            x = prev[x]
                        out.reverse()
                        return out
                    queue.append(w)
        return None

    def edge_between(self, u, v):
        for eid, w in self._adj[u].items():
            if w == v:
                return eid
        raise ForestError(f"no edge between {u} and {v}")

    # -- core operations ------------------------------------------------------

    def force_contract(self) -> "Forest":
        """Fully contracted (irreducible) twin of this forest."""
        f = self._copy()
        f._normalize(list(f._adj))
        f._check()
        return f

    def remove_edges(self, eids) -> "Forest":
        """Forest with the given edges deleted, then contracted."""
        eids = list(eids)
        f = self._copy()
        dirty = []
        for eid in eids:
            if eid not in f._edges:
                raise ForestError(f"unknown edge id {eid}")
            u, v = f._edges[eid]
            f._del_edge(eid)
            dirty.extend((u, v))
        f._normalize(dirty)
        f._check()
        return f

    def split_labels(self, eid) -> EdgeSplit:
        """Label sets of the two subtrees obtained by deleting ``eid``."""
        if eid not in self._edges:
            raise ForestError(f"unknown edge id {eid}")
        u, v = self._edges[eid]
        side = {u}
        queue = deque((u,))
        while queue:
            x = queue.popleft()
            for e, w in self._adj[x].items():
                if e != eid and w not in side:
                    side.add(w)
                    queue.append(w)
        s1 = frozenset(self._vlabel[x] for x in side if x in self._vlabel)
        comp = self.components()[self.component_index_of_vertex(u)]
        s2 = frozenset(
            self._vlabel[x] for x in comp if x in self._vlabel and x not in side
        )
        return EdgeSplit(eid, s1, s2)

    def find_mss(self) -> SiblingSet | None:
        """Deterministically pick a maximal sibling set, if any exists.

        Rooted forests have no MSS iff they have at most one edge (which is
        then the ρ pendant edge); unrooted forests have none iff they are
        edgeless.  Among the candidates the one whose smallest contained
        original label id is least wins, ties broken by size then id tuple.
        """
        cands = []
        for p in self._adj:
            if p in self._vlabel:
                continue
            if self.rooted:
                pe = self._parent_edge.get(p)
                kids = [(e, w) for e, w in self._adj[p].items() if e != pe]
                if all(w in self._vlabel for _, w in kids):
                    s = frozenset(self._vlabel[w] for _, w in kids)
                    if len(s) >= 2:
                        cands.append(SiblingSet(s, p))
            else:
                leaf_edges = [(e, w) for e, w in self._adj[p].items() if w in self._vlabel]
                extra = [e for e, w in self._adj[p].items() if w not in self._vlabel]
                if len(leaf_edges) >= 2 and len(extra) <= 1:
                    s = frozenset(self._vlabel[w] for _, w in leaf_edges)
                    cands.append(SiblingSet(s, p))
                    if not extra and len(s) >= 3:
                        # a full star also admits every one-leaf-short subset
                        # (degree |S|+1), which the selection rule may prefer
                        for _, w_omit in leaf_edges:
                            sub = s - {self._vlabel[w_omit]}
                            cands.append(SiblingSet(sub, p))
        if not self.rooted:
            for idx, comp in enumerate(self.components()):
                if len(comp) == 2:
                    s = frozenset(self._vlabel[v] for v in comp)
                    cands.append(SiblingSet(s, None))
        if not cands:
            return None

        def key(ss):
            ids = sorted(ss.labels)
            return (min(self.labels.min_original(l) for l in ids), len(ids), tuple(ids))

        return min(cands, key=key)

    def _mss_hub(self, lids):
        """Validate that ``lids`` is an MSS here; return its hub (or None)."""
        s = frozenset(lids)
        if len(s) < 2:
            raise ForestError("sibling set needs at least two labels")
        verts = [self._label_vertex[l] for l in s]
        if self.rooted:
            hubs = {self.parent_vertex(v) for v in verts}
            if len(hubs) != 1 or None in hubs:
                raise ForestError("labels do not share a parent")
            (p,) = hubs
            pe = self._parent_edge.get(p)
            kids = [w for e, w in self._adj[p].items() if e != pe]
            if frozenset(self._vlabel.get(w, -1) for w in kids) != s:
                raise ForestError("labels are not a maximal sibling set")
            return p
        if len(s) == 2:
            v1, v2 = verts
            if self._adj[v1] and next(iter(self._adj[v1].values())) == v2:
                return None  # single-edge tree
        hubs = set()
        for v in verts:
            if len(self._adj[v]) != 1:
                raise ForestError("labels are not a maximal sibling set")
            hubs.add(next(iter(self._adj[v].values())))
        if len(hubs) != 1:
            raise ForestError("labels do not share a neighbor")
        (p,) = hubs
        if p in self._vlabel or len(self._adj[p]) - len(s) > 1:
            raise ForestError("labels are not a maximal sibling set")
        return p

    def group_labels(self, sibling_set) -> "Forest":
        """Shrink a maximal sibling set into one grouped leaf label.

        The hub keeps its vertex id and becomes the new leaf; for an unrooted
        single-edge tree the two leaves merge into one labeled vertex.  The
        label table is extended with the grouped label; the component count is
        unchanged.
        """
        lids = sibling_set.labels if isinstance(sibling_set, SiblingSet) else sibling_set
        lids = frozenset(lids)
        hub = self._mss_hub(lids)
        table, new_id = self.labels.with_group(lids)
        f = self._copy()
        f.labels = table
        if hub is None:
            v1, v2 = sorted(f._label_vertex[l] for l in lids)
            eid = next(iter(f._adj[v1]))
            f._del_edge(eid)
            for l in lids:
                del f._label_vertex[l]
            f._vlabel.pop(v2)
            f._drop_vertex(v2)
            f._vlabel[v1] = new_id
            f._label_vertex[new_id] = v1
        else:
            for l in lids:
                v = f._label_vertex.pop(l)
                eid = next(iter(f._adj[v]))
                f._del_edge(eid)
                del f._vlabel[v]
                f._drop_vertex(v)
            f._vlabel[hub] = new_id
            f._label_vertex[new_id] = hub
        f._check()
        return f

    def expand_labels(self) -> "Forest":
        """Recursively undo all groupings; leaves end up on original labels.

        The returned forest carries the original (trimmed) label table so that
        it can be paired against untouched forests of the same instance.
        """
        f = self._copy()
        while True:
            grouped = sorted(
                (v, lid) for v, lid in f._vlabel.items() if f.labels[lid].grouped
            )
            if not grouped:
                break
            for v, lid in grouped:
                parts = f.labels[lid].grouped
                del f._vlabel[v]
                del f._label_vertex[lid]
                if not f.rooted and not f._adj[v] and len(parts) == 2:
                    f._vlabel[v] = parts[0]
                    f._label_vertex[parts[0]] = v
                    w = f._add_vertex(parts[1])
                    f._add_edge(v, w)
                    continue
                for p in parts:
                    w = f._add_vertex(p)
                    f._add_edge(v, w)
        f.labels = f.labels.trimmed()
        f._comps = None
        f._canon = None
        f._check()
        return f

    # -- canonical structure -------------------------------------------------

    def _canon_down(self, v, in_edge):
        lid = self._vlabel.get(v, -1)
        kids = sorted(
            self._canon_down(w, e) for e, w in self._adj[v].items() if e != in_edge
        )
        return (lid, tuple(kids))

    def component_canonical(self, idx):
        comp = self.components()[idx]
        if self.rooted:
            return self._canon_down(self.component_root(idx), None)
        anchor = min(
            (v for v in comp if v in self._vlabel), key=lambda v: self._vlabel[v]
        )
        return self._canon_down(anchor, None)

    def canonical_key(self):
        """Order-independent structural fingerprint of the whole forest."""
        if self._canon is None:
            comps = tuple(
                sorted(self.component_canonical(i) for i in range(self.order()))
            )
            self._canon = (self.rooted, comps)
        return self._canon

    def same_structure(self, other: "Forest") -> bool:
        return self.canonical_key() == other.canonical_key()

    # -- sibling-set case analysis (how an MSS of one forest sits in another)

    def _are_siblings(self, v1, v2) -> bool:
        if self.rooted:
            p1, p2 = self.parent_vertex(v1), self.parent_vertex(v2)
            return p1 is not None and p1 == p2
        if len(self._adj[v1]) == 1 and next(iter(self._adj[v1].values())) == v2:
            return True
        n1 = next(iter(self._adj[v1].values())) if self._adj[v1] else None
        n2 = next(iter(self._adj[v2].values())) if self._adj[v2] else None
        return n1 is not None and n1 == n2 and n1 not in self._vlabel

    def sibling_case(self, lids) -> SiblingCase:
        """Classify how the label set ``lids`` (an MSS elsewhere) sits here."""
        order = sorted(lids, key=lambda l: (self.labels.min_original(l), l))
        verts = {l: self._label_vertex[l] for l in order}
        for v in verts.values():
            if not self._adj[v]:
                raise ForestError("sibling case undefined for singleton label")
        pair = None
        for a, b in itertools.combinations(order, 2):
            if not self._are_siblings(verts[a], verts[b]):
                pair = (a, b)
                break
        if pair is None:
            if not self.rooted and len(order) == 2:
                va, vb = verts[order[0]], verts[order[1]]
                if next(iter(self._adj[va].values())) == vb:
                    return SiblingCase("mss")
            hub = (
                self.parent_vertex(verts[order[0]])
                if self.rooted
                else next(iter(self._adj[verts[order[0]]].values()))
            )
            leaf_edges = {next(iter(self._adj[verts[l]])) for l in order}
            if self.rooted:
                pe = self._parent_edge.get(hub)
                extra = [e for e in self._adj[hub] if e != pe and e not in leaf_edges]
            else:
                extra = [e for e in self._adj[hub] if e not in leaf_edges]
            extra = tuple(sorted(extra))
            if (self.rooted and not extra) or (not self.rooted and len(extra) <= 1):
                return SiblingCase("mss")
            cuts = (extra,) if self.rooted else (extra[:1], extra[1:2])
            return SiblingCase("siblings", pair=(order[0], order[1]), cuts=cuts)
        a, b = pair
        path = self.tree_path(verts[a], verts[b])
        if path is None:
            return SiblingCase("split", pair=pair)
        if self.rooted:
            lca = self.rooted_lca(path[0], path[-1])
            cuts = (self.offpath_edges(path, exclude=lca),)
        else:
            cuts = (
                self.offpath_edges(path, at=path[1]),
                self.offpath_edges(path, at=path[-2]),
            )
        return SiblingCase("path", pair=pair, path=tuple(path), cuts=cuts)

    def rooted_lca(self, v1, v2):
        """Lowest common ancestor of two vertices of one rooted component."""
        anc = {v1}
        x = v1
        while True:
            p = self.parent_vertex(x)
            if p is None:
                break
            anc.add(p)
            x = p
        x = v2
        while x not in anc:
            x = self.parent_vertex(x)
            if x is None:
                raise ForestError("vertices share no component")
        return x

    def offpath_edges(self, path, at=None, exclude=None) -> tuple[int, ...]:
        """Edges hanging off the interior of a vertex path.

        ``at`` restricts to one interior vertex; ``exclude`` skips a vertex
        (the rooted rules spare the least common ancestor).
        """
        onpath = set()
        for x, y in zip(path, path[1:]):
            onpath.add(self.edge_between(x, y))
        out = []
        interior = path[1:-1] if at is None else [at]
        for c in interior:
            if exclude is not None and c == exclude:
                continue
            out.extend(e for e in self._adj[c] if e not in onpath)
        return tuple(sorted(out))

    # -- misc ---------------------------------------------------------------

    def __repr__(self):
        kind = "rooted" if self.rooted else "unrooted"
        return f"<Forest {kind} order={self.order()} labels={len(self._vlabel)}>"


# ---------------------------------------------------------------------------
# instances and certified agreement forests


@dataclass(frozen=True)
class Instance:
    """An ordered collection of forests over one label universe."""

    rooted: bool
    forests: tuple[Forest, ...]
    name: str = ""

    def __post_init__(self):
        if not self.forests:
            raise ForestError("instance needs at least one forest")
        first = self.forests[0]
        for f in self.forests:
            if f.rooted != self.rooted:
                raise ForestError("instance mixes rooted and unrooted forests")
            if not f.labels.same_originals(first.labels):
                raise LabelUniverseError("forests use different label tables")
            if f.original_label_ids() != first.original_label_ids():
                raise LabelUniverseError("forests cover different label sets")

    @property
    def m(self) -> int:
        return len(self.forests)

    @property
    def n_labels(self) -> int:
        return len(self.forests[0].original_label_ids())

    def taxa_count(self) -> int:
        """Number of taxa, not counting the root label of rooted instances."""
        return self.n_labels - (1 if self.rooted else 0)


@dataclass(frozen=True)
class AgreementForest:
    """A solution forest plus, per input forest, a witnessing edge set."""

    forest: Forest
    witnesses: tuple[frozenset[int], ...]

    @property
    def order(self) -> int:
        return self.forest.order()

    def verify(self, instance: Instance) -> bool:
        for f, removed in zip(instance.forests, self.witnesses):
            if not f.remove_edges(removed).same_structure(self.forest):
                return False
        return True


def certify(forest: Forest, instance: Instance) -> AgreementForest:
    """Attach per-input witnessing edge sets to a solution forest."""
    wits = []
    for f in instance.forests:
        w = subforest_witness(forest, f)
        if w is None:
            raise ForestError("forest is not a subforest of every input")
        wits.append(w)
    return AgreementForest(forest, tuple(wits))


# ---------------------------------------------------------------------------
# subforest testing


def _steiner(sup: Forest, leaf_vertices):
    """Vertex and edge sets of the minimal subtree spanning ``leaf_vertices``."""
    targets = set(leaf_vertices)
    comp = sup.components()[sup.component_index_of_vertex(next(iter(targets)))]
    deg = {v: dict(sup._adj[v]) for v in comp}
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


def _steiner_canonical(sup: Forest, vset, eset):
    """Canonical form of a Steiner subtree after forced contraction.

    Pass-through vertices (unlabeled, two subtree edges) are suppressed; the
    rooted apex is kept even at degree 2, mirroring the root exception.
    """

    def down(v, in_edge):
        lid = sup._vlabel.get(v, -1)
        kids = [(e, w) for e, w in sup._adj[v].items() if e in eset and e != in_edge]
        if lid == -1 and in_edge is not None and len(kids) == 1:
            return down(kids[0][1], kids[0][0])
        return (lid, tuple(sorted(down(w, e) for e, w in kids)))

    if sup.rooted:
        apex = next(
            v for v in vset if sup._parent_edge.get(v) not in eset
        )
        return down(apex, None)
    anchor = min(
        (v for v in vset if v in sup._vlabel), key=lambda v: sup._vlabel[v]
    )
    return down(anchor, None)


def subforest_witness(sub: Forest, sup: Forest):
    """Edge set E with ``sup.remove_edges(E)`` isomorphic to ``sub``, or None.

    Both forests are expanded to original labels first.  A component of the
    candidate embeds as the contracted minimal spanning subtree of its labels;
    the embeddings must be pairwise vertex-disjoint, which is exactly when one
    removal set realizes all components at once.
    """
    if sub.rooted != sup.rooted:
        raise LabelUniverseError("rootedness mismatch")
    if not sub.labels.same_originals(sup.labels):
        raise LabelUniverseError("label tables disagree")
    if sub.has_grouped_labels():
        sub = sub.expand_labels()
    if sup.has_grouped_labels():
        sup = sup.expand_labels()
    if sub.label_ids() != sup.label_ids():
        raise LabelUniverseError("label sets differ")

    buckets: dict[int, list[int]] = {}
    for i in range(sub.order()):
        lset = sub.component_labels(i)
        sup_comps = {sup.component_index_of_label(l) for l in lset}
        if len(sup_comps) != 1:
            return None
        buckets.setdefault(next(iter(sup_comps)), []).append(i)

    keep_edges: set[int] = set()
    for sup_idx, sub_comps in buckets.items():
        used: set[int] = set()
        for i in sub_comps:
            lvs = [sup.vertex_of_label(l) for l in sub.component_labels(i)]
            vset, eset = _steiner(sup, lvs)
            if used & vset:
                return None
            used |= vset
            if _steiner_canonical(sup, vset, eset) != sub.component_canonical(i):
                return None
            keep_edges |= eset
    return frozenset(sup.edge_ids() - keep_edges)


def is_subforest(sub: Forest, sup: Forest) -> bool:
    """True iff some edge removal turns ``sup`` into ``sub`` (up to contraction)."""
    return subforest_witness(sub, sup) is not None
