"""Rooted and unrooted X-forests: the value model shared by every solver.

A forest is a collection of trees whose leaves are bijectively labeled by a
fixed label set; internal vertices are unlabeled.  Rooted forests carry a
distinguished root leaf named "ρ" and orient every edge, because
ancestor/descendant constraints matter for which edges may be cut.  The
orientation is held once, in the edge map: each edge id maps to its two ends,
parent first, so a vertex's parent edge is the entry of its own adjacency row
that names it as the child (see :meth:`Forest.parent_edge`).  Unrooted
forests read the same maps as plain undirected adjacency.

All values are immutable: every operation returns a new ``Forest``.  Forests
are kept irreducible at all times -- unlabeled degree-2 vertices are spliced
out and unlabeled debris is dropped, with the one exception that a component
root may keep degree 2 (it stands for the least common ancestor of the
component's labels).  No value can be built otherwise, and canonical codes
are defined for irreducible forests only.

A derived value is built from its parent, not from scratch, and a value is
never written again once it has been returned.  So a derived value shares
every adjacency row it does not change with its parent: it copies the outer
maps and copies a row only the first time it writes it.  Before it is
returned, it may be written any number of times: a run of groupings is one
derivation (see ``reduction.next_case``).  Only the rows it wrote are
checked against the degree rules.  A removal or a grouping also takes over
its parent's sibling-set table (see :meth:`Forest.find_mss`) and patches it
where it can change, instead of leaving it to be built again.  Derivations
record their parent and a log of what they changed, which ``reduction``
reads.  Other derived data (the label partition) is built at most once per
value, on first use.

Grouping (:meth:`Forest.group_labels`) shrinks a sibling set into one leaf
that takes the least label id of the set, so every label id is the least
original label behind it, and every order that goes by labels reads the ids
themselves.  The label table is the instance's and never changes; each
forest records its own groupings (see :meth:`Forest.originals`).

One walk finds a forest's components: :meth:`Forest._hanging` hangs each
from one top, the root or the leaf with the least label id.  The
label partition, structural equality, the reduction's side sums, the
Steiner witness and the canonical key all read that hanging.  Structural
equality (:meth:`Forest.same_structure`) maps the vertices of one forest
onto the other's, climbing from the labeled leaves; it builds no canonical
key.  The canonical key holds one flat tuple of ints per component (see
:func:`_flat_codes`): the one order of children in the package, which the
Newick writer renders, and nothing else reads.

There is no depth limit: every walk over a tree, the equality walk included,
uses an explicit stack or a worklist, never recursion, and comparing two flat
keys does not recurse either, as comparing nested tuples would.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

RHO = "ρ"

# a derived value holds its parent through its origin until the reduction
# has taken what it needs from it; values derived again and again without a
# scan would hold every ancestor, so a chain of origins ends after this many
_ORIGIN_CHAIN = 32


class MafError(Exception):
    """Base class for errors raised by this package."""


class ForestError(MafError):
    """Structurally invalid forest or invalid operation argument."""


class LabelUniverseError(MafError):
    """Two forests that should share a label universe do not."""


# ---------------------------------------------------------------------------
# labels


class Label(NamedTuple):
    """One entry of an instance's label table: an original taxon label."""

    id: int
    name: str


class LabelTable:
    """The fixed label registry shared by the forests of one instance.

    Grouping adds no label: a grouped leaf keeps the id of its least part
    (see :meth:`Forest.group_labels`).
    """

    __slots__ = ("_labels", "_by_name")

    def __init__(self, labels):
        self._labels = tuple(labels)
        self._by_name = {lab.name: lab.id for lab in self._labels}
        if len(self._by_name) != len(self._labels):
            raise ForestError("duplicate label name in table")

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

    def same_originals(self, other: "LabelTable") -> bool:
        return self is other or self._labels == other._labels


# ---------------------------------------------------------------------------
# small value types consumed by the branching rules


@dataclass(frozen=True)
class EdgeSplit:
    """Label sets of the two subtrees created by deleting one edge."""

    edge: int
    side1: frozenset[int]
    side2: frozenset[int]


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
    cut in ``pair`` (for ``"siblings"`` the two least label ids).
    ``cuts`` lists the further edge sets of this forest that the exact
    search branches on, one branch each:

    * rooted siblings: all surplus edges;
    * unrooted siblings: the first surplus edge, then the second;
    * rooted path: the edges off the path, sparing its least common ancestor;
    * unrooted path: the edges off ``path[1]``, then those off ``path[-2]``;
    * split: none.

    For ``"mss"``, ``hub`` is the vertex grouping turns into the labels'
    leaf: their shared parent (rooted), their shared unlabeled neighbor
    (unrooted), or the smaller leaf vertex of an unrooted single-edge tree.
    It is None for the other kinds.
    """

    kind: str
    pair: tuple[int, int] | None = None
    path: tuple[int, ...] = ()
    cuts: tuple[tuple[int, ...], ...] = ()
    hub: int | None = None


def find_root(parent, x):
    """Root of ``x`` in a union-find ``parent`` map, halving the path walked."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _walk(forest, start, seen, removed):
    """Yield the label id, or None, of each vertex of ``forest`` reached from
    ``start`` without entering ``seen`` or crossing an edge in ``removed``,
    one vertex at a time; each vertex reached joins ``seen``."""
    adj, vlabel = forest._adj, forest._vlabel
    stack = [start]
    while stack:
        v = stack.pop()
        yield vlabel.get(v)
        for e, w in adj[v].items():
            if w not in seen and e not in removed:
                seen.add(w)
                stack.append(w)


def _latest_grouping(rec, g, end):
    """Start in ``rec``, the groupings of label ``g`` (see
    :meth:`Forest.originals`), of the latest of them that ends by ``end``:
    each grouping's parts start with ``g``, its least."""
    start = end - 1
    while rec[start] != g:
        start -= 1
    return start


def _flat_codes(order, up, vlabel):
    """Canonical code of every hung tree, each as one flat tuple of ints.

    A code lists ``label id or -1, child count`` for every vertex in a
    preorder that takes children by the least label id below them: the
    package's one order of children, which ``newick.serialize`` writes.
    The trees must be irreducible, so every subtree holds a label, and no
    two children tie.  Two trees get equal codes exactly when a map that
    keeps labels and the top vertex makes them isomorphic.

    ``order`` and ``up`` are a hanging (see :meth:`Forest._hanging`).  Two
    linear passes: one walks ``order`` backwards to gather every vertex's
    children and the least label id below it, one writes the codes, top by
    top, with an explicit stack.
    """
    children = {}
    low = {}
    for v in reversed(order):  # children before parents
        if v not in children:
            low[v] = vlabel[v]
        p = up.get(v)
        if p is not None:
            children.setdefault(p, []).append(v)
            low[p] = min(low.get(p, low[v]), low[v])
    codes = []
    for top in order:
        if top in up:
            continue
        out = []
        stack = [top]
        while stack:
            v = stack.pop()
            kids = children.get(v)
            if kids is None:
                out += (vlabel[v], 0)
                continue
            out += (vlabel.get(v, -1), len(kids))
            if len(kids) > 1:
                kids.sort(key=low.__getitem__, reverse=True)
            stack += kids
        codes.append(tuple(out))
    return codes


# ---------------------------------------------------------------------------
# the forest value


class Forest:
    """An irreducible rooted or unrooted X-forest value.

    Vertices and edges carry stable small-integer ids within one value;
    derived values keep the ids of everything they retain.  Structural
    identity is by a label-anchored vertex map (see :meth:`same_structure`),
    never by id.
    """

    __slots__ = (
        "rooted",
        "labels",
        "_vlabel",
        "_adj",
        "_edges",
        "_next_v",
        "_next_e",
        "_label_vertex",
        "_own",
        "_mss",
        "_partition",
        "_weights",
        "_sums",
        "_groups",
        "_origin",
        "__weakref__",
    )

    def __init__(self, rooted, labels, vlabel, adj, edges, next_v, next_e, label_vertex):
        self.rooted = rooted
        self.labels = labels
        self._vlabel = vlabel          # vertex -> label id
        self._adj = adj                # vertex -> {edge id: neighbor}
        # edge id -> (u, v); rooted, u is the parent: the one record of the
        # orientation, which no other map repeats
        self._edges = edges
        self._next_v = next_v
        self._next_e = next_e
        self._label_vertex = label_vertex  # label id -> vertex
        self._own = set()              # vertices whose adjacency row is private
        self._mss = None               # sibling-set table, see find_mss
        self._partition = None
        self._weights = None           # label weights as a reduction witness
        self._sums = None              # side sums of the latest reduction scan
        self._groups = {}              # see originals
        self._origin = None            # (parent, change log, chain length)

    def __getstate__(self):
        # a pickled or copied value keeps its structure and caches, but not
        # the links the reduction follows to other values (see ``reduction``):
        # the origin would drag the chain of ancestors along, and inherited
        # weights (side sums hold them too) refer weakly to their source
        state = {name: getattr(self, name) for name in self.__slots__
                 if name != "__weakref__"}
        state["_origin"] = state["_weights"] = state["_sums"] = None
        return None, state

    # -- construction

    @classmethod
    def build(cls, rooted, labels, leaf_labels, edge_list) -> "Forest":
        """Assemble a forest from raw parts.

        ``leaf_labels`` maps vertex id -> label id, each an index of
        ``labels``, and ``edge_list`` is an iterable of vertex pairs (parent
        first when rooted).  Each edge is joined in a union-find
        (:func:`find_root`) as it comes, and one whose ends are already
        joined closes a cycle and raises ``ForestError``.  :meth:`_settle`
        then normalizes the maps by forced contraction from every vertex.
        """
        vlabel = dict(leaf_labels)
        if vlabel and not 0 <= min(vlabel.values()) <= max(vlabel.values()) < len(labels):
            raise ForestError("label id outside the label table")
        adj: dict[int, dict[int, int]] = {v: {} for v in vlabel}
        edges: dict[int, tuple[int, int]] = {}
        children: set[int] = set()
        joined: dict[int, int] = {}
        for eid, (u, v) in enumerate(edge_list):
            if u == v:
                raise ForestError("self-loop edge")
            adj.setdefault(u, {})
            adj.setdefault(v, {})
            adj[u][eid] = v
            adj[v][eid] = u
            edges[eid] = (u, v)
            if rooted:
                if v in children:
                    raise ForestError(f"vertex {v} has two parents")
                children.add(v)
            ru = find_root(joined, joined.setdefault(u, u))
            rv = find_root(joined, joined.setdefault(v, v))
            if ru == rv:
                raise ForestError("edge list has a cycle")
            joined[rv] = ru
        next_v = max(adj, default=-1) + 1
        next_e = len(edges)
        label_vertex = {lid: v for v, lid in vlabel.items()}
        f = cls(rooted, labels, vlabel, adj, edges, next_v, next_e, label_vertex)
        return f._settle(list(adj))

    def _settle(self, seeds) -> "Forest":
        """Last step of every assembly: contract from ``seeds``, then check
        the degree rules.  The maps must hold no cycle: :meth:`build` rejects
        one as its edges come, and the parser gives each vertex one parent."""
        self._normalize(seeds, [])
        self._check()
        return self

    def _copy(self) -> "Forest":
        """Writable child value sharing every adjacency row with this one.

        It takes over copies of the record of groupings and of the
        sibling-set table, if there is one, for its writer to change (see
        :meth:`_group` and :meth:`_patch_mss`)."""
        f = Forest(
            self.rooted,
            self.labels,
            dict(self._vlabel),
            dict(self._adj),
            dict(self._edges),
            self._next_v,
            self._next_e,
            dict(self._label_vertex),
        )
        f._groups = dict(self._groups)
        if self._mss is not None:
            f._mss = dict(self._mss)
        return f

    # -- internal mutation, used only on fresh copies ----------------------

    def _row(self, v) -> dict[int, int]:
        """``v``'s adjacency row, copied first if still shared with the parent."""
        if v in self._own:
            return self._adj[v]
        self._own.add(v)
        row = self._adj[v] = dict(self._adj[v])
        return row

    def _add_vertex(self, lid=None) -> int:
        v = self._next_v
        self._next_v += 1
        self._adj[v] = {}
        self._own.add(v)
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

    def _add_edge(self, u, v) -> int:
        eid = self._next_e
        self._next_e += 1
        self._edges[eid] = (u, v)
        self._row(u)[eid] = v
        self._row(v)[eid] = u
        return eid

    def _del_edge(self, eid):
        u, v = self._edges.pop(eid)
        del self._row(u)[eid]
        del self._row(v)[eid]

    def _normalize(self, dirty, log):
        """Forced contraction from the given seed vertices outward.

        Every step is appended to the list ``log`` (see :meth:`remove_edges`):
        ``("drop", v)`` for an isolated vertex, ``("gone", v, e, w)`` for a
        leaf ``v`` dropped with its edge ``e`` to ``w``, and ``("splice", v,
        e1, w1, e2, w2, e)`` for a pass-through vertex whose edges to ``w1``
        and ``w2`` became one new edge ``e``.
        """
        note = log.append
        queue = deque(dirty)
        while queue:
            v = queue.popleft()
            if v not in self._adj or v in self._vlabel:
                continue
            deg = len(self._adj[v])
            if deg > 2:  # nothing to contract, whether it has a parent or not
                continue
            pe = self.parent_edge(v)
            if pe is None:
                # unrooted vertex, or a rooted component root
                if deg == 0:
                    self._drop_vertex(v)
                    note(("drop", v))
                elif deg == 1:
                    eid, w = next(iter(self._adj[v].items()))
                    self._del_edge(eid)
                    self._drop_vertex(v)
                    note(("gone", v, eid, w))
                    queue.append(w)
                elif deg == 2 and not self.rooted:
                    (e1, w1), (e2, w2) = sorted(self._adj[v].items())
                    if w1 == w2:
                        raise ForestError("edge list has a cycle")
                    self._del_edge(e1)
                    self._del_edge(e2)
                    self._drop_vertex(v)
                    note(("splice", v, e1, w1, e2, w2, self._add_edge(w1, w2)))
                # rooted roots keep degree 2: they are retained LCAs
            else:
                if deg == 1:
                    parent = self._adj[v][pe]
                    self._del_edge(pe)
                    self._drop_vertex(v)
                    note(("gone", v, pe, parent))
                    queue.append(parent)
                elif deg == 2:
                    parent = self._adj[v][pe]
                    ce, child = next((e, w) for e, w in self._adj[v].items() if e != pe)
                    if parent == child:
                        raise ForestError("edge list has a cycle")
                    self._del_edge(pe)
                    self._del_edge(ce)
                    self._drop_vertex(v)
                    note(("splice", v, pe, parent, ce, child, self._add_edge(parent, child)))

    def _check(self, vertices=None):
        """Degree rules of an irreducible forest, and one vertex per label.

        ``vertices`` limits the degree rules to those vertices (the ones a
        derivation wrote; absent ones are skipped).  A derived value shares
        every other row with a parent that passed the check, and a row it
        does not write keeps its degree, its label and, rooted, its parent
        edge, so checking the written rows keeps the whole guarantee.
        """
        adj = self._adj
        rows = adj.items() if vertices is None else (
            (v, adj[v]) for v in vertices if v in adj)
        for v, d in rows:
            deg = len(d)
            if v in self._vlabel:
                if deg > 1:
                    raise ForestError(f"labeled vertex {v} has degree {deg}")
            elif self.rooted:
                if deg < 3 and self.parent_edge(v) is not None:
                    raise ForestError(f"unlabeled non-root {v} has degree {deg}")
                if deg < 2:
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
        """Original label ids behind this forest's labels: its own and every
        part of a grouping it records."""
        return frozenset(self._label_vertex).union(*self._groups.values())

    def has_grouped_labels(self) -> bool:
        return bool(self._groups)

    def originals(self, lid) -> tuple[int, ...]:
        """The original label ids behind label ``lid``, in the order
        ``newick.serialize`` names them.

        ``_groups`` maps every id a grouping produced to one flat tuple: the
        parts of each grouping that produced it, oldest first, each in id
        order, so each starts with the id itself.  Its keys are in the order
        of the latest grouping of each.  An absorbed id keeps its entry, for
        the expansion of the group that absorbed it.  The parts of ``lid``'s
        latest grouping are read in id order, each in turn the same way (an
        earlier grouping of ``lid`` itself as the first), with an explicit
        stack, as groups nest without bound.
        """
        groups = self._groups
        out = []
        stack = [(lid, len(groups.get(lid, ())))]
        while stack:
            g, end = stack.pop()
            if not end:
                out.append(g)
                continue
            rec = groups[g]
            start = _latest_grouping(rec, g, end)
            stack += ((p, start if p == g else len(groups.get(p, ())))
                      for p in reversed(rec[start:end]))
        return tuple(out)

    def parent_vertex(self, v):
        pe = self.parent_edge(v)
        return None if pe is None else self._edges[pe][0]

    def parent_edge(self, v):
        """Rooted: the id of the edge from ``v`` up to its parent, the entry
        of ``v``'s row that names ``v`` as the child; None for a component
        root, and for every vertex of an unrooted forest."""
        if self.rooted:
            edges = self._edges
            for e in self._adj[v]:
                if edges[e][1] == v:
                    return e
        return None

    def pendant_edge(self, lid) -> int:
        v = self._label_vertex.get(lid)
        if v is None:
            raise ForestError(f"label id {lid} is not in the forest")
        d = self._adj[v]
        if len(d) != 1:
            raise ForestError(f"label {self.labels.name(lid)} is not a pendant leaf")
        return next(iter(d))

    def order(self) -> int:
        """Number of connected components: vertices minus edges, in a forest."""
        return len(self._adj) - len(self._edges)

    def order_without(self, eids) -> int:
        """``remove_edges(eids).order()``, counted without building the forest.

        Contraction keeps exactly the components that hold a label, so the
        order is the number of union-find roots over labeled vertices once
        every other edge is joined.
        """
        parent = self.joined_without(eids)
        return len({find_root(parent, v) for v in self._label_vertex.values()})

    def joined_without(self, eids) -> dict[int, int]:
        """Union-find ``parent`` map of the vertices (see :func:`find_root`)
        with every edge joined but those in ``eids``, which must be edges of
        this forest."""
        removed = set(eids)
        if not removed <= self._edges.keys():
            raise ForestError(f"unknown edge ids {sorted(removed - self._edges.keys())}")
        parent = {v: v for v in self._adj}
        for eid, (u, v) in self._edges.items():
            if eid not in removed:
                parent[find_root(parent, v)] = find_root(parent, u)
        return parent

    def essential_edges(self, eids) -> tuple[int, ...]:
        """Greedy essential subset of a removal: drop edges that do not
        change it.

        Scanning in id order, an edge is dropped whenever removing the
        remaining set still produces the same forest.  At the end every
        survivor genuinely splits a component, so the result is an essential
        edge set realizing the original removal, of ``remove_edges(eids)``'s
        order minus this one's edges.

        Putting one removed edge back either joins two labeled components,
        which lowers the order by one, or re-attaches an unlabeled piece
        that contraction deletes again, which leaves the forest unchanged.
        So one union-find pass decides every trial: join every edge that is
        not removed, then walk the removed ids in order, keeping an edge
        whose two ends lie in labeled components and joining the ends of any
        other, as putting it back does.
        """
        removed = sorted(set(eids))
        if not removed:
            return ()
        parent = self.joined_without(removed)
        labeled = {find_root(parent, v) for v in self._label_vertex.values()}
        keep = []
        for eid in removed:
            u, v = self._edges[eid]
            ru, rv = find_root(parent, u), find_root(parent, v)
            if ru in labeled and rv in labeled:
                keep.append(eid)
            else:
                parent[rv] = ru
                if rv in labeled:
                    labeled.add(ru)
        return tuple(keep)

    def label_partition(self) -> tuple[frozenset[int], ...]:
        """The label set of every component, in the order of the runs of
        :meth:`_hanging`; built once per value.  The reduction's fresh
        weights read it, and so do the Steiner claims of :class:`_Hung`,
        the certificate's and the merge pass's."""
        if self._partition is None:
            order, up = self._hanging()
            vlabel = self._vlabel
            parts = []
            for v in order:
                if v not in up:  # a top starts the next run
                    part = []
                    parts.append(part)
                lid = vlabel.get(v)
                if lid is not None:
                    part.append(lid)
            self._partition = tuple(map(frozenset, parts))
        return self._partition

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

    # -- core operations ------------------------------------------------------

    def remove_edges(self, eids) -> "Forest":
        """Forest with the given edges deleted, then contracted.

        ``eids`` is read as a set: a repeated id is cut once.  The new value
        records ``(self, log, chain length)`` as its origin, so that the
        reduction can carry what it computed for this value to the new one:
        ``("cut", e, u, v)`` for each deleted edge in the order of its first
        occurrence, then the contraction steps (see :meth:`_normalize`).  A
        sibling-set table already built here is patched at the vertices the
        removal wrote.
        """
        f = self._copy()
        log = []
        dirty = []
        for eid in dict.fromkeys(eids):
            if eid not in f._edges:
                raise ForestError(f"unknown edge id {eid}")
            u, v = f._edges[eid]
            f._del_edge(eid)
            log.append(("cut", eid, u, v))
            dirty.extend((u, v))
        f._normalize(dirty, log)
        # labels stay where they are, so only a written row changes an entry
        f._patch_mss(f._own)
        f._link(self, log)
        return f

    def split_labels(self, eid) -> EdgeSplit:
        """Label sets of the two subtrees obtained by deleting ``eid``.

        Each side is walked (:func:`_walk`) from its end of the edge, both
        ends seen from the outset, so only the edge's own component is
        visited.
        """
        if eid not in self._edges:
            raise ForestError(f"unknown edge id {eid}")
        ends = self._edges[eid]
        seen = set(ends)
        sides = (frozenset(_walk(self, v, seen, ())) - {None} for v in ends)
        return EdgeSplit(eid, *sides)

    def find_mss(self) -> frozenset[int] | None:
        """Deterministically pick a maximal sibling set: its label ids, or
        None if there is none (:meth:`sibling_case` names its hub).

        Rooted forests have no MSS iff they have at most one edge (which is
        then the ρ pendant edge); unrooted forests have none iff they are
        edgeless.  Each hub (the vertex :meth:`sibling_case` names, an
        unrooted single-edge tree's smaller vertex included) offers one
        candidate, and the one that holds the least label id wins.  An
        unrooted full star, a hub with three or more leaves and nothing
        else, offers its leaves but one: the newest group among all but
        its least label, or if none of them is grouped, the largest label.

        The candidates are kept in a table, one ``(least label id, labels)``
        entry per hub.  The table is built on the first call, carried
        through every derivation but :meth:`expand_labels` and patched by
        each removal and grouping; :meth:`_filed_hub` reads the hub a
        picked set is filed under.
        """
        if self._mss is None:
            self._mss = {
                v: entry for v in self._adj if (entry := self._mss_entry(v)) is not None
            }
        if not self._mss:
            return None
        # candidates of distinct hubs are disjoint, so their least ids differ
        return min(self._mss.values())[1]

    def _mss_entry(self, v):
        """``(least label id, labels)`` of the candidate filed under ``v``."""
        if v in self._vlabel:
            # unrooted single-edge tree, filed under its hub, the smaller vertex
            row = self._adj[v]
            if self.rooted or len(row) != 1:
                return None
            w = next(iter(row.values()))
            if w < v or w not in self._vlabel:
                return None
            s = frozenset((self._vlabel[v], self._vlabel[w]))
        elif self.rooted:
            edges = self._edges
            kids = [w for e, w in self._adj[v].items() if edges[e][0] == v]
            if len(kids) < 2 or any(w not in self._vlabel for w in kids):
                return None
            s = frozenset(self._vlabel[w] for w in kids)
        else:
            leaves = [w for w in self._adj[v].values() if w in self._vlabel]
            extra = len(self._adj[v]) - len(leaves)
            if len(leaves) < 2 or extra > 1:
                return None
            s = frozenset(self._vlabel[w] for w in leaves)
            if not extra and len(s) >= 3:
                # a full star (degree |S|) also admits every one-leaf-short
                # subset (degree |S|+1); the smaller candidate is preferred,
                # and of those the one that drops, among all but the least
                # label, the newest group, or if none is grouped the largest
                rest = s - {min(s)}
                s -= {next((g for g in reversed(self._groups) if g in rest), max(rest))}
        return min(s), s

    def _filed_hub(self, lids):
        """The hub under which the sibling-set table files ``lids``, a set
        :meth:`find_mss` picked: the one neighbor of its least label's leaf,
        or that leaf itself, the smaller vertex of an unrooted single-edge
        tree.  It is the hub :meth:`sibling_case` names, found without it."""
        least = min(lids)
        v = self._label_vertex[least]
        w = next(iter(self._adj[v].values()))
        entry = self._mss.get(w)
        return w if entry is not None and entry[0] == least else v

    def group_labels(self, lids) -> "Forest":
        """Shrink the maximal sibling set ``lids`` (label ids) into one
        grouped leaf label; :meth:`sibling_case` decides that it is one and
        names its hub, and any other label set raises ``ForestError``.

        The one-set case of a run of groupings (see ``reduction.next_case``):
        one writable child (:meth:`_copy`), grouped in place (:meth:`_group`),
        then checked and linked to this value (:meth:`_link`).
        """
        lids = frozenset(lids)
        case = self.sibling_case(lids)
        if case.kind != "mss":
            raise ForestError("labels are not a maximal sibling set")
        f, log = self._copy(), []
        f._group(lids, case.hub, log)
        f._link(self, log)
        return f

    def _group(self, lids, hub, log):
        """Shrink the maximal sibling set ``lids`` around its ``hub`` in
        place, on a value not yet returned (:meth:`_copy`).

        Every shape takes one path: each leaf of ``lids`` but the hub is
        dropped with its edge, and the hub keeps its vertex id and becomes
        the new leaf.  For an unrooted single-edge tree the hub is its
        smaller leaf vertex, so the two leaves merge into one.  The new leaf
        takes the least id of ``lids``, and the grouping is recorded (see
        :meth:`originals`); the label table and the component count are
        unchanged.  Appended to the origin log ``log`` (see
        :meth:`remove_edges`): ``("merge", v, e, hub)`` for each leaf ``v``
        dropped with its edge ``e``, then ``("group", lids, new_id)``.
        """
        new_id = min(lids)
        self._groups[new_id] = self._groups.pop(new_id, ()) + tuple(sorted(lids))
        for l in lids:
            v = self._label_vertex.pop(l)
            if v == hub:  # a leaf of a single-edge tree keeps its place
                continue
            eid = next(iter(self._adj[v]))
            self._del_edge(eid)
            del self._vlabel[v]
            self._drop_vertex(v)
            log.append(("merge", v, eid, hub))
        self._vlabel[hub] = new_id
        self._label_vertex[new_id] = hub
        log.append(("group", lids, new_id))
        # the hub turned into a leaf, so its neighbors' entries can change
        # too: rooted, its parent; unrooted, the one non-leaf neighbor or a
        # leaf of a new single-edge tree (a single-edge tree grouped whole
        # leaves none)
        self._patch_mss((hub, *self._adj[hub].values()))

    def _link(self, parent, log):
        """Finish a derivation of ``parent``: check the rows it wrote, and
        record ``(parent, log, chain length)`` as this value's origin."""
        self._check(vertices=self._own)
        links = parent._origin[2] + 1 if parent._origin is not None else 1
        if links <= _ORIGIN_CHAIN:
            self._origin = (parent, log, links)

    def _patch_mss(self, touched):
        """Make the entries of the ``touched`` vertices afresh in this
        value's sibling-set table, if it has one."""
        table = self._mss
        if table is None:
            return
        for v in touched:
            entry = self._mss_entry(v) if v in self._adj else None
            if entry is None:
                table.pop(v, None)
            else:
                table[v] = entry

    def expand_labels(self) -> "Forest":
        """Undo every grouping; leaves end up on original labels.

        Round by round, each grouped label, in the order of its vertex,
        gives up its latest grouping (see :meth:`originals`): its vertex
        takes a new leaf for each part, in id order, or for an unrooted
        single-edge tree grouped whole, keeps the least part and takes a
        leaf for the other.  A part grouped earlier waits for the next round.
        """
        f = self._copy()
        f._mss = None  # labels move, so no table survives
        groups = f._groups
        while grouped := sorted((v, lid) for v, lid in f._vlabel.items() if lid in groups):
            for v, lid in grouped:
                rec = groups.pop(lid)
                start = _latest_grouping(rec, lid, len(rec))
                if start:
                    groups[lid] = rec[:start]
                parts = rec[start:]
                if not f.rooted and not f._adj[v] and len(parts) == 2:
                    f._add_edge(v, f._add_vertex(parts[1]))
                    continue
                del f._vlabel[v]
                del f._label_vertex[lid]
                for p in parts:
                    f._add_edge(v, f._add_vertex(p))
        f._groups = {}
        f._check(vertices=f._own)
        return f

    # -- canonical structure -------------------------------------------------

    def canonical_key(self):
        """Order-independent structural fingerprint of the whole forest.

        ``(rooted, sorted component codes)``, each code a flat tuple of ints
        written from the component's top in :meth:`_hanging` (see
        :func:`_flat_codes`): comparing two keys never recurses, however
        deep the trees.  The codes are the Newick writer's order of children; equality is decided by
        :meth:`same_structure`, which builds no key.  Only the writer asks
        for a key, once per forest it writes, so none is kept.
        """
        codes = _flat_codes(*self._hanging(), self._vlabel)
        return (self.rooted, tuple(sorted(codes)))

    def _hanging(self):
        """Every component hung from one top: ``(order, up)``.

        The one walk that finds a forest's components.  A rooted component
        hangs from its root, an unrooted one from its leaf with the least
        label id.  ``order`` lists every vertex, each component as one
        run that starts at its top, parents before children; ``up`` maps
        every vertex but the tops to the vertex above it.  The walk grows a
        list while it reads it, without recursion.
        """
        adj = self._adj
        if self.rooted:
            children = {c for _, c in self._edges.values()}
            tops = [v for v in adj if v not in children]
        else:
            at = self._label_vertex
            tops = [at[lid] for lid in sorted(at)]
        order = []
        up = {}
        for top in tops:
            if top in up:
                continue
            run = [top]
            for v in run:  # grows while it is walked
                p = up.get(v)
                for w in adj[v].values():
                    if w != p:
                        up[w] = v
                        run.append(w)
            order += run
        return order, up

    def _edges_up(self, vertices, up) -> list[int]:
        """Ids of the edges from each of ``vertices`` to the vertex above it
        in the hanging ``up`` (see :meth:`_hanging`), looked up among the
        vertex's neighbors; rooted, that is the parent edge."""
        adj = self._adj
        out = []
        for v in vertices:
            p = up[v]
            for e, w in adj[v].items():
                if w == p:
                    out.append(e)
                    break
        return out

    def same_structure(self, other: "Forest") -> bool:
        """True iff a label-preserving isomorphism maps this forest onto
        ``other`` (rooted: one that keeps parents).  Labels are compared by id.

        One early-exiting walk, which builds no canonical key.  The
        rootedness, vertex and edge counts and label-id sets must agree.
        Then from each label's leaf both forests are climbed at once, each
        hung as :meth:`_hanging` hangs it (rooted, the parents are read off
        the edge map, with no walk), mapping every vertex of this forest
        met to the vertex of ``other`` met with it.  A climb stops at a
        vertex already mapped, whose image must be the vertex met in
        ``other``, and fails when one side reaches a top and the other does
        not.

        Proof.  A walk that does not fail maps each label's leaf to that
        label's leaf in ``other``, and a vertex's parent to its image's
        parent; a vertex is a top iff its image is.  In an irreducible
        forest every vertex lies above a labeled leaf (a hang point is one),
        so the map is total, and it is onto: the chain above each leaf of
        ``other`` is the image of the chain above the same label's leaf
        here.  Between vertex sets of one size it is a bijection, so it
        takes the edge from each non-top to its parent onto such an edge,
        one to one: a label-preserving isomorphism, which keeps parents.
        Conversely, let φ be a label-preserving isomorphism (keeping parents
        when rooted).  Unrooted, φ keeps each component's label set, so it
        maps each hang point, the leaf of the least label id, to the
        other's; so φ keeps the vertex above, rooted or not.  The walk maps
        each leaf by φ, as labels pin the leaves, and each parent by φ, as
        parents pin the rest, so no check fails.
        """
        if self is other:
            return True
        if (self.rooted != other.rooted or len(self._adj) != len(other._adj)
                or len(self._edges) != len(other._edges)
                or self._label_vertex.keys() != other._label_vertex.keys()):
            return False
        if self.rooted:
            up1 = {c: p for p, c in self._edges.values()}
            up2 = {c: p for p, c in other._edges.values()}
        else:
            up1, up2 = self._hanging()[1], other._hanging()[1]
        at2 = other._label_vertex
        image = {}
        for lid, v in self._label_vertex.items():
            w = at2[lid]
            while v not in image:
                image[v] = w
                v, w = up1.get(v), up2.get(w)
                if v is None or w is None:
                    if v is not None or w is not None:
                        return False
                    break
            else:
                if image[v] != w:
                    return False
        return True

    # -- sibling-set case analysis (how an MSS of one forest sits in another)

    def sibling_case(self, lids) -> SiblingCase:
        """Classify how the label set ``lids`` (an MSS elsewhere) sits here.

        The one place that decides whether labels are siblings and where
        their hub is (:meth:`group_labels` asks it too).  A label's hub is
        its parent (rooted) or its one neighbor (unrooted); two labels are
        siblings if they share a hub or, unrooted, form a single-edge tree.
        An ``"mss"`` case always names the vertex that grouping keeps: the
        shared hub, or the smaller leaf vertex of a single-edge tree.
        ``ForestError`` is raised for fewer than two labels, a label id not
        in this forest, a singleton label and, rooted, a label without a
        parent (ρ).

        ``pair`` is the first pair that are not siblings, in
        ``itertools.combinations`` order over the labels sorted by id
        (``order``).  It is ``(order[0], order[j])`` for the
        least j whose label neither shares ``order[0]``'s hub nor is it; if
        there is no such j, every two labels are siblings:

        * sharing an unlabeled hub is transitive (and a shared hub has two
          labeled neighbors, so it is unlabeled);
        * a single-edge tree has no third leaf: its leaves are each other's
          hub, so a third label is no sibling of ``order[0]``;
        * ρ has no parent, so it is no label's sibling, and it is refused;
          it is the one labeled vertex with a child, so no rooted label is
          another's hub.

        The same facts tell "every two are siblings" before the sort: the
        labels all have one hub, or are two, each the other's hub.
        """
        adj, at, edges = self._adj, self._label_vertex, self._edges
        rooted = self.rooted
        hub = {}
        for l in lids:
            v = at.get(l)
            if v is None:
                raise ForestError(f"label id {l} is not in the forest")
            if not adj[v]:
                raise ForestError("sibling case undefined for singleton label")
            # a labeled vertex has one edge: rooted, the one up to its parent, but ρ's
            e, w = next(iter(adj[v].items()))
            if rooted and edges[e][1] != v:
                raise ForestError("sibling case undefined for parentless label (ρ)")
            hub[l] = w
        if len(hub) < 2:
            raise ForestError("sibling set needs at least two labels")
        if len(hub) == 2:
            a, b = hub
            if hub[a] == at[b]:  # an unrooted single-edge tree
                return SiblingCase("mss", hub=min(at[a], at[b]))
        hubs = set(hub.values())
        if len(hubs) == 1:
            (p,) = hubs
            up = self.parent_edge(p)
            surplus = len(adj[p]) - len(hub) - (up is not None)
            if surplus <= (0 if rooted else 1):
                return SiblingCase("mss", hub=p)
        order = sorted(hub)
        if len(hubs) == 1:
            ends = {at[l] for l in hub}
            extra = tuple(sorted(e for e, w in adj[p].items() if w not in ends and e != up))
            cuts = (extra,) if rooted else (extra[:1], extra[1:2])
            return SiblingCase("siblings", pair=(order[0], order[1]), cuts=cuts)
        h0 = hub[order[0]]
        pair = (order[0], next(l for l in order[1:] if hub[l] != h0 and at[l] != h0))
        path = self.tree_path(at[pair[0]], at[pair[1]])
        if path is None:
            return SiblingCase("split", pair=pair)
        if rooted:
            # every other path vertex has its parent on the path
            on = set(path)
            lca = next(v for v in path if self.parent_vertex(v) not in on)
            cuts = (self.offpath_edges(path, exclude=lca),)
        else:
            cuts = (
                self.offpath_edges(path, at=path[1]),
                self.offpath_edges(path, at=path[-2]),
            )
        return SiblingCase("path", pair=pair, path=tuple(path), cuts=cuts)

    def offpath_edges(self, path, at=None, exclude=None) -> tuple[int, ...]:
        """Edges hanging off the interior of a vertex path.

        ``at`` restricts to one interior vertex; ``exclude`` skips a vertex
        (the rooted rules spare the least common ancestor).
        """
        out = []
        for i in range(1, len(path) - 1):
            c = path[i]
            if c == exclude or (at is not None and c != at):
                continue
            ends = (path[i - 1], path[i + 1])
            out.extend(e for e, w in self._adj[c].items() if w not in ends)
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
        """True iff each input forest has a witness that removes it to this
        one; False also for a witness that names an edge its forest lacks."""
        if len(self.witnesses) != instance.m:
            return False
        for f, removed in zip(instance.forests, self.witnesses):
            try:
                cut = f.remove_edges(removed)
            except ForestError:
                return False
            if not cut.same_structure(self.forest):
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


class _Hung:
    """One forest hung once, with the Steiner subtree of each part of a
    label partition claimed in it.

    :func:`subforest_witness` hangs the larger forest over the smaller's
    partition, and :func:`~mafkit.approx.coarsen` each input tree over an
    agreement forest's.  ``up`` comes from :meth:`Forest._hanging`, and
    ``depth`` counts the vertices above each vertex.  ``lo`` and ``size``
    number the vertices in a preorder of that hanging, so the vertices below
    ``v`` are those numbered ``lo[v]`` up to but excluding ``lo[v] +
    size[v]``, and ``at`` gives each label its leaf's number.  ``owner``
    maps every vertex of a part's Steiner subtree to a part id, which
    ``coarsen`` may have joined since, and ``top`` maps each part id to the
    highest vertex of its subtree.  Where two parts' subtrees share a
    vertex, the part claimed later owns it.
    """

    __slots__ = ("forest", "up", "depth", "lo", "size", "at", "owner", "top")

    def __init__(self, forest: Forest, parts):
        order, up = forest._hanging()
        size = dict.fromkeys(order, 1)
        for v in reversed(order):  # children before parents
            p = up.get(v)
            if p is not None:
                size[p] += size[v]
        depth, lo, free = {}, {}, {}
        numbered = 0
        for v in order:  # parents before children
            p = up.get(v)
            if p is None:
                depth[v], lo[v] = 0, numbered
                numbered += size[v]
            else:
                depth[v], lo[v] = depth[p] + 1, free[p]
                free[p] += size[v]
            free[v] = lo[v] + 1
        self.forest, self.up, self.depth, self.lo, self.size = forest, up, depth, lo, size
        leaf = forest._label_vertex
        self.at = {lid: lo[v] for lid, v in leaf.items()}
        self.owner, self.top = {}, {}
        for pid, labs in enumerate(parts):
            self._claim(pid, [leaf[l] for l in labs])

    def _claim(self, pid, leaves):
        """Mark the Steiner subtree of ``leaves`` as part ``pid``'s.

        Its top is the least common ancestor of the first and the last leaf
        in preorder, and every other vertex lies on the way up from a leaf
        to it, so each leaf climbs until it meets a vertex already marked.
        ``ForestError`` is raised if the leaves lie in two components.
        """
        up, depth, owner = self.up, self.depth, self.owner
        x = min(leaves, key=self.lo.__getitem__)
        y = max(leaves, key=self.lo.__getitem__)
        while x != y:
            if depth[x] < depth[y]:
                x, y = y, x
            x = up.get(x)
            if x is None:
                raise ForestError("a part spans two components of an input tree")
        self.top[pid] = x
        owner[x] = pid
        for v in leaves:
            while owner.get(v) != pid:
                owner[v] = pid
                v = up[v]

    def below(self, v, labs):
        """The labels of ``labs`` whose leaves lie below ``v``."""
        lo, at = self.lo[v], self.at
        hi = lo + self.size[v]
        return frozenset(l for l in labs if lo <= at[l] < hi)

    def apart(self, live) -> list[int]:
        """Ids of the edges that no one part holds at both ends, each part
        id ``pid`` of ``owner`` read as ``live[pid]``: the edges the forest
        loses when cut to the parts' Steiner subtrees."""
        up = self.up
        part = {v: live[pid] for v, pid in self.owner.items()}
        # an edge with an end no part holds is apart (the defaults differ)
        ends = [v for v, p in up.items() if part.get(v, -1) != part.get(p, -2)]
        return self.forest._edges_up(ends, up)


def subforest_witness(sub: Forest, sup: Forest):
    """Edge set E with ``sup.remove_edges(E)`` isomorphic to ``sub``, or None.

    Both forests are expanded to original labels first.  A component of the
    candidate embeds as the contracted Steiner subtree of its labels, the
    least subtree that holds them, so the only candidate for E is the set
    of edges outside those subtrees.  ``sup`` is hung once as a
    :class:`_Hung` over ``sub``'s label partition, which claims each part's
    subtree, and E is the set of edges that no one part holds at both ends
    (:meth:`_Hung.apart`); a part whose labels lie in two components of
    ``sup`` has no subtree, and the answer is None.  The witness is then
    checked by the removal it names, as :meth:`AgreementForest.verify`
    checks it.  Subtrees that share a vertex, where a later claim overwrote
    an earlier one, or one whose contraction differs from its component,
    fail that test: then ``sub`` is no subforest, as the subtrees of a
    subforest's parts are disjoint and E is exactly the edges outside them.
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
    parts = sub.label_partition()
    try:
        hung = _Hung(sup, parts)
    except ForestError:
        return None
    witness = frozenset(hung.apart(range(len(parts))))
    return witness if sup.remove_edges(witness).same_structure(sub) else None


def is_subforest(sub: Forest, sup: Forest) -> bool:
    """True iff some edge removal turns ``sup`` into ``sub`` (up to contraction)."""
    return subforest_witness(sub, sup) is not None
