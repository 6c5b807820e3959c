"""Shared test utilities: brute-force references and random generators.

The enumeration helpers here are intentionally dumb.  They define the ground
truth that the fast implementations are checked against, so they must stay
independent of the code paths they validate.
"""

import contextlib
import itertools
import random
import re
import warnings
from collections import Counter, deque
from typing import NamedTuple

import pytest

import mafkit as mk
from mafkit import reduction


def components_by_walk(forest):
    """Reference for the components ``Forest._hanging`` finds: vertex sets,
    each walked from its least vertex not yet reached, in that order."""
    comps = []
    reached = set()
    for v0 in sorted(forest.vertices()):
        if v0 in reached:
            continue
        comp = {v0}
        stack = [v0]
        while stack:
            for _, w in forest.neighbors(stack.pop()):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        reached |= comp
        comps.append(frozenset(comp))
    return comps


def component_of(forest, v):
    """Vertex set of the component of ``forest`` that holds ``v``."""
    return next(comp for comp in components_by_walk(forest) if v in comp)


def labels_of(forest, comp):
    """Label ids on the vertices of ``comp``."""
    return frozenset(forest.label_of(v) for v in comp if forest.label_of(v) is not None)


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
    """Whether some edge subset of ``sup`` removes to ``sub``; both forests
    carry one label table, grouped or not."""
    return sub.canonical_key() in all_removal_keys(sup)


def joinable_by_removal(instance, parts, a, b):
    """Reference for the merge pass's pair test: whether joining parts
    ``a`` and ``b`` of the partition ``parts`` (label sets of an agreement
    forest of ``instance``) gives an agreement forest.

    The joined forest is the first tree with every edge removed that has no
    part's labels on both of its sides (by ``sides_by_walk``).  It must keep
    the joined partition, which fails when the joined part's subtree meets
    another part's, and be a subforest of every input tree.
    """
    joined = [p for p in parts if p not in (a, b)] + [a | b]
    f1 = instance.forests[0]
    cut = []
    for e in f1.edge_ids():
        one, two = sides_by_walk(f1, e)
        if not any(p & one and p & two for p in joined):
            cut.append(e)
    forest = f1.remove_edges(cut)
    if sorted(map(sorted, partition_by_walk(forest))) != sorted(map(sorted, joined)):
        return False
    return all(mk.is_subforest(forest, f) for f in instance.forests)


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


def greedy_essential_by_order(forest, eids):
    """Essential subset by one ``order_without`` per removed edge.

    Reference for ``essential_subset``, which decides every trial in one
    union-find pass over the pieces its local walks find.  ``eids`` must
    not repeat an id.
    """
    keep = sorted(eids)
    if not keep:
        return ()
    target = forest.order_without(keep)
    for e in sorted(eids):
        trial = [x for x in keep if x != e]
        if forest.order_without(trial) == target:
            keep = trial
    return tuple(keep)


def partition_by_walk(forest):
    """Reference for ``Forest.label_partition``: the label set of every
    component of ``components_by_walk``, listed in the partition's order.

    Rooted, a component comes where its root comes among ``vertices()``;
    unrooted, by the least label id it holds.
    """
    comps = components_by_walk(forest)
    if forest.rooted:
        place = {v: i for i, v in enumerate(forest.vertices())}
        comps.sort(key=lambda comp: min(place[v] for v in comp
                                        if forest.parent_vertex(v) is None))
    else:
        comps.sort(key=lambda comp: min(labels_of(forest, comp)))
    return [labels_of(forest, comp) for comp in comps]


def sides_by_walk(forest, eid):
    """Label sets of the two sides of edge ``eid`` (see
    :func:`vertex_sides_by_walk`)."""
    return [labels_of(forest, side) for side in vertex_sides_by_walk(forest, eid)]


def find_applicable_by_bfs(fp, fq):
    """Reference for ``find_applicable``: split and check every edge of ``fq``.

    One walk per side of every edge, in id order.  An edge is removable when
    one of its sides is a union of whole ``fp`` components, which come from
    their own walk (:func:`partition_by_walk`).  Returns the ids of every
    removable edge, in id order, or None.
    """
    comp_labels = partition_by_walk(fp)
    comp_of = {lid: c for c, labels in enumerate(comp_labels) for lid in labels}

    def covered(side):
        return all(comp_labels[comp_of[lid]] <= side for lid in side)

    found = [eid for eid in sorted(fq.edge_ids())
             if any(covered(labels_of(fq, side)) for side in vertex_sides_by_walk(fq, eid))]
    return tuple(found) or None


def vertex_sides_by_walk(forest, eid):
    """Vertex sets of the two sides of edge ``eid``, the side of its first
    end first, each walked from its end of the edge without crossing it."""
    sides = []
    for start in forest.edge_ends(eid):
        side = {start}
        stack = [start]
        while stack:
            for e, w in forest.neighbors(stack.pop()):
                if e != eid and w not in side:
                    side.add(w)
                    stack.append(w)
        sides.append(side)
    return sides


def reduce_by_steps(f1, f2):
    """Reference for ``reduce_pair``: the rule one edge at a time.

    Each round takes the first edge that :func:`find_applicable_by_bfs`
    finds removable from ``f2`` with ``f1`` as witness, else from ``f1``
    with ``f2`` as witness, removes it alone and starts again, until neither
    direction finds one.  Returns the pair and the number of removals.
    """
    pair = [f1, f2]
    removed = 0
    while True:
        for p, q in ((0, 1), (1, 0)):
            found = find_applicable_by_bfs(pair[p], pair[q])
            if found is not None:
                pair[q] = pair[q].remove_edges([found[0]])
                removed += 1
                break
        else:
            return pair[0], pair[1], removed


def is_closed(f1, f2):
    """Whether every component of ``f2`` is a union of components of
    ``f1``, by each forest's :func:`partition_by_walk`."""
    part_of = {lid: i for i, part in enumerate(partition_by_walk(f2)) for lid in part}
    return all(len({part_of[lid] for lid in part}) == 1 for part in partition_by_walk(f1))


@contextlib.contextmanager
def reductions_seen():
    """Record every ``reduce_pair`` call the two solvers make while open.

    Yields a list that gains ``(f1, f2, result)`` for each call.
    """
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for mod in (mk.fpt, mk.approx):
            def recorded(f1, f2, reduce_pair=mod.reduce_pair):
                got = reduce_pair(f1, f2)
                calls.append((f1, f2, got))
                return got

            mp.setattr(mod, "reduce_pair", recorded)
        yield calls


def reduction_preserves_optimum(f1, f2, reduced):
    """Whether the pair ``(f1, f2)`` and ``(f1, reduced)`` have one optimum,
    by ``brute_force_maf`` on each."""
    def opt(*forests):
        return mk.brute_force_maf(mk.Instance(rooted=f1.rooted, forests=forests)).opt_order

    return opt(f1, f2) == opt(f1, reduced)


def zero_sum_edges_by_walk(forest, weight):
    """Reference for ``reduction._candidates``: sorted ids of the edges whose
    side below, in the hanging of one full ``reduction._side_sums`` walk,
    has weight 0 mod 2^64.

    ``weight`` maps every label id of ``forest`` to an integer.  Each
    component's total, read at the one vertex of it left out of ``up``,
    must be 0 too, as the scan requires.
    """
    up, below = reduction._side_sums(forest, weight)
    for comp in components_by_walk(forest):
        (top,) = comp - up.keys()
        assert below[top] == 0, "a component of the scanned forest does not sum to 0"
    flagged = [v for v in up if not below[v]]
    return sorted(next(e for e, w in forest.neighbors(v) if w == up[v]) for v in flagged)


class Candidate(NamedTuple):
    """A maximal sibling set candidate of ``mss_candidates_by_scan``."""

    labels: frozenset
    hub: object  # the hub vertex; a single-edge tree's smaller leaf vertex


def mss_candidates_by_scan(forest):
    """Every maximal sibling set candidate, found by scanning every vertex.

    Reference for the sibling-set table behind ``Forest.find_mss``.  Rooted:
    an unlabeled vertex whose children are two or more leaves.  Unrooted: an
    unlabeled vertex with two or more leaf neighbors and at most one other
    neighbor (a full star also offers each one-leaf-short subset), plus the
    single-edge trees, whose hub is their smaller leaf vertex.
    """
    cands = []
    for p in forest.vertices():
        if forest.label_of(p) is not None:
            continue
        nbrs = [(e, w) for e, w in forest.neighbors(p)]
        if forest.rooted:
            kids = [w for e, w in nbrs if e != forest.parent_edge(p)]
            if len(kids) >= 2 and all(forest.label_of(w) is not None for w in kids):
                cands.append(Candidate(frozenset(forest.label_of(w) for w in kids), p))
            continue
        leaves = [forest.label_of(w) for _, w in nbrs if forest.label_of(w) is not None]
        extra = len(nbrs) - len(leaves)
        if len(leaves) >= 2 and extra <= 1:
            s = frozenset(leaves)
            cands.append(Candidate(s, p))
            if not extra and len(s) >= 3:
                cands.extend(Candidate(s - {lid}, p) for lid in s)
    if not forest.rooted:
        for comp in components_by_walk(forest):
            if len(comp) == 2:
                cands.append(Candidate(frozenset(forest.label_of(v) for v in comp), min(comp)))
    return cands


def find_mss_by_scan(forest):
    """Reference for ``Forest.find_mss``: the labels of the least candidate
    of a full scan, by least label id, then size, then the sorted ranks of
    its labels.  A label ranks as ``(0, id)``, or if grouped as ``(1, i)``
    for the i-th grouping in the forest's record of them, so of a full
    star's subsets the one that drops the newest group wins, or the largest
    label if none is grouped.  Also checks that ``Forest.sibling_case``
    names the candidate's hub."""
    cands = mss_candidates_by_scan(forest)
    if not cands:
        return None
    made = {g: i for i, g in enumerate(forest._groups)}

    def key(cand):
        ranks = sorted((1, made[l]) if l in made else (0, l) for l in cand.labels)
        return (min(cand.labels), len(ranks), ranks)

    best = min(cands, key=key)
    case = forest.sibling_case(best.labels)
    assert case.kind == "mss" and case.hub == best.hub
    return best.labels


def sibling_case_by_pairs(forest, lids):
    """Reference for the ``(kind, pair)`` of ``Forest.sibling_case``.

    The labels are sorted by id and every pair of them is tried
    in ``itertools.combinations`` order; the first pair that is not siblings
    (rooted: one parent; unrooted: one unlabeled neighbor, or a single-edge
    tree) is the case's pair, a split or a path by its components.
    """
    order = sorted(lids)
    verts = [forest.vertex_of_label(l) for l in order]

    def one_neighbor(v):
        return next((w for _, w in forest.neighbors(v)), None)

    def are_siblings(v1, v2):
        if forest.rooted:
            p1, p2 = forest.parent_vertex(v1), forest.parent_vertex(v2)
            return p1 is not None and p1 == p2
        if forest.degree(v1) == 1 and one_neighbor(v1) == v2:
            return True
        n1, n2 = one_neighbor(v1), one_neighbor(v2)
        return n1 is not None and n1 == n2 and forest.label_of(n1) is None

    for (a, va), (b, vb) in itertools.combinations(zip(order, verts), 2):
        if not are_siblings(va, vb):
            return ("path" if vb in component_of(forest, va) else "split"), (a, b)
    hub = forest.parent_vertex(verts[0]) if forest.rooted else one_neighbor(verts[0])
    if forest.label_of(hub) is not None:
        return "mss", None  # a single-edge tree
    up = forest.parent_vertex(hub) if forest.rooted else None
    surplus = sum(1 for _, w in forest.neighbors(hub) if w not in verts and w != up)
    if surplus <= (0 if forest.rooted else 1):
        return "mss", None
    return "siblings", (order[0], order[1])


def steiner_by_pruning(sup, leaf_vertices):
    """Reference for the Steiner subtree that ``forest._Hung`` claims.

    Copies the component holding ``leaf_vertices`` and prunes every leaf that
    is not a target until none is left; returns the vertex and edge sets.
    """
    targets = set(leaf_vertices)
    comp = component_of(sup, next(iter(targets)))
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


def rebuilt(forest):
    """``forest`` assembled again through ``Forest.build`` from its own parts:
    its labeled vertices and its edges, in edge-id order."""
    leaf_labels = {v: forest.label_of(v) for v in forest.vertices()
                   if forest.label_of(v) is not None}
    edges = [forest.edge_ends(e) for e in sorted(forest.edge_ids())]
    return mk.Forest.build(forest.rooted, forest.labels, leaf_labels, edges)


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


def audited_steps(instance):
    """``(record, before, after)`` for each record of the approximation of
    ``instance``: the working forests its step passed through, as the step
    handed them to ``check_metastep_ratio``."""
    steps = []
    audit = mk.approx.check_metastep_ratio

    def captured(rec, before, after):
        steps.append((rec, before, after))
        return audit(rec, before, after)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mk.approx, "check_metastep_ratio", captured)
        res = approximate(instance)
    assert [rec for rec, _, _ in steps] == list(res.trace)
    return steps


def _search_eagerly(forests, k, stats, depth, settle):
    """The exact search as it was before children were built on entry.

    Reference for ``fpt._search``: it derives every branch child before it
    enters the first, and each child over k counts its own leaf.  With
    ``settle`` a reduced pair at order k collapses when equal and is a leaf
    otherwise, as in ``fpt._search``; without it the pair goes through the
    case analysis whatever its order, and an equal pair groups down until
    its second forest has no sibling set.  Either way an equal reduced pair
    collapses to its first forest, at one site.
    """
    forests = list(forests)
    while True:
        f1 = forests[0]
        if len(forests) == 1:
            stats.leaves += 1
            return f1 if f1.order() <= k else None
        if f1.order() > k:
            stats.leaves += 1
            return None
        stats.nodes += 1
        f1, f2, trace = mk.reduce_pair(f1, forests[1])
        stats.rule1_edges += len(trace)
        if not settle or f1.order() < k:
            while (mss := f2.find_mss()) is not None:
                case = f1.sibling_case(mss)
                if case.kind != "mss":
                    break
                stats.case1 += 1
                stats.nodes += 1
                f1, f2 = f1.group_labels(mss), f2.group_labels(mss)
        elif f1.same_structure(f2):
            mss = None
        else:
            stats.leaves += 1
            return None
        if mss is None:
            stats.collapses += 1
            forests = [f1.expand_labels()] + forests[2:]
            continue

        if case.kind == "siblings":
            stats.case2 += 1
        elif case.kind == "split":
            stats.case31 += 1
        else:
            stats.case32 += 1
        a, b = case.pair
        branches = [(f1.remove_edges([f1.pendant_edge(lid)]),
                     f2.remove_edges([f2.pendant_edge(lid)])) for lid in (a, b)]
        branches += [(f1.remove_edges(cut), f2) for cut in case.cuts]
        stats.max_depth = max(stats.max_depth, depth + 1)
        rest = forests[2:]
        for nf1, nf2 in branches:
            found = _search_eagerly([nf1, nf2] + rest, k, stats, depth + 1, settle)
            if found is not None:
                return found
        return None


def solve_eagerly(instance, k, settle=True):
    """``(forest, SearchStats)`` of the reference search at parameter ``k``."""
    stats = mk.SearchStats(k=k)
    return _search_eagerly(list(instance.forests), k, stats, 0, settle), stats


def names(forest, lids):
    return sorted(forest.labels.name(l) for l in lids)


# ---------------------------------------------------------------------------
# recursive references for the Newick reader and the canonical key
#
# These are the recursive forms the package replaced with explicit stacks.
# They recurse once per tree level, so keep their inputs shallow.


def _is_label_char(ch):
    return ch.isalnum() or ch in "._"


class _LineParser:
    def __init__(self, text, line_no):
        self.s = text
        self.i = 0
        self.line = line_no
        self.saw_lengths = False

    def error(self, msg):
        raise mk.NewickError(msg, self.line, self.i + 1)

    def _ws(self):
        while self.i < len(self.s) and self.s[self.i].isspace():
            self.i += 1

    def _peek(self):
        self._ws()
        return self.s[self.i] if self.i < len(self.s) else ""

    def _label(self):
        self._ws()
        j = self.i
        while j < len(self.s) and _is_label_char(self.s[j]):
            j += 1
        name = self.s[self.i : j]
        self.i = j
        return name

    def _branch_length(self):
        if self._peek() == ":":
            self.i += 1
            self._ws()
            j = self.i
            while j < len(self.s) and (self.s[j].isdigit() or self.s[j] in ".eE+-"):
                j += 1
            if j == self.i:
                self.error("expected a number after ':'")
            try:
                float(self.s[self.i : j])
            except ValueError:
                self.error(f"bad branch length {self.s[self.i:j]!r}")
            self.i = j
            self.saw_lengths = True

    def subtree(self):
        ch = self._peek()
        if ch == "(":
            self.i += 1
            children = [self.subtree()]
            while True:
                ch = self._peek()
                if ch == ",":
                    self.i += 1
                    children.append(self.subtree())
                elif ch == ")":
                    self.i += 1
                    break
                else:
                    self.error("expected ',' or ')'")
            if len(children) < 2:
                self.error("internal node needs at least two children")
            if self._peek() and _is_label_char(self._peek()):
                self.error("internal node labels are not supported")
            self._branch_length()
            return ("node", children)
        name = self._label()
        if not name:
            self.error("expected a label or '('")
        self._branch_length()
        return ("leaf", name)

    def tree(self):
        t = self.subtree()
        if self._peek() != ";":
            self.error("expected ';'")
        self.i += 1
        if self._peek():
            self.error("trailing text after ';'")
        return t


def _leaf_names(node, out):
    if node[0] == "leaf":
        out.append(node[1])
    else:
        for ch in node[1]:
            _leaf_names(ch, out)
    return out


def _nested_tree_to_forest(node, rooted, table, line_no):
    counter = [0]
    leaf_labels = {}
    edges = []

    def fresh():
        counter[0] += 1
        return counter[0] - 1

    def build(nd):
        v = fresh()
        if nd[0] == "leaf":
            leaf_labels[v] = table.id_of(nd[1])
        else:
            for ch in nd[1]:
                w = build(ch)
                edges.append((v, w))
        return v

    rho_leaf = ("leaf", mk.RHO)
    if rooted:
        top_children = node[1] if node[0] == "node" else []
        if rho_leaf in top_children:
            rest = [ch for ch in top_children if ch != rho_leaf]
            inner = ("node", rest) if len(rest) > 1 else rest[0]
            rho_v = fresh()
            leaf_labels[rho_v] = table.id_of(mk.RHO)
            edges.append((rho_v, build(inner)))
        else:
            root_v = fresh()
            leaf_labels[root_v] = table.id_of(mk.RHO)
            edges.append((root_v, build(node)))
    else:
        build(node)
    try:
        return mk.Forest.build(rooted, table, leaf_labels, edges)
    except mk.MafError as exc:
        raise mk.NewickError(str(exc), line_no) from exc


def parse_by_recursion(text, rooted, name=""):
    """Reference for ``parse_instance``: a recursive-descent reader.

    Builds a nested ``("node", children)`` / ``("leaf", name)`` tree per line
    and numbers its vertices by a recursive walk.
    """
    parsed = []
    saw_lengths = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        p = _LineParser(line, line_no)
        tree = p.tree()
        saw_lengths = saw_lengths or p.saw_lengths
        names = _leaf_names(tree, [])
        dup = {n for n in names if names.count(n) > 1}
        if dup:
            raise mk.NewickError(f"duplicate leaf label {sorted(dup)[0]!r}", line_no)
        rho_count = names.count(mk.RHO)
        if rho_count:
            if not rooted:
                raise mk.NewickError(f"label {mk.RHO!r} is reserved", line_no)
            top = tree[1] if tree[0] == "node" else []
            if rho_count > 1 or ("leaf", mk.RHO) not in top:
                raise mk.NewickError(
                    f"{mk.RHO!r} may only appear once, as a child of the outermost node",
                    line_no,
                )
        parsed.append((line_no, tree, frozenset(names) - {mk.RHO}))
    if not parsed:
        raise mk.NewickError("no trees in input")
    if saw_lengths:
        warnings.warn("branch lengths were parsed and discarded", mk.NewickWarning)
    taxa = parsed[0][2]
    for line_no, _, names in parsed[1:]:
        if names != taxa:
            missing = sorted(taxa ^ names)
            raise mk.NewickError(
                f"leaf label set differs from the first tree (e.g. {missing[0]!r})",
                line_no,
            )
    ordered = sorted(taxa)
    if rooted:
        ordered.append(mk.RHO)
    table = mk.LabelTable.from_names(ordered)
    forests = tuple(
        _nested_tree_to_forest(tree, rooted, table, line_no) for line_no, tree, _ in parsed
    )
    return mk.Instance(rooted=rooted, forests=forests, name=name)


def _nested_down(forest, v, in_edge, edge_ok=None, contract=False):
    lid = forest.label_of(v)
    lid = -1 if lid is None else lid
    kids = [
        (e, w) for e, w in forest.neighbors(v)
        if e != in_edge and (edge_ok is None or e in edge_ok)
    ]
    if contract and lid == -1 and in_edge is not None and len(kids) == 1:
        return _nested_down(forest, kids[0][1], kids[0][0], edge_ok, contract)
    return (lid, tuple(sorted(_nested_down(forest, w, e, edge_ok, contract) for e, w in kids)))


def component_canonical_by_nesting(forest, comp):
    """Reference for one code of ``Forest.canonical_key``: ``(label, sorted
    children)`` nested per vertex of the component ``comp`` (a vertex set),
    from the root (rooted) or the least label (unrooted)."""
    if forest.rooted:
        root = next(v for v in comp if forest.parent_vertex(v) is None)
        return _nested_down(forest, root, None)
    anchor = min(
        (v for v in comp if forest.label_of(v) is not None), key=forest.label_of
    )
    return _nested_down(forest, anchor, None)


def canonical_key_by_nesting(forest):
    """Reference for ``Forest.canonical_key`` on nested tuples."""
    comps = sorted(
        component_canonical_by_nesting(forest, comp) for comp in components_by_walk(forest)
    )
    return (forest.rooted, tuple(comps))


def steiner_canonical_by_nesting(sup, vset, eset):
    """Reference for the Steiner-subtree key of ``subforest_witness``: nested
    tuples with pass-through vertices suppressed below the apex."""
    if sup.rooted:
        apex = next(v for v in vset if sup.parent_edge(v) not in eset)
    else:
        apex = min((v for v in vset if sup.label_of(v) is not None), key=sup.label_of)
    return _nested_down(sup, apex, None, eset, contract=True)


def random_binary_tree_by_recursion(n, seed):
    """Reference for ``datagen.random_binary_tree``: the recursive build.

    Each call numbers its vertex, cuts its label segment at a uniform
    position and builds the two parts; returns ``(leaf labels, edges)``.
    """
    rng = random.Random(seed)
    table = mk.datagen.taxa_table(n)
    items = list(range(1, n + 1))
    rng.shuffle(items)
    leaf_labels = {}
    edges = []
    counter = [0]

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
    leaf_labels[rho] = table.id_of(mk.RHO)
    edges.append((rho, top))
    return leaf_labels, edges


# ---------------------------------------------------------------------------
# the one-regex-per-token reader and the accessor-based writer
#
# References for ``parse_instance`` and ``serialize``: the reader matches one
# token at a time and builds each forest through ``Forest.build``; the writer
# asks the forest's public accessors for every vertex.

# After optional whitespace: a run of label characters (``\w`` is exactly
# ``str.isalnum`` plus '_'), else any one character, else '' at the end.
_TOKEN = re.compile(r"\s*(?:([\w.]+)|(.?))", re.DOTALL)
_SPACE = re.compile(r"\s*")


def _match_branch_length(s, i, line_no):
    i = _SPACE.match(s, i).end()
    j = i
    while j < len(s) and (s[j].isdigit() or s[j] in ".eE+-"):
        j += 1
    if j == i:
        raise mk.NewickError("expected a number after ':'", line_no, i + 1)
    try:
        float(s[i:j])
    except ValueError:
        raise mk.NewickError(f"bad branch length {s[i:j]!r}", line_no, i + 1) from None
    return j


def _match_tree(s, line_no):
    parent = []
    names = []
    done = []
    open_nodes = []
    counts = []
    saw_lengths = False
    match = _TOKEN.match
    i = 0
    while True:
        m = match(s, i)
        label, ch = m.groups()
        i = m.end()
        if open_nodes:
            counts[-1] += 1
            parent.append(open_nodes[-1])
        else:
            parent.append(-1)
        if ch == "(":
            open_nodes.append(len(names))
            counts.append(0)
            names.append(None)
            continue
        if label is None:
            raise mk.NewickError("expected a label or '('", line_no, i - len(ch) + 1)
        done.append(len(names))
        names.append(label)
        m = match(s, i)
        while True:
            label, ch = m.groups()
            if ch == ":":
                i = _match_branch_length(s, m.end(), line_no)
                saw_lengths = True
                m = match(s, i)
                label, ch = m.groups()
            at = m.end() - len(label or ch) + 1
            if not open_nodes:
                if ch != ";":
                    raise mk.NewickError("expected ';'", line_no, at)
                m = match(s, m.end())
                rest = m.group(1) or m.group(2)
                if rest:
                    raise mk.NewickError("trailing text after ';'", line_no,
                                         m.end() - len(rest) + 1)
                return parent, names, done, saw_lengths
            if ch == ",":
                i = m.end()
                break
            if ch != ")":
                raise mk.NewickError("expected ',' or ')'", line_no, at)
            i = m.end()
            if counts.pop() < 2:
                raise mk.NewickError("internal node needs at least two children",
                                     line_no, i + 1)
            m = match(s, i)
            if m.group(1) is not None:
                raise mk.NewickError("internal node labels are not supported", line_no,
                                     m.start(1) + 1)
            done.append(open_nodes.pop())


def _match_tree_to_forest(tree, rooted, table, line_no):
    parent, names, done = tree
    n = len(names)
    rho = names.index(mk.RHO) if rooted and mk.RHO in names else None
    tail = []
    if not rooted:
        vid = range(n)
    elif rho is None:
        vid = range(1, n + 1)
        tail.append((0, 1))
    elif parent.count(0) > 2:
        vid = [1, *range(2, rho + 1), 0, *range(rho + 1, n)]
        tail.append((0, 1))
    else:
        vid = [0, *range(1, rho), 0, *range(rho, n - 1)]
    leaf_labels = {0: table.id_of(mk.RHO)} if rooted else {}
    for v, name in enumerate(names):
        if name is not None and v != rho:
            leaf_labels[vid[v]] = table.id_of(name)
    edges = [(vid[parent[v]], vid[v]) for v in done[:-1] if v != rho]
    edges += tail
    try:
        return mk.Forest.build(rooted, table, leaf_labels, edges)
    except mk.MafError as exc:
        raise mk.NewickError(str(exc), line_no) from exc


def parse_by_match(text, rooted, name=""):
    """Reference for ``parse_instance``: one ``_TOKEN`` match per token.

    Reads each line into flat preorder arrays, then builds every forest
    through ``Forest.build`` with every vertex as a contraction seed.
    """
    parsed = []
    saw_lengths = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parent, names, done, lengths = _match_tree(line, line_no)
        saw_lengths = saw_lengths or lengths
        leaves = [n for n in names if n is not None]
        taxa = set(leaves)
        if len(taxa) != len(leaves):
            dup = min(n for n, count in Counter(leaves).items() if count > 1)
            raise mk.NewickError(f"duplicate leaf label {dup!r}", line_no)
        if mk.RHO in taxa:
            if not rooted:
                raise mk.NewickError(f"label {mk.RHO!r} is reserved", line_no)
            if parent[names.index(mk.RHO)] != 0:
                raise mk.NewickError(
                    f"{mk.RHO!r} may only appear once, as a child of the outermost node",
                    line_no,
                )
            taxa.discard(mk.RHO)
        parsed.append((line_no, (parent, names, done), frozenset(taxa)))
    if not parsed:
        raise mk.NewickError("no trees in input")
    if saw_lengths:
        warnings.warn("branch lengths were parsed and discarded", mk.NewickWarning)
    taxa = parsed[0][2]
    for line_no, _, names in parsed[1:]:
        if names != taxa:
            missing = sorted(taxa ^ names)
            raise mk.NewickError(
                f"leaf label set differs from the first tree (e.g. {missing[0]!r})",
                line_no,
            )
    ordered = sorted(taxa)
    if rooted:
        ordered.append(mk.RHO)
    table = mk.LabelTable.from_names(ordered)
    forests = tuple(
        _match_tree_to_forest(tree, rooted, table, line_no) for line_no, tree, _ in parsed
    )
    return mk.Instance(rooted=rooted, forests=forests, name=name)


def name_by_records(f, lid, end=None):
    """Reference for the name ``serialize`` gives a label: a grouped label's
    name read from the forest's record of groupings by recursion, its latest
    grouping before ``end`` first."""
    rec = f._groups.get(lid, ())
    end = len(rec) if end is None else end
    if not end:
        return f.labels.name(lid)
    start = max(i for i in range(end) if rec[i] == lid)
    return "+".join(name_by_records(f, p, start if p == lid else None)
                    for p in sorted(rec[start:end]))


def _accessor_subtree_text(f, top, up=None):
    label_of, neighbors = f.label_of, f.neighbors
    lid = label_of(top)
    if lid is not None:
        return name_by_records(f, lid)
    order = [top]
    parent = {top: up}
    children = {}
    mins = {}
    for v in order:
        kids = children[v] = [w for _, w in neighbors(v) if w != parent[v]]
        for w in kids:
            lid = label_of(w)
            if lid is not None:
                mins[w] = lid
            else:
                parent[w] = v
                order.append(w)
    for v in reversed(order):
        mins[v] = min(map(mins.__getitem__, children[v]))
    out = []
    stack = [iter((top,))]
    while stack:
        for v in stack[-1]:
            if out and out[-1] != "(":
                out.append(",")
            kids = children.get(v)
            if kids is None:
                out.append(name_by_records(f, label_of(v)))
                continue
            kids.sort(key=mins.__getitem__)
            out.append("(")
            stack.append(iter(kids))
            break
        else:
            stack.pop()
            if stack:
                out.append(")")
    return "".join(out)


def _accessor_component_text(f, comp):
    if len(comp) == 1:
        (v,) = comp
        return name_by_records(f, f.label_of(v))
    if f.rooted:
        root = next(v for v in comp if f.parent_vertex(v) is None)
        lid = f.label_of(root)
        if lid is not None and f.labels.name(lid) == mk.RHO:
            child = next(w for _, w in f.neighbors(root))
            text = _accessor_subtree_text(f, child, root)
            if f.label_of(child) is not None:
                return "(" + text + "," + mk.RHO + ")"
            return text[:-1] + "," + mk.RHO + ")"
        return _accessor_subtree_text(f, root)
    if len(comp) == 2:
        names = sorted(name_by_records(f, f.label_of(v)) for v in comp)
        return "(" + ",".join(names) + ")"
    anchor = min((v for v in comp if f.label_of(v) is not None), key=f.label_of)
    return _accessor_subtree_text(f, next(w for _, w in f.neighbors(anchor)))


def serialize_by_accessors(f):
    """Reference for ``serialize``: every vertex read through the accessors."""
    comps = sorted(
        components_by_walk(f),
        key=lambda comp: min(labels_of(f, comp)),
    )
    return "\n".join(_accessor_component_text(f, comp) + ";" for comp in comps)
