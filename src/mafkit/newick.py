"""Newick parsing and serialization for multifurcating trees and forests.

Instance files are UTF-8 text with one ';'-terminated Newick tree per line;
'#'-prefixed lines are comments.  Labels are alphanumeric plus '_' and '.';
branch lengths are parsed and discarded with a warning; quoted labels and
internal node labels are not supported.

Rooted instances use the reserved root label "ρ".  User trees normally do not
contain it: a fresh ρ leaf is attached above the Newick root and becomes the
root of the tree.  A ρ leaf appearing as a direct child of the outermost node
is also accepted (that is how this package serializes rooted trees), in which
case the tree is re-rooted at it; ρ anywhere else is an error.

Reading and writing take time linear in the text and have no depth limit:
each line is read in one left-to-right pass with an explicit stack of open
nodes into flat preorder arrays, and a tree is written in linear passes
with explicit stacks (see :func:`_subtree_text`).
"""

from __future__ import annotations

import re
import warnings
from collections import Counter

from .forest import RHO, Forest, Instance, LabelTable, MafError


class NewickError(MafError):
    """Syntax or validation error in Newick input."""

    def __init__(self, message, line=None, col=None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.col = col


class NewickWarning(UserWarning):
    """Non-fatal input oddity, e.g. discarded branch lengths."""


# After optional whitespace: a run of label characters (``\w`` is exactly
# ``str.isalnum`` plus '_'), else any one character, else '' at the end.
_TOKEN = re.compile(r"\s*(?:([\w.]+)|(.?))", re.DOTALL)
_SPACE = re.compile(r"\s*")


def _branch_length(s, i, line_no):
    """Check the number after the ':' ending at ``s[i - 1]``; return its end."""
    i = _SPACE.match(s, i).end()
    j = i
    # str.isdigit, not the regex \d: it also takes digits such as '²'
    while j < len(s) and (s[j].isdigit() or s[j] in ".eE+-"):
        j += 1
    if j == i:
        raise NewickError("expected a number after ':'", line_no, i + 1)
    try:
        float(s[i:j])
    except ValueError:
        raise NewickError(f"bad branch length {s[i:j]!r}", line_no, i + 1) from None
    return j


def _parse_tree(s, line_no):
    """Read one tree into flat preorder arrays in one left-to-right pass.

    Returns ``(parent, names, done, saw_lengths)``: per vertex in preorder
    its parent's index (-1 for the outermost vertex) and its leaf name (None
    when internal), then the vertex indices in the order their subtrees
    close.  Internal vertices still open wait on an explicit stack.
    """
    parent = []
    names = []
    done = []
    open_nodes = []   # indices of the internal vertices not yet closed
    counts = []       # their child counts so far
    saw_lengths = False
    match = _TOKEN.match
    i = 0
    while True:
        # a subtree starts at i
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
            raise NewickError("expected a label or '('", line_no, i - len(ch) + 1)
        done.append(len(names))
        names.append(label)
        # a subtree has closed: read on to the start of the next one
        m = match(s, i)
        while True:
            label, ch = m.groups()
            if ch == ":":
                i = _branch_length(s, m.end(), line_no)
                saw_lengths = True
                m = match(s, i)
                label, ch = m.groups()
            at = m.end() - len(label or ch) + 1
            if not open_nodes:
                if ch != ";":
                    raise NewickError("expected ';'", line_no, at)
                m = match(s, m.end())
                rest = m.group(1) or m.group(2)
                if rest:
                    raise NewickError("trailing text after ';'", line_no,
                                      m.end() - len(rest) + 1)
                return parent, names, done, saw_lengths
            if ch == ",":
                i = m.end()
                break
            if ch != ")":
                raise NewickError("expected ',' or ')'", line_no, at)
            i = m.end()
            if counts.pop() < 2:
                raise NewickError("internal node needs at least two children", line_no, i + 1)
            m = match(s, i)
            if m.group(1) is not None:
                raise NewickError("internal node labels are not supported", line_no,
                                  m.start(1) + 1)
            done.append(open_nodes.pop())


def _tree_to_forest(tree, rooted, table: LabelTable, line_no) -> Forest:
    """Forest of one parsed tree: vertex ids in preorder, edges as subtrees close.

    A rooted tree puts its ρ leaf at vertex 0 with the rest in preorder
    behind it.  A ρ given as a child of the outermost vertex is moved there;
    when ρ had a single sibling, that sibling hangs from ρ and the outermost
    vertex is dropped.
    """
    parent, names, done = tree
    n = len(names)
    rho = names.index(RHO) if rooted and RHO in names else None
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
        # the outermost vertex maps onto ρ, so its one other child hangs there
        vid = [0, *range(1, rho), 0, *range(rho, n - 1)]
    leaf_labels = {0: table.id_of(RHO)} if rooted else {}
    id_of = table.id_of
    for v, name in enumerate(names):
        if name is not None and v != rho:
            leaf_labels[vid[v]] = id_of(name)
    # the outermost vertex closes last and has no parent
    edges = [(vid[parent[v]], vid[v]) for v in done[:-1] if v != rho]
    edges += tail
    try:
        return Forest.build(rooted, table, leaf_labels, edges)
    except MafError as exc:
        raise NewickError(str(exc), line_no) from exc


def parse_instance(text: str, rooted: bool, name: str = "") -> Instance:
    """Parse a multi-line Newick instance file into an :class:`Instance`.

    Every tree must cover the same leaf-label set.  In rooted mode the root
    leaf ρ is attached (or validated, see module docstring) per tree.
    """
    parsed = []
    saw_lengths = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parent, names, done, lengths = _parse_tree(line, line_no)
        saw_lengths = saw_lengths or lengths
        leaves = [n for n in names if n is not None]
        taxa = set(leaves)
        if len(taxa) != len(leaves):
            dup = min(n for n, count in Counter(leaves).items() if count > 1)
            raise NewickError(f"duplicate leaf label {dup!r}", line_no)
        if RHO in taxa:
            if not rooted:
                raise NewickError(f"label {RHO!r} is reserved", line_no)
            if parent[names.index(RHO)] != 0:
                raise NewickError(
                    f"{RHO!r} may only appear once, as a child of the outermost node",
                    line_no,
                )
            taxa.discard(RHO)
        parsed.append((line_no, (parent, names, done), frozenset(taxa)))
    if not parsed:
        raise NewickError("no trees in input")
    if saw_lengths:
        warnings.warn("branch lengths were parsed and discarded", NewickWarning)

    taxa = parsed[0][2]
    for line_no, _, names in parsed[1:]:
        if names != taxa:
            missing = sorted(taxa ^ names)
            raise NewickError(
                f"leaf label set differs from the first tree (e.g. {missing[0]!r})",
                line_no,
            )
    ordered = sorted(taxa)
    if rooted:
        ordered.append(RHO)
    table = LabelTable.from_names(ordered)
    forests = tuple(
        _tree_to_forest(tree, rooted, table, line_no) for line_no, tree, _ in parsed
    )
    return Instance(rooted=rooted, forests=forests, name=name)


# ---------------------------------------------------------------------------
# serialization


def _subtree_text(f: Forest, top, up=None) -> str:
    """Newick text of the subtree hanging at ``top`` away from neighbor ``up``.

    Children are ordered by the smallest original label id they contain.
    Three linear passes: list the subtree parents first, find the smallest
    label below every vertex walking that list backwards, then write the
    text with an explicit stack of child iterators.
    """
    label_of, neighbors, labels = f.label_of, f.neighbors, f.labels
    lid = label_of(top)
    if lid is not None:
        return labels.name(lid)
    order = [top]
    parent = {top: up}
    children = {}
    mins = {}
    for v in order:  # grows while it is walked
        kids = children[v] = [w for _, w in neighbors(v) if w != parent[v]]
        for w in kids:
            lid = label_of(w)
            if lid is not None:
                mins[w] = labels.min_original(lid)
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
                out.append(labels.name(label_of(v)))
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


def _component_text(f: Forest, idx) -> str:
    comp = f.components()[idx]
    if len(comp) == 1:
        (v,) = comp
        return f.labels.name(f.label_of(v))
    if f.rooted:
        root = f.component_root(idx)
        lid = f.label_of(root)
        if lid is not None and f.labels.name(lid) == RHO:
            # draw from ρ's child so ρ prints as an ordinary leaf
            child = next(w for _, w in f.neighbors(root))
            text = _subtree_text(f, child, root)
            if f.label_of(child) is not None:
                return "(" + text + "," + RHO + ")"
            return text[:-1] + "," + RHO + ")"
        return _subtree_text(f, root)
    if len(comp) == 2:
        names = sorted(f.labels.name(f.label_of(v)) for v in comp)
        return "(" + ",".join(names) + ")"
    anchor = min(
        (v for v in comp if f.label_of(v) is not None),
        key=lambda v: f.labels.min_original(f.label_of(v)),
    )
    return _subtree_text(f, next(w for _, w in f.neighbors(anchor)))


def serialize(f: Forest) -> str:
    """Canonical Newick text, one ';'-terminated line per component.

    Children are ordered by the smallest original label id they contain;
    rooted components print from their root, with ρ emitted as a leaf of the
    outermost node.  ``parse_instance(serialize(tree))`` round-trips for
    single-tree forests.
    """
    idxs = sorted(
        range(f.order()),
        key=lambda i: min(f.labels.min_original(l) for l in f.component_labels(i)),
    )
    return "\n".join(_component_text(f, i) + ";" for i in idxs)


def format_instance(instance: Instance, header: str = "") -> str:
    """Instance file text: optional '#' header comment plus one tree per line."""
    lines = []
    if header:
        lines.append("# " + header)
    for f in instance.forests:
        if f.order() != 1:
            raise MafError("instance files hold trees, not multi-component forests")
        lines.append(serialize(f))
    return "\n".join(lines) + "\n"
