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

Reading and writing take time linear in the text and have no depth limit.
Each line is split once, in C, on its structural characters, and the pieces
are read in one left-to-right pass with an explicit stack of open vertices
that builds the forest's own maps as it goes; forced contraction then starts
from the outermost vertex alone (see :func:`_parse_tree`).  The writer walks
no tree: it renders each component's canonical code (see
:meth:`Forest.canonical_key`), which holds the one order of children, in one
pass with an explicit stack (see :func:`_code_text`).
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


# A line splits into text pieces and the structural characters between them;
# the whitespace around a structural character goes with it, so a text piece
# is '' or a label unless the line is malformed.  ``\w`` is exactly
# ``str.isalnum`` plus '_', and ``\s`` exactly ``str.isspace``.
_DELIM = re.compile(r"\s*([(),;:])\s*")
_ODD = re.compile(r"[^\w.]").search
_LEAD = re.compile(r"[\w.]*").match
_SPACE = re.compile(r"\s*").match


def _parse_tree(s, line_no, rooted, top):
    """Read one tree, building the forest's maps as it goes.

    Vertex ids count up from ``top`` in preorder, with ρ at 0 when rooted;
    the outermost vertex hangs from ``top - 1``, ρ or a stand-in whose edge
    is dropped.  Edge ids count up as subtrees close.  Returns the maps (the
    labels still names) with ``top``, and the parent of every ρ leaf; or
    None if ρ is the outermost vertex's only other child, which makes that
    vertex ρ: read the line again with ``top`` 0.
    """
    pieces = _DELIM.split(s)
    plain = _ODD("".join(pieces[::2])) is None   # every text piece '' or a label
    pieces.append("")         # the end of the line, as a last delimiter
    vlabel = {0: RHO} if rooted else {}
    adj = {0: {}} if rooted else {}
    inner, edges = {}, {}     # inner: internal rows, added as their first child closes
    rho_at, stack = [], []    # stack: (vertex, row) of every vertex open around p
    p, prow = top - 1, adj[0] if top else {}
    v, e, k = top, 0, 0

    def fail(message, k, off=0):
        # no message: the closing delimiter the open vertices call for; the
        # column is that of the first non-space at or after ``off`` in piece k
        message = message or ("expected ',' or ')'" if stack else "expected ';'")
        starts = [0]
        for m in _DELIM.finditer(s):
            starts += m.start(1), m.end()
        col = (starts + [len(s)])[k] + _SPACE(pieces[k], off).end() + 1
        return NewickError(message, line_no, col)

    while True:
        # a subtree starts at text piece k
        t = pieces[k]
        k += 1
        if not t:
            if pieces[k] != "(":
                raise fail("expected a label or '('", k)
            stack.append((p, prow))
            p, prow = v, {}
            v += 1
            k += 1
            continue
        if not plain and (lead := _LEAD(t).end()) < len(t):
            raise fail(None if lead else "expected a label or '('", k - 1, lead)
        if t == RHO:
            rho_at.append(p)
        else:
            vlabel[v] = t
            row = adj[v] = {e: p}
            edges[e] = (p, v)
            if not prow:
                inner[p] = prow
            prow[e] = v
            v += 1
            e += 1
        # a subtree has closed; piece k is the delimiter after it
        while True:
            d = pieces[k]
            if d == ":":
                t = pieces[k + 1]
                # str.isdigit, not the regex \d: it also takes digits such as '²'
                j = 0
                while j < len(t) and (t[j].isdigit() or t[j] in ".eE+-"):
                    j += 1
                if not j:
                    raise fail("expected a number after ':'", k + 1)
                try:
                    float(t[:j])
                except ValueError:
                    raise fail(f"bad branch length {t[:j]!r}", k + 1) from None
                if j < len(t):
                    raise fail(None, k + 1, j)
                k += 2
                d = pieces[k]
            if not stack:
                if d != ";":
                    raise fail(None, k)
                if pieces[k + 1] or len(pieces) > k + 3:
                    raise fail("trailing text after ';'", k + 1 if pieces[k + 1] else k + 2)
                if top and rho_at == [top] and len(row) == 2:
                    return None
                if p < 0 and e:   # no edge when the tree is ρ alone, an error
                    e -= 1
                    del edges[e], row[e], inner[p]
                adj.update(inner)
                return (vlabel, adj, edges, v, e, top), rho_at
            if d == ",":
                k += 1
                break
            if d != ")":
                raise fail(None, k)
            if len(prow) < 2 and len(prow) + rho_at.count(p) < 2:
                raise fail("internal node needs at least two children", k, 1)
            row = prow
            q, prow = stack.pop()
            edges[e] = (q, p)
            if not prow:
                inner[q] = prow
            prow[e] = p
            row[e] = q
            e += 1
            p = q
            t = pieces[k + 1]
            if t:
                raise fail(_LEAD(t).end() and "internal node labels are not supported", k + 1)
            k += 2


def _tree_to_forest(tree, rooted, table: LabelTable, line_no) -> Forest:
    """Forest of a tree read by :func:`_parse_tree`; only its outermost vertex
    can contract."""
    names, adj, edges, next_v, next_e, top = tree
    vlabel = dict(zip(names, map(table.id_of, names.values())))
    f = Forest(rooted, table, vlabel, adj, edges, next_v, next_e,
               dict(zip(vlabel.values(), vlabel)))
    try:
        return f._settle([top])
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
        got = _parse_tree(line, line_no, rooted, int(rooted))
        tree, rho_at = got or _parse_tree(line, line_no, rooted, 0)
        # a ':' in a tree that was read is a branch length
        saw_lengths = saw_lengths or ":" in line
        names, top = tree[0], tree[-1]
        taxa = set(names.values())
        if len(taxa) != len(names) or len(rho_at) > 1:
            leaves = [*names.values()][rooted:] + [RHO] * len(rho_at)
            dup = min(n for n, count in Counter(leaves).items() if count > 1)
            raise NewickError(f"duplicate leaf label {dup!r}", line_no)
        if rho_at:
            if not rooted:
                raise NewickError(f"label {RHO!r} is reserved", line_no)
            if rho_at[0] != top:
                raise NewickError(
                    f"{RHO!r} may only appear once, as a child of the outermost node",
                    line_no,
                )
        taxa.discard(RHO)
        parsed.append((line_no, tree, frozenset(taxa)))
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


def _code_text(code, names, start=0) -> str:
    """Newick text of a flat canonical code (see ``forest._flat_codes``) from
    index ``start`` on, in one pass with an explicit stack that holds, for
    every open vertex, the number of its children still to come."""
    out, left = [], []
    for i in range(start, len(code), 2):
        if left and out[-1] != "(":
            out.append(",")
        if code[i + 1]:
            out.append("(")
            left.append(code[i + 1])
            continue
        out.append(names[code[i]])
        while left:
            left[-1] -= 1
            if left[-1]:
                break
            left.pop()
            out.append(")")
    return "".join(out)


def _component_text(code, names, rooted) -> str:
    top = code[0]
    if len(code) == 2 or top < 0:
        return _code_text(code, names)
    # a labeled top has one child: ρ when rooted, else the leaf with the
    # least label id
    if not code[3]:
        pair = [names[code[2]], names[top]]
        return "(" + ",".join(pair if rooted else sorted(pair)) + ")"
    text = _code_text(code, names, 2)
    if rooted:
        # ρ prints as the last leaf of the outermost node
        return text[:-1] + "," + names[top] + ")"
    # the hub's children follow the top leaf, which sorts first among them
    return "(" + names[top] + "," + text[1:]


def serialize(f: Forest) -> str:
    """Canonical Newick text, one ';'-terminated line per component.

    Each line writes out a code of :meth:`Forest.canonical_key`, so children
    go by the least label id below them.  Rooted components print from their
    root, with ρ emitted as a leaf of the outermost node; components go by
    their least label id.  A grouped leaf joins the names of its originals
    (see :meth:`Forest.originals`) with '+'.
    ``parse_instance(serialize(tree))`` round-trips for single-tree forests.
    """
    names = [lab.name for lab in f.labels]
    if f.has_grouped_labels():
        for lid in f.label_ids():
            names[lid] = "+".join(map(f.labels.name, f.originals(lid)))
    codes = sorted(f.canonical_key()[1],
                   key=lambda code: min(lid for lid in code[::2] if lid >= 0))
    return "\n".join(_component_text(code, names, f.rooted) + ";" for code in codes)


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
