"""Parsing and serialization: grammar, validation, round trips."""

import re
import sys
import warnings

import pytest

import mafkit as mk
from mafkit import newick

from helpers import (
    components_by_walk,
    name_by_records,
    parse_by_match,
    parse_by_recursion,
    random_forest,
    random_tree,
    serialize_by_accessors,
)


def test_parse_rooted_attaches_rho():
    inst = mk.parse_instance("((a,b),c);", rooted=True)
    f = inst.forests[0]
    assert f.order() == 1
    assert sorted(f.labels.name(l) for l in f.label_ids()) == ["a", "b", "c", "ρ"]


def test_parse_preserves_multifurcation():
    f = mk.parse_instance("(a,b,c,d);", rooted=False).forests[0]
    hubs = [v for v in f.vertices() if f.label_of(v) is None]
    assert len(hubs) == 1
    assert f.degree(hubs[0]) == 4


def test_parse_label_set_mismatch():
    with pytest.raises(mk.NewickError, match="differs"):
        mk.parse_instance("((a,b),c);\n((a,c),d);", rooted=True)


def test_parse_duplicate_label():
    with pytest.raises(mk.NewickError, match="duplicate"):
        mk.parse_instance("((a,b),a);", rooted=True)


def test_parse_empty_input():
    with pytest.raises(mk.NewickError, match="no trees"):
        mk.parse_instance("# just a comment\n\n", rooted=True)


def test_parse_syntax_errors():
    for bad in ["((a,b);", "(a);", "a,b;", "((a,b)),c;", "(a,b)"]:
        with pytest.raises(mk.NewickError):
            mk.parse_instance(bad, rooted=True)


def test_parse_internal_labels_rejected():
    with pytest.raises(mk.NewickError, match="internal node labels"):
        mk.parse_instance("((a,b)x,c);", rooted=True)


def test_parse_rho_reserved_deep():
    with pytest.raises(mk.NewickError):
        mk.parse_instance(f"((a,{mk.RHO}),b);", rooted=True)
    with pytest.raises(mk.NewickError):
        mk.parse_instance(f"((a,b),{mk.RHO});", rooted=False)


def test_parse_rho_accepted_at_top_level():
    inst = mk.parse_instance(f"((a,b),c,{mk.RHO});", rooted=True)
    ref = mk.parse_instance("((a,b),c);", rooted=True)
    assert inst.forests[0].same_structure(ref.forests[0])


def test_branch_lengths_discarded_with_warning():
    with pytest.warns(mk.NewickWarning):
        inst = mk.parse_instance("((a:1,b:2.5):0.1,c:3e-2);", rooted=True)
    ref = mk.parse_instance("((a,b),c);", rooted=True)
    assert inst.forests[0].same_structure(ref.forests[0])


def test_comments_and_blank_lines_ignored():
    text = "# header\n\n((a,b),c);\n# middle\n((a,c),b);\n"
    inst = mk.parse_instance(text, rooted=True)
    assert inst.m == 2


def test_whitespace_tolerated():
    inst = mk.parse_instance(" ( ( a , b ) , c ) ;", rooted=True)
    ref = mk.parse_instance("((a,b),c);", rooted=True)
    assert inst.forests[0].same_structure(ref.forests[0])


def test_serialize_canonical_child_order():
    inst = mk.parse_instance("((b,a),c);", rooted=True)
    assert mk.serialize(inst.forests[0]) == "((a,b),c,ρ);"


def test_serialize_singletons():
    f = mk.parse_instance("((a,b),c);", rooted=True).forests[0]
    g = f.remove_edges(sorted(f.edge_ids()))
    assert mk.serialize(g) == "a;\nb;\nc;\nρ;"


def test_round_trip_random_trees(rng):
    for rooted in (True, False):
        for _ in range(50):
            t = random_tree(rng, rng.randint(3, 10), rooted)
            text = mk.serialize(t)
            back = mk.parse_instance(text, rooted).forests[0]
            assert back.same_structure(t)
            assert mk.serialize(back) == text


def test_serialize_forest_components_stable(rng):
    # forests (multi-component) serialize deterministically, one line each
    for _ in range(10):
        f = random_forest(rng, 6, rooted=True, max_cuts=3)
        text = mk.serialize(f)
        assert text.count(";") == f.order()
        assert mk.serialize(f) == text


def test_format_instance_round_trip():
    spec = mk.GenSpec(n=6, m=3, x=1, seed=5)
    inst = mk.generate_instance(spec)
    text = mk.format_instance(inst, header=spec.header())
    assert text.startswith("# spec n=6")
    back = mk.parse_instance(text, rooted=True)
    for f, g in zip(inst.forests, back.forests):
        assert f.same_structure(g)


def test_format_instance_rejects_forests():
    f = mk.parse_instance("((a,b),c);", rooted=True).forests[0]
    cut = f.remove_edges([f.pendant_edge(f.labels.id_of("a"))])
    inst = mk.Instance(rooted=True, forests=(cut,))
    with pytest.raises(mk.MafError):
        mk.format_instance(inst)


# -- the one-pass reader against the recursive reference --------------------


def _read(parse, text, rooted):
    """Every observable of one parse: the forests, or the error raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            inst = parse(text, rooted)
        except mk.NewickError as exc:
            return ("error", str(exc), exc.line, exc.col)
    forests = [
        (list(f._vlabel.items()), list(f._edges.items()), list(f._adj.items()))
        for f in inst.forests
    ]
    return forests, [str(w.message) for w in caught]


def _assert_reads_like_reference(text, rooted):
    got = _read(mk.parse_instance, text, rooted)
    assert got == _read(parse_by_recursion, text, rooted), text
    return got[0] != "error"


def test_label_alphabet_is_isalnum_dot_underscore():
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    label = {m.start() for m in re.finditer(r"[\w.]", everything)}
    assert label == {i for i, ch in enumerate(everything) if ch.isalnum() or ch in "._"}
    # the reader's label test, and its split: the whitespace around a
    # structural character goes with it, so labels come out bare
    assert [newick._LEAD(t).end() for t in ("ab_1.x", "é²", "a b", "a-b")] == [6, 2, 1, 1]
    pieces = newick._DELIM.split("ab_1.x \u00a0:\u2003é²\u2003,c")
    assert pieces == ["ab_1.x", ":", "é²", ",", "c"]


def test_reader_whitespace_is_regex_space():
    # lines are stripped with str.strip and split on \s: the two agree on
    # every code point, and each such character that does not end a line
    # reads as whitespace
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    space = {m.start() for m in re.finditer(r"\s", everything)}
    assert space == {i for i, ch in enumerate(everything) if ch.isspace()}
    ref = mk.parse_instance("((a,b),c);", rooted=True).forests[0]
    for ch in sorted(ch for ch in map(chr, space) if len(f"a{ch}b".splitlines()) == 1):
        text = f"{ch}({ch}({ch}a{ch},b{ch}:{ch}1{ch}){ch},c{ch}){ch};{ch}"
        with pytest.warns(mk.NewickWarning):
            f = mk.parse_instance(text, rooted=True).forests[0]
        assert _maps(f) == _maps(ref)


def _maps(f):
    """Every map of a forest value, in insertion order."""
    return (list(f._vlabel.items()), list(f._edges.items()), list(f._adj.items()),
            f._next_v, f._next_e)


def _dress(rng, text):
    """Insert branch lengths and whitespace at random token boundaries."""
    out = []
    for tok in re.findall(r"[^(),;]+|.", text):
        if rng.random() < 0.3:
            out.append(rng.choice([" ", "\t", "\u00a0", "  "]))
        out.append(tok)
        if tok not in "(,;" and rng.random() < 0.3:
            out.append(rng.choice([":1", ":0.5", ": 2e-3", ":+1.5E+2", ":7."]))
    return "".join(out)


def test_reader_matches_recursive_reference(rng):
    shapes = set()
    for _ in range(300):
        rooted = rng.random() < 0.5
        inst = mk.generate_instance(mk.GenSpec(
            n=rng.randint(3, 12), m=2, x=rng.randint(0, 3),
            seed=rng.randrange(10**9), rooted=rooted,
        ))
        lines = [mk.serialize(f) for f in inst.forests]
        if rooted and rng.random() < 0.5:
            # ρ absent: the reader attaches it
            lines = [t.replace(",ρ);", ");") for t in lines]
        dressed = rng.random() < 0.5
        if dressed:
            lines = [_dress(rng, t) for t in lines]
        if rng.random() < 0.3:
            lines.insert(1, "# comment")
        assert _assert_reads_like_reference("\n".join(lines) + "\n", rooted)
        shapes.add((rooted, "ρ" in lines[0], dressed))
    assert len(shapes) == 6  # ρ is written in rooted text only


ERROR_KINDS = [
    "expected a label or '('", "expected ',' or ')'", "expected ';'",
    "trailing text after ';'", "internal node needs at least two children",
    "internal node labels are not supported", "expected a number after ':'",
    "bad branch length", "duplicate leaf label", "label 'ρ' is reserved",
    "'ρ' may only appear once", "leaf label set differs", "no trees in input",
]


def _error_kind(message):
    return next(kind for kind in ERROR_KINDS if message.startswith(kind))


MALFORMED = [
    "", "   ", ";", "a", "a;b;", "a;;", "(a);", "()", "(,a);", "(a,);", "((a,b);",
    "(a,b));", "(a,b)c;", "(a,b) c;", "(a,b):;", "(a,b): ;", "(a:x,b);", "(a:1..2,b);",
    "(a:²,b);", "(a:1e,b);", "(a,b)", "(a,b);x", "(a,b); ;", "(a b,c);", "a,b;",
    "((a,b)),c;", "(a,a);", "((a,b),(b,c));", "(a,ρ);", "((a,ρ),b);", "(ρ,ρ,a);", "ρ;",
    "(a,b,ρ);", "(ρ,(a,b));", "(a,(b,c),ρ);", "(a,b);\n(a,c);", "(a,b);\n(a,b,c);",
    "(a,[b]);", "('a',b);", "(a,b)\n;", "(a, b)\u2003;", "(é,ü);", "(a,b)x:1;",
    "(a:1,b:2):3;", "(a:1 ,b : 2) :3 ;", "((a,b),c):1:2;", "a;", "(((a,b),c),(d,e));",
]


def test_reader_matches_reference_on_malformed_input(rng):
    errors = set()
    for text in MALFORMED:
        for rooted in (True, False):
            if not _assert_reads_like_reference(text, rooted):
                errors.add(_error_kind(_read(mk.parse_instance, text, rooted)[1]))
    # random edits of valid trees
    alphabet = list("(),;: ab.1") + ["ρ", "e", "-", "²", "\u00a0", ":1", "x"]
    for _ in range(1500):
        chars = list(mk.serialize(random_tree(rng, rng.randint(3, 7), rooted=True)))
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(chars) + 1)
            op = rng.random()
            if op < 0.35 and pos < len(chars):
                del chars[pos]
            elif op < 0.7 or pos == len(chars):
                chars.insert(pos, rng.choice(alphabet))
            else:
                chars[pos] = rng.choice(alphabet)
        text = "".join(chars)
        for rooted in (True, False):
            if not _assert_reads_like_reference(text, rooted):
                errors.add(_error_kind(_read(mk.parse_instance, text, rooted)[1]))
    # every error the reader can raise was met
    assert errors == set(ERROR_KINDS)


def test_reader_maps_match_the_match_reference(rng):
    # every map in insertion order, on instances up to n = 2000: ρ absent,
    # ρ beside several siblings (as written) and ρ beside one
    shapes = set()
    sizes = [rng.randint(3, 12) for _ in range(60)] + [200, 2000]
    for n in sizes:
        for rooted in (True, False):
            inst = mk.generate_instance(mk.GenSpec(
                n=n, m=2, x=rng.randint(0, 3), seed=rng.randrange(10**9), rooted=rooted,
            ))
            written = [mk.serialize(f) for f in inst.forests]
            variants = {"as written": written}
            if rooted:
                bare = [t.replace(",ρ);", ");") for t in written]
                variants["ρ absent"] = bare
                variants["ρ beside one"] = ["(" + t[:-1] + ",ρ);" for t in bare]
            for shape, lines in variants.items():
                if n < 2000 and rng.random() < 0.5:
                    lines = [_dress(rng, t) for t in lines]
                    shape += ", dressed"
                lines = ["# comment", lines[0], "", "# another", *lines[1:]]
                text = "\n".join(lines) + "\n"
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", mk.NewickWarning)
                    got = [_maps(f) for f in mk.parse_instance(text, rooted).forests]
                    want = [_maps(f) for f in parse_by_match(text, rooted).forests]
                assert got == want, text[:200]
                shapes.add((rooted, shape))
    assert len(shapes) == 8


def test_serialize_matches_the_accessor_reference(rng):
    # plain trees and forests, and forests whose labels are grouped, in
    # chains, so that groups nest
    for _ in range(100):
        rooted = rng.random() < 0.5
        f = random_forest(rng, rng.randint(3, 12), rooted)
        assert mk.serialize(f) == serialize_by_accessors(f)
        grouped = 0
        while (mss := f.find_mss()) is not None and grouped < 4:
            f = f.group_labels(mss)
            grouped += 1
            assert mk.serialize(f) == serialize_by_accessors(f)
    big = mk.generate_instance(mk.GenSpec(n=2000, m=2, x=5, seed=11)).forests[1]
    assert mk.serialize(big) == serialize_by_accessors(big)
    # every table above is in name order; here the names are shuffled over
    # the ids (ρ keeps its own), so that an unrooted single-edge tree, which
    # is written sorted by name, often reads apart from its code's order
    swapped = 0
    for _ in range(60):
        rooted = rng.random() < 0.5
        f = random_forest(rng, rng.randint(3, 12), rooted)
        names = [lab.name for lab in f.labels]
        taxa = [i for i, name in enumerate(names) if name != mk.RHO]
        for i, name in zip(taxa, rng.sample([names[i] for i in taxa], len(taxa))):
            names[i] = name
        leaves = {v: f.label_of(v) for v in f.vertices() if f.label_of(v) is not None}
        f = mk.Forest.build(rooted, mk.LabelTable.from_names(names), leaves,
                            [f.edge_ends(e) for e in f.edge_ids()])
        while True:
            assert mk.serialize(f) == serialize_by_accessors(f)
            for comp in components_by_walk(f):
                if not rooted and len(comp) == 2:
                    a, b = sorted(map(f.label_of, comp))
                    swapped += name_by_records(f, a) > name_by_records(f, b)
            if (mss := f.find_mss()) is None:
                break
            f = f.group_labels(mss)
    assert swapped > 10
