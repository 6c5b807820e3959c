"""Deep trees: reading, solving, writing and keying have no depth limit.

A caterpillar over taxa 1..n written with taxon 1 in its innermost cherry is
n - 1 levels deep from its root and from its smallest leaf alike, so every
walk over it, rooted or unrooted, goes as deep as the tree is tall.  The
interpreter's default recursion limit is 1,000.
"""

import pytest

import mafkit as mk
from mafkit.cli import main

DEPTH = 2000


def caterpillar(labels):
    """Newick text of a caterpillar whose innermost cherry holds labels[:2]."""
    return "(" * (len(labels) - 1) + labels[0] + "".join(f",{x})" for x in labels[1:]) + ";"


def ladder(depth, rng):
    """Caterpillar over taxa 1..depth, taxon 1 innermost, the others shuffled."""
    rest = [str(i) for i in range(2, depth + 1)]
    rng.shuffle(rest)
    return caterpillar(["1"] + rest)


def round_trip(text, rooted):
    inst = mk.parse_instance(text, rooted)
    again = mk.parse_instance(
        "\n".join(mk.serialize(f) for f in inst.forests) + "\n", rooted
    )
    assert again.taxa_count() == inst.taxa_count() == DEPTH
    for f, g in zip(inst.forests, again.forests):
        assert f.same_structure(g)
        assert mk.serialize(g) == mk.serialize(f)
    return inst


@pytest.mark.parametrize("rooted", [True, False])
def test_deep_caterpillars_parse_solve_and_round_trip(rooted, tmp_path, capsys):
    labels = [str(i) for i in range(1, DEPTH + 1)]
    swapped = [labels[-1], *labels[1:-1], labels[0]]
    text = caterpillar(labels) + "\n" + caterpillar(swapped) + "\n"
    inst = round_trip(text, rooted)
    assert not inst.forests[0].same_structure(inst.forests[1])

    path = tmp_path / "deep.nwk"
    path.write_text(text)
    flag = "--rooted" if rooted else "--unrooted"
    assert main(["amaf", str(path), "--verify", flag]) == 0
    out = capsys.readouterr().out.splitlines()
    # cutting taxa 1 and n off both trees leaves an agreement forest of
    # order 3, so the approximation stays within its ratio of that
    order = int(out[0].split()[1])
    assert 2 <= order <= 3 * (3 if rooted else 4)
    assert out[-1] == "verified against 2 input trees"


@pytest.mark.parametrize("rooted", [True, False])
def test_deep_caterpillars_compare_without_keys(rooted, monkeypatch):
    # two binary caterpillars over one label set agree in every count, so
    # only the walk tells them apart, from the innermost cherry up
    labels = [str(i) for i in range(1, DEPTH + 1)]
    swapped = [labels[-1], *labels[1:-1], labels[0]]
    text = caterpillar(labels) + "\n" + caterpillar(swapped) + "\n"
    first, again = (mk.parse_instance(text, rooted).forests for _ in range(2))
    keyed = []
    monkeypatch.setattr(mk.Forest, "canonical_key", lambda self: keyed.append(self))
    for f, g in zip(first, again):
        assert f.same_structure(g) and g.same_structure(f)
    assert not first[0].same_structure(first[1])
    assert not again[1].same_structure(first[0])
    assert keyed == []


@pytest.mark.parametrize("rooted", [True, False])
def test_deep_ladder_round_trip(rooted, rng):
    text = ladder(DEPTH, rng) + "\n" + ladder(DEPTH, rng) + "\n"
    round_trip(text, rooted)


def test_deep_unclosed_input_is_a_newick_error(rng):
    text = ladder(DEPTH, rng)[:-2] + ";"  # the outermost ')' is missing
    with pytest.raises(mk.NewickError, match=r"expected ',' or '\)'") as info:
        mk.parse_instance(text, rooted=True)
    assert (info.value.line, info.value.col) == (1, len(text))

