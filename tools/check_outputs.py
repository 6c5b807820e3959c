"""Compare the bytes the CLI and the writer produce with a record of digests.

    python3 tools/check_outputs.py tests/data/cli_outputs.json

Runs a small fixed corpus of generated instances, rooted and unrooted with
two to five trees, in-process and takes the sha256 digest of the following.
The generator draws every tree from the first, so one unrooted instance
also has its trees in another order: a fault that shows only when the
first tree is not that source tree (once, an unrooted lower bound above the
optimum) moves its digests.

* the ``maf gen`` text of every instance;
* the stdout of ``maf amaf --verify`` and ``maf pmaf --verify`` on it, with
  the ``wall_ms=`` times masked; ``maf pmaf`` gets two digests, ``pmaf`` for
  its stdout without the ``# k=`` summary line and ``pmaf-search`` for that
  line, so a change to the search's shape alone moves only the second;
* ``serialize`` of every forest along a chain of groupings and cuts that
  starts from the instance's trees.

These repeat exactly, and a change that is meant to leave the output alone
must not move them.  Exits 1 and names every digest that differs.  With
``--write`` it records the run's digests instead, and names every digest
that it changes with its old and new value; a change that is meant to change
the output records them again and says so.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from mafkit import cli, newick  # noqa: E402

# (n, m, x, seed, rooted): every tree count from 2 to 5, both kinds
CORPUS = (
    (14, 2, 2, 1, True),
    (30, 2, 3, 6, True),
    (12, 3, 1, 2, True),
    (20, 5, 2, 8, True),
    (10, 5, 1, 3, True),
    (14, 2, 2, 4, False),
    (25, 3, 2, 7, False),
    (10, 4, 1, 5, False),
    (16, 5, 1, 9, False),
)
# (n, m, x, seed, rooted), the order of the generated trees in the instance
REORDERED = (
    ((18, 3, 1, 1255, False), (1, 0, 2)),
)
_WALL = re.compile(r"wall_ms=[0-9.]+")
_SEARCH_LINE = "# k="


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"exit {code}\n" + _WALL.sub("wall_ms=*", out.getvalue())


def _sides(forest, eid):
    """The original labels on the two sides of an edge, sorted: a name that
    depends neither on how edge ids are handed out nor on the ids grouped
    labels get."""
    split = forest.split_labels(eid)
    return sorted(sorted(set().union(*map(forest.originals, side)))
                  for side in (split.side1, split.side2))


def _chain_text(forest, rng) -> str:
    """``serialize`` of ``forest`` and of every value along a chain from it.

    Each step groups the forest's maximal sibling set, or cuts an edge picked
    by the labels on its sides (edge ids are not part of the output), until
    no edge is left.
    """
    texts = [newick.serialize(forest)]
    while forest.edge_ids():
        mss = forest.find_mss()
        if mss is not None and rng.random() < 0.5:
            forest = forest.group_labels(mss)
        else:
            edges = sorted(forest.edge_ids(), key=lambda e: _sides(forest, e))
            forest = forest.remove_edges([edges[rng.randrange(len(edges))]])
        texts.append(newick.serialize(forest))
    return "\n".join(texts)


def split_search_line(text: str) -> tuple[str, str]:
    """``maf pmaf`` output without its ``# k=`` summary line, and that line."""
    lines = text.splitlines(keepends=True)
    return ("".join(l for l in lines if not l.startswith(_SEARCH_LINE)),
            "".join(l for l in lines if l.startswith(_SEARCH_LINE)))


def instances():
    """``(name, spec, tree order or None)`` of every corpus instance."""
    for spec, order in [(spec, None) for spec in CORPUS] + list(REORDERED):
        n, m, x, seed, rooted = spec
        name = f"t{n}-{m}-x{x}-s{seed}{'r' if rooted else 'u'}"
        yield name + (f"-o{''.join(map(str, order))}" if order else ""), spec, order


def digests() -> dict[str, str]:
    """Digest of every output of the corpus, by name."""
    out = {}

    def note(name, text):
        out[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()

    with tempfile.TemporaryDirectory() as tmp:
        for name, (n, m, x, seed, rooted), order in instances():
            kind = "--rooted" if rooted else "--unrooted"
            path = os.path.join(tmp, name + ".nwk")
            _run(["gen", "-n", str(n), "-m", str(m), "-x", str(x), "--seed", str(seed),
                  kind, "--out", path])
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if order:
                lines = text.splitlines(keepends=True)
                trees = [line for line in lines if not line.startswith("#")]
                text = "".join([line for line in lines if line.startswith("#")]
                               + [trees[i] for i in order])
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            note(f"gen {name}", text)
            note(f"amaf {name}", _run(["amaf", path, "--verify", kind]))
            rest, search = split_search_line(_run(["pmaf", path, "--verify", kind]))
            note(f"pmaf {name}", rest)
            note(f"pmaf-search {name}", search)
            rng = random.Random(seed)
            chains = [_chain_text(f, rng) for f in newick.parse_instance(text, rooted).forests]
            note(f"serialize {name}", "\n\n".join(chains))
    return out


def differences(recorded: dict[str, str], got: dict[str, str]) -> list[tuple]:
    """``(name, recorded digest, run's digest)`` for every digest that differs."""
    return [(name, recorded.get(name), got.get(name))
            for name in sorted(recorded.keys() | got.keys())
            if recorded.get(name) != got.get(name)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("record", help="JSON file: output name -> sha256 digest")
    p.add_argument("--write", action="store_true", help="record this run's digests")
    args = p.parse_args(argv)
    got = digests()
    try:
        with open(args.record, encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {}
    diffs = differences(record, got)
    if args.write:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=1, sort_keys=True)
            fh.write("\n")
        for name, was, now in diffs:
            print(f"{name}: {was} → {now}", file=sys.stderr)
        return 0
    for name, was, now in diffs:
        print(f"{name}: recorded {was}, run gave {now}", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
