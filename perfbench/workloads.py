"""The three benchmark workloads: their corpora, their operations and checks.

Every input is generated from the benchmark seed by ``mafkit.datagen`` (the
ladder trees of ``newick-io`` are written directly, because the generator
cannot build them); the program only ever sees the generated Newick text.
Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.

A corpus is one pass: a list of distinct ``Case`` objects run in order.  The
runner only stops after a whole number of passes, so every run measures
every input of its corpus equally often.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass

# Exact orders at the commit that defined the benchmark, keyed by
# (n, m, x, generator seed, rooted).  Exact orders are optima, so no correct
# change to the solver may move them.
PINNED_EXACT = {(40, 2, 5, s, True): 6 for s in range(41, 48)}


@dataclass
class Case:
    """One input of a workload, as written to disk during set-up."""

    kind: str
    rooted: bool
    n: int
    m: int
    x: int
    gen_seed: int
    text: str = ""
    path: str = ""

    @property
    def key(self):
        return (self.n, self.m, self.x, self.gen_seed, self.rooted)

    @property
    def name(self):
        r = "r" if self.rooted else "u"
        return f"{self.kind}-t{self.n}-{self.m}-x{self.x}-s{self.gen_seed}{r}"


@dataclass
class Outcome:
    """What one operation produced, for the checker and the quality metrics."""

    ok: bool
    reason: str = ""
    raised: bool = False  # failed by raising, not by a wrong result
    exact_order: int | None = None
    approx_order: int | None = None


def order_bound(case: Case) -> int:
    """The generator caps the optimum of every instance at x·(m−1)+1."""
    return case.x * (case.m - 1) + 1


def _seeded(seed: int, slot: int) -> int:
    """Generator seed of a seed-drawn input; disjoint from the core seeds."""
    return 1_000_000 + 1000 * seed + slot


# -- set-up ----------------------------------------------------------------


def _generated(mk, case: Case) -> Case:
    spec = mk.datagen.GenSpec(
        n=case.n, m=case.m, x=case.x, seed=case.gen_seed, rooted=case.rooted
    )
    inst = mk.datagen.generate_instance(spec)
    case.text = mk.newick.format_instance(inst, header=spec.header())
    return case


def ladder_text(depth: int, rng: random.Random) -> str:
    """A caterpillar Newick tree over taxa 1..depth, ``depth`` levels deep.

    Taxon ``1`` sits in the innermost cherry and the others are shuffled.
    An unrooted tree is written and keyed from its smallest leaf, so with
    ``1`` at the bottom of the spine every traversal is ``depth`` levels deep,
    rooted or not.
    """
    labels = [str(i) for i in range(2, depth + 1)]
    rng.shuffle(labels)
    labels.insert(0, "1")
    parts = ["(" * (depth - 1), labels[0]]
    for lab in labels[1:]:
        parts.append("," + lab + ")")
    return "".join(parts) + ";"


def _pass(seed: int, mk, core, drawn):
    """One pass: every input once, in an order shuffled by the seed.

    ``core`` holds (kind, rooted, n, m, x, generator seed) tuples, fixed for
    every benchmark seed; ``drawn`` holds (kind, rooted, n, m, x) tuples whose
    generator seeds come from the benchmark seed.  The core carries most of
    the time because the cost of one input varies several-fold between
    generator seeds of the same shape, and even between relabelings of one
    instance (on a 2-vCPU virtual machine: exact search 0.5–3.6 s on t40-2
    x5, the approximation 1.5–4.9 s on t100-5 x2), so a pass of a few inputs
    drawn afresh from each seed would mostly measure which inputs were drawn.
    The drawn inputs are small, so they bring every seed's own instances to
    the checks while costing a few per cent of a pass.  The core is the
    larger part of every pass, so ``op_s.p50`` always falls on a core input.
    """
    cases = [_generated(mk, Case(*spec)) for spec in core]
    cases += [_generated(mk, Case(*spec, _seeded(seed, i))) for i, spec in enumerate(drawn)]
    random.Random(seed).shuffle(cases)
    return cases


def amaf_large(seed: int, mk):
    # the generator contracts a random share (up to half) of the internal
    # edges, so every tree multifurcates
    core = [("amaf", True, 50, 5, 2, 41), ("amaf", False, 50, 5, 2, 44),
            ("amaf", True, 100, 5, 2, 43)]
    drawn = [("amaf", True, 20, 5, 2), ("amaf", False, 20, 5, 2)]
    return _pass(seed, mk, core, drawn)


def pmaf_exact(seed: int, mk):
    core = [("pmaf", True, 40, 2, 5, s) for s in (43, 46, 47)]
    drawn = [("pmaf", True, 20, 3, 1), ("pmaf", False, 20, 3, 1)]
    return _pass(seed, mk, core, drawn)


def newick_io(seed: int, mk):
    """Three large instances and two ladders 500–2000 levels deep, one
    rooted and one unrooted, drawn from the seed."""
    core = [("io", True, 2000, 2, 2, 41), ("io", False, 2000, 2, 2, 42),
            ("io", True, 2000, 2, 2, 43)]
    cases = [_generated(mk, Case(*spec)) for spec in core]
    rng = random.Random(seed)
    for i, rooted in enumerate((True, False)):
        depth = rng.randint(500, 2000)
        lad = Case("ladder", rooted, depth, 2, 0, _seeded(seed, i))
        lad.text = ladder_text(depth, rng) + "\n" + ladder_text(depth, rng) + "\n"
        cases.append(lad)
    rng.shuffle(cases)
    return cases


# -- operations --------------------------------------------------------------


def run_cli(mk, case: Case, command: str):
    """``maf <command> FILE --verify`` in-process; returns (exit code, stdout)."""
    flag = "--rooted" if case.rooted else "--unrooted"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mk.cli.main([command, case.path, "--verify", flag])
    return code, out.getvalue()


def run_roundtrip(mk, case: Case):
    inst = mk.newick.parse_instance(case.text, case.rooted)
    texts = [mk.newick.serialize(f) for f in inst.forests]
    again = mk.newick.parse_instance("\n".join(texts) + "\n", case.rooted)
    same = [a.same_structure(b) for a, b in zip(inst.forests, again.forests)]
    return inst, again, same


# -- checks ------------------------------------------------------------------


def _order_and_certificate(text: str, case: Case):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("order "):
        return None, "no 'order' line"
    order = int(lines[0].split()[1])
    cert = [ln for ln in lines[1:] if ln.endswith(";")]
    if len(cert) != order:
        return None, f"certificate has {len(cert)} components, order says {order}"
    if f"verified against {case.m} input trees" not in lines:
        return None, "no 'verified against' line"
    return order, ""


def check_amaf(case: Case, code: int, text: str) -> Outcome:
    if code != 0:
        return Outcome(False, f"exit code {code}")
    order, why = _order_and_certificate(text, case)
    if order is None:
        return Outcome(False, why)
    ratio = 3 if case.rooted else 4
    if not 1 <= order <= ratio * order_bound(case):
        return Outcome(False, f"approximate order {order} above {ratio}·{order_bound(case)}")
    tail = next((ln for ln in text.splitlines() if ln.startswith("# ratio_bound=")), None)
    if tail is None:
        return Outcome(False, "no ratio_bound line")
    bound = int(tail.split()[1].split("=")[1])
    if bound > ratio:
        return Outcome(False, f"ratio_bound {bound} above {ratio}")
    return Outcome(True, approx_order=order)


def check_pmaf(case: Case, code: int, text: str) -> Outcome:
    if code != 0:
        return Outcome(False, f"exit code {code}")
    order, why = _order_and_certificate(text, case)
    if order is None:
        return Outcome(False, why)
    boot = next((ln for ln in text.splitlines() if ln.startswith("# bootstrap k'=")), None)
    if boot is None:
        return Outcome(False, "no bootstrap line")
    k_approx = int(boot.split()[2].split("=")[1])
    ratio = 3 if case.rooted else 4
    if order > order_bound(case):
        return Outcome(False, f"exact order {order} above the generator bound {order_bound(case)}")
    if order < math.ceil(k_approx / ratio):
        return Outcome(False, f"exact order {order} below ⌈{k_approx}/{ratio}⌉")
    pinned = PINNED_EXACT.get(case.key)
    if pinned is not None and order != pinned:
        return Outcome(False, f"exact order {order}, pinned {pinned}")
    return Outcome(True, exact_order=order, approx_order=k_approx)


def check_roundtrip(case: Case, inst, again, same) -> Outcome:
    taxa = case.n
    if inst.m != case.m or again.m != case.m:
        return Outcome(False, "tree count changed")
    if inst.taxa_count() != taxa or again.taxa_count() != taxa:
        return Outcome(False, "taxon count changed")
    if not all(same):
        return Outcome(False, "serialize/parse round trip changed a tree")
    return Outcome(True)


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # (seed, mafkit namespace) -> list[Case], one pass
    op: object  # (mafkit namespace, Case) -> Outcome, may raise


def _amaf_op(mk, case):
    return check_amaf(case, *run_cli(mk, case, "amaf"))


def _pmaf_op(mk, case):
    return check_pmaf(case, *run_cli(mk, case, "pmaf"))


def _io_op(mk, case):
    return check_roundtrip(case, *run_roundtrip(mk, case))


WORKLOADS = {
    "amaf-large": Workload("amaf-large", amaf_large, _amaf_op),
    "pmaf-exact": Workload("pmaf-exact", pmaf_exact, _pmaf_op),
    "newick-io": Workload("newick-io", newick_io, _io_op),
}


def write_corpus(cases, directory):
    """Write each distinct case once; ``Case.path`` points at its file."""
    os.makedirs(directory, exist_ok=True)
    for case in cases:
        if not case.path:
            case.path = os.path.join(directory, case.name + ".nwk")
            with open(case.path, "w", encoding="utf-8") as fh:
                fh.write(case.text)
