"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m pytest perfbench/tests
"""

import random

import pytest

import spans
import workloads
from workloads import Case, check_amaf, check_pmaf, check_roundtrip


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children(monkeypatch):
    # top(mid(leaf, leaf), leaf) on a clock that reads these values in turn
    ticks = iter([0, 1, 2, 5, 6, 10, 12, 20, 25, 30])
    monkeypatch.setattr(spans.time, "perf_counter_ns", lambda: next(ticks))
    rec = spans.Recorder()
    leaf = rec.wrap("leaf", lambda: None)
    mid = rec.wrap("mid", lambda: (leaf(), leaf()))
    top = rec.wrap("top", lambda: (mid(), leaf()))
    op = rec.start_op()
    top()
    assert op.spans["leaf"] == [3, 3 + 4 + 5, 3 + 4 + 5]
    assert op.spans["mid"] == [1, 11, 11 - 3 - 4]
    assert op.spans["top"] == [1, 30, 30 - 11 - 5]
    assert op.counts() == {"top.calls": 1, "mid.calls": 1, "leaf.calls": 3}
    assert rec._stack == []


def test_recorder_closes_span_on_exception():
    rec = spans.Recorder()

    def boom():
        raise RecursionError("deep")

    op = rec.start_op()
    with pytest.raises(RecursionError):
        rec.wrap("boom", boom)()
    assert op.spans["boom"][0] == 1
    assert rec._stack == []


def test_install_wraps_every_binding_and_undoes():
    import mafkit.cli
    import mafkit.fpt
    import mafkit.reduction
    from mafkit.forest import Forest

    original = mafkit.reduction.reduce_pair
    method = Forest.__dict__["split_labels"]
    undo = spans.install(spans.Recorder())
    try:
        assert mafkit.fpt.reduce_pair is not original
        assert mafkit.reduction.reduce_pair is mafkit.fpt.reduce_pair
        assert mafkit.cli.find_min_k.__wrapped__ is mafkit.fpt.find_min_k.__wrapped__
        assert Forest.__dict__["split_labels"] is not method
        assert "components" not in {t[1].split(".")[-1] for t in spans.TARGETS}
    finally:
        undo()
    assert mafkit.fpt.reduce_pair is original
    assert Forest.__dict__["split_labels"] is method


# -- output checks ------------------------------------------------------------


def _pmaf_text(order, k_approx=15, m=2, components=None):
    cert = ["(1,2);"] * (order if components is None else components)
    return "\n".join(
        [f"order {order}", *cert, f"# bootstrap k'={k_approx} start k=5",
         "# k=6 nodes=1 leaves=1", f"verified against {m} input trees"]
    ) + "\n"


PINNED = Case("pmaf", True, 40, 2, 5, 41)
UNPINNED = Case("pmaf", True, 40, 2, 5, 7041)


def test_pmaf_checker_accepts_a_correct_result():
    assert check_pmaf(PINNED, 0, _pmaf_text(6)).ok
    assert check_pmaf(UNPINNED, 0, _pmaf_text(5)).ok


def test_pmaf_checker_flags_a_wrong_order():
    # pinned instance, wrong optimum
    out = check_pmaf(PINNED, 0, _pmaf_text(5))
    assert not out.ok and not out.raised and "pinned" in out.reason
    # above the generator bound x·(m−1)+1 = 6
    assert not check_pmaf(UNPINNED, 0, _pmaf_text(7)).ok
    # below ⌈k'/3⌉
    assert not check_pmaf(UNPINNED, 0, _pmaf_text(4, k_approx=15)).ok
    assert check_pmaf(UNPINNED, 0, _pmaf_text(5, k_approx=15)).ok
    # unrooted uses ⌈k'/4⌉
    unrooted = Case("pmaf", False, 30, 2, 3, 1)
    assert check_pmaf(unrooted, 0, _pmaf_text(3, k_approx=12)).ok
    assert not check_pmaf(unrooted, 0, _pmaf_text(3, k_approx=13)).ok


def test_pmaf_checker_flags_bad_exit_and_missing_lines():
    assert not check_pmaf(UNPINNED, 3, _pmaf_text(6)).ok
    assert not check_pmaf(UNPINNED, 0, _pmaf_text(6).replace("verified", "checked")).ok
    assert not check_pmaf(UNPINNED, 0, _pmaf_text(6, components=5)).ok


def _amaf_text(order, bound=3, m=5):
    cert = ["(1,2);"] * order
    return "\n".join(
        [f"order {order}", *cert,
         f"# ratio_bound={bound} steps: rule1=1 wall_ms=1.0",
         f"verified against {m} input trees"]
    ) + "\n"


def test_amaf_checker_bounds():
    rooted = Case("amaf", True, 100, 5, 2, 0)  # 3·(2·4+1) = 27
    unrooted = Case("amaf", False, 100, 5, 2, 1)  # 4·9 = 36
    assert check_amaf(rooted, 0, _amaf_text(27)).ok
    assert not check_amaf(rooted, 0, _amaf_text(28)).ok
    assert check_amaf(unrooted, 0, _amaf_text(36, bound=4)).ok
    assert not check_amaf(rooted, 0, _amaf_text(20, bound=4)).ok
    assert not check_amaf(rooted, 2, _amaf_text(20)).ok


def test_roundtrip_checker_and_ladder():
    import mafkit as mk

    text = workloads.ladder_text(6, random.Random(1))
    assert text.count("(") == 5
    assert text.startswith("(((((1,")  # smallest taxon in the innermost cherry
    case = Case("ladder", True, 6, 2, 0, 0, text=text + "\n" + text + "\n")
    ns = type("NS", (), {"newick": mk.newick})
    inst, again, same = workloads.run_roundtrip(ns, case)
    assert check_roundtrip(case, inst, again, same).ok
    assert not check_roundtrip(case, inst, again, [True, False]).ok


# -- counter identity between runs -------------------------------------------


def test_counters_must_repeat_between_runs(tmp_path):
    import run

    path = str(tmp_path / "counters.json")
    assert run.compare_counters(path, {"fpt.nodes": 10, "approx.steps.ms2": 1}) == []
    assert run.compare_counters(path, {"fpt.nodes": 10, "approx.steps.ms2": 1}) == []
    assert run.compare_counters(path, {"fpt.nodes": 11, "approx.steps.ms2": 1}) == [
        "fpt.nodes: 10 then 11"
    ]


# -- the closed loop and the reference loop -----------------------------------


def test_loop_starts_a_pass_only_if_it_still_fits(monkeypatch):
    import run

    clock = [0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])

    def step(case):  # every operation takes one second
        clock[0] += 1
        return case

    warm, passes = run.loop(["a", "b"], 7, step)
    # passes end at 2, 4 and 6 s; a fourth would end at 8 s > 7 s
    assert warm == "a"
    assert passes == [["a", "b"]] * 3
    _, passes = run.loop(["a", "b"], 1, step)
    assert passes == [["a", "b"]]  # the first pass always runs


def test_reference_loop_is_fixed_work():
    import run

    assert run.reference_loop() == run.reference_loop()
    assert run.ref_seconds() > 0
