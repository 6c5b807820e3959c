"""The checker behind CI's pin on the benchmark's search-shape counts."""

import importlib.util
import io
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "tests", "data", "search_counts_seed1.json")


@pytest.fixture(scope="module")
def checker():
    path = os.path.join(ROOT, "tools", "check_search_counts.py")
    spec = importlib.util.spec_from_file_location("check_search_counts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_output(counts):
    metrics = {name: {"value": float(v), "unit": "count"} for name, v in counts.items()}
    return "# a note\n" + json.dumps({"correct": True, "metrics": metrics}) + "\n"


def test_record_holds_every_count_of_both_solver_workloads(checker):
    with open(RECORD, encoding="utf-8") as fh:
        record = json.load(fh)
    assert sorted(record) == ["amaf-large", "newick-io", "pmaf-exact"]
    for counts in record.values():
        assert sorted(counts) == sorted(checker.COUNTS)
    # the exact search runs on pmaf-exact only, both solver workloads
    # approximate, and newick-io runs no solver but writes Newick text
    solvers = [record["amaf-large"], record["pmaf-exact"]]
    io = record["newick-io"]
    assert record["pmaf-exact"]["fpt.attempts"] > 0 == record["amaf-large"]["fpt.attempts"]
    assert all(c["approx.steps.group"] > 0 for c in solvers)
    assert io["fpt.attempts"] == io["approx.steps.group"] == 0
    assert io["forest.canonical_key.calls"] > 0


def test_record_pins_the_solver_layer_calls(checker):
    with open(RECORD, encoding="utf-8") as fh:
        record = json.load(fh)
    layers = [f"{op}.calls" for op in (
        "forest.find_mss", "forest.sibling_case", "forest.expand_labels", "forest.certify",
        "forest.verify", "approx.essential_subset", "approx.check_metastep_ratio")]
    assert set(layers) <= set(checker.COUNTS)
    for workload in ("amaf-large", "pmaf-exact"):
        counts = record[workload]
        steps = sum(counts[f"approx.steps.{kind}"]
                    for kind in ("rule1", "group", "ms2", "ms31", "ms32"))
        # each meta-step record takes one essential subset and one audit
        assert (counts["approx.essential_subset.calls"]
                == counts["approx.check_metastep_ratio.calls"] == steps)
        assert counts["forest.find_mss.calls"] > 0 and counts["forest.certify.calls"] > 0
        assert counts["forest.sibling_case.calls"] > 0
    # newick-io runs no solver layer at all
    assert all(record["newick-io"][name] == 0 for name in layers)


def test_checker_names_every_count_that_moved(checker, monkeypatch, capsys):
    with open(RECORD, encoding="utf-8") as fh:
        recorded = json.load(fh)["pmaf-exact"]
    moved = dict(recorded, **{"fpt.nodes": recorded["fpt.nodes"] + 1})
    for counts, code in ((recorded, 0), (moved, 1)):
        monkeypatch.setattr("sys.stdin", io.StringIO(run_output(counts)))
        assert checker.main(["pmaf-exact", RECORD]) == code
    err = capsys.readouterr().err
    assert err.strip() == (f"pmaf-exact: fpt.nodes: recorded {recorded['fpt.nodes']}, "
                           f"run gave {recorded['fpt.nodes'] + 1}")


def test_write_names_every_count_it_changes(checker, monkeypatch, capsys, tmp_path):
    with open(RECORD, encoding="utf-8") as fh:
        record = json.load(fh)
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    recorded = record["pmaf-exact"]
    moved = dict(recorded, **{"fpt.nodes": recorded["fpt.nodes"] + 1,
                              "forest.remove_edges.calls": 7})
    monkeypatch.setattr("sys.stdin", io.StringIO(run_output(moved)))
    assert checker.main(["pmaf-exact", str(path), "--write"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"pmaf-exact: fpt.nodes: {recorded['fpt.nodes']} → {recorded['fpt.nodes'] + 1}",
        f"pmaf-exact: forest.remove_edges.calls: {recorded['forest.remove_edges.calls']} → 7",
    ]
    assert json.loads(path.read_text(encoding="utf-8")) == dict(record, **{"pmaf-exact": moved})
    # writing the same counts again changes nothing and names nothing
    monkeypatch.setattr("sys.stdin", io.StringIO(run_output(moved)))
    assert checker.main(["pmaf-exact", str(path), "--write"]) == 0
    assert capsys.readouterr().err == ""
