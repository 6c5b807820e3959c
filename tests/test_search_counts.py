"""The checker behind CI's pin on the benchmark's search-shape counts, and
the names the benchmark's recorder wraps."""

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


def test_record_makes_one_scan_per_reduction():
    # ``reduce_pair`` scans once and removes every edge it finds at once;
    # the scan checks the smaller side of an edge by its own walk
    with open(RECORD, encoding="utf-8") as fh:
        record = json.load(fh)
    for workload in ("amaf-large", "pmaf-exact"):
        counts = record[workload]
        assert counts["reduction.reduce_pair.calls"] > 0
        assert counts["reduction.find_applicable.calls"] == counts["reduction.reduce_pair.calls"]
        assert counts["forest.split_labels.calls"] == 0


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


@pytest.fixture(scope="module")
def spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(checker, spans):
    # the benchmark's recorder wraps its targets by name, a method through
    # its class's own namespace: a target renamed or removed here must fail
    # in these tests, not first in a benchmark run
    for module_name, attr, _, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        owner, _, name = attr.rpartition(".")
        found = vars(getattr(module, owner)).get(name) if owner else getattr(module, name, None)
        assert callable(found), attr
    # every call count the record pins is the count of a traced span
    calls = {name[:-len(".calls")] for name in checker.COUNTS if name.endswith(".calls")}
    assert calls <= set(spans.SPAN_NAMES)


def test_traced_targets_keep_their_call_shapes(spans):
    # each result hook reads its target's arguments or result by position:
    # one small traced solve runs every hook of the solver layers
    import mafkit as mk

    inst = mk.parse_instance("((a,b),(c,d));\n((a,c),(b,d));", rooted=True)
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        op = rec.start_op()
        res = mk.find_min_k(inst, mk.approx_rmaf(inst).lower_bound())
        mk.serialize(res.af.forest)
    finally:
        uninstall()
    counts = op.counts()
    assert counts["fpt.attempts"] > 0 and any(name.startswith("approx.steps.") for name in counts)
    assert counts["reduction.reduce_pair.removals"] > 0
    assert counts["reduction.reduce_pair.calls"] > 0 and counts["newick.serialize.calls"] == 1
