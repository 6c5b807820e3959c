"""The checker behind CI's pin on the bytes the CLI and the writer produce."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "tests", "data", "cli_outputs.json")


@pytest.fixture(scope="module")
def checker():
    path = os.path.join(ROOT, "tools", "check_outputs.py")
    spec = importlib.util.spec_from_file_location("check_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_recorded_digests(checker, capsys):
    assert checker.main([RECORD]) == 0, capsys.readouterr().err


def test_checker_names_every_digest_that_moved(checker, tmp_path, capsys):
    with open(RECORD, encoding="utf-8") as fh:
        record = json.load(fh)
    names = [f"{what} {name}" for name, _, _ in checker.instances()
             for what in ("gen", "amaf", "pmaf", "pmaf-search", "serialize")]
    assert sorted(record) == sorted(names)
    assert "gen t18-3-x1-s1255u-o102" in names
    moved = dict(record, **{names[1]: "0" * 64})
    path = tmp_path / "record.json"
    path.write_text(json.dumps(moved))
    assert checker.main([str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"{names[1]}: recorded {'0' * 64}, run gave ")


def test_search_digest_holds_only_the_summary_line(checker):
    text = ("exit 0\norder 2\n(a,b);\n# bootstrap k'=3 start k=2\n"
            "# k=2 nodes=5 leaves=3 wall_ms=*\nverified against 2 input trees\n")
    assert checker.split_search_line(text) == (
        "exit 0\norder 2\n(a,b);\n# bootstrap k'=3 start k=2\nverified against 2 input trees\n",
        "# k=2 nodes=5 leaves=3 wall_ms=*\n")


def test_write_names_every_digest_it_changes(checker, monkeypatch, tmp_path, capsys):
    path = tmp_path / "record.json"
    path.write_text(json.dumps({"gen a": "1", "pmaf a": "2", "gone a": "3"}))
    monkeypatch.setattr(checker, "digests", lambda: {"gen a": "1", "pmaf a": "4", "new a": "5"})
    assert checker.main([str(path), "--write"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "gone a: 3 → None", "new a: None → 5", "pmaf a: 2 → 4"]
    assert json.loads(path.read_text()) == {"gen a": "1", "pmaf a": "4", "new a": "5"}
    # writing the same digests again changes nothing and names nothing
    assert checker.main([str(path), "--write"]) == 0
    assert capsys.readouterr().err == ""
