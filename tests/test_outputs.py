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
    names = [f"{what} t{n}-{m}-x{x}-s{seed}{'r' if rooted else 'u'}"
             for n, m, x, seed, rooted in checker.CORPUS
             for what in ("gen", "amaf", "pmaf", "serialize")]
    assert sorted(record) == sorted(names)
    moved = dict(record, **{names[1]: "0" * 64})
    path = tmp_path / "record.json"
    path.write_text(json.dumps(moved))
    assert checker.main([str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"{names[1]}: recorded {'0' * 64}, run gave ")
