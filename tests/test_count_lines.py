"""The line counter behind CI's source line count."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 16 lines; the code lines are marked with a trailing ``# code`` or sit
# inside the one string that is part of an expression (lines 9-11)
FIXTURE = '''"""A module docstring
over two lines."""

import os  # code


def f(x):  # code
    """One line."""
    text = """not a  # code
docstring, since it is
assigned"""
    # a comment
    "a bare string is a docstring too"

    return (x +  # code
            1)
'''


@pytest.fixture(scope="module")
def counter():
    path = os.path.join(ROOT, "tools", "count_lines.py")
    spec = importlib.util.spec_from_file_location("count_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_lines_and_code_lines(counter):
    # code: 4, 7, 9, 10, 11, 15, 16
    assert counter.count(FIXTURE) == (16, 7)
    assert counter.count("") == (0, 0)
    assert counter.count("x = 1\n\n# done\n") == (3, 1)


def test_sums_the_files_it_is_given(counter, tmp_path, capsys):
    paths = []
    for name in ("a.py", "b.py"):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(FIXTURE, encoding="utf-8")
    assert counter.main(paths) == 0
    assert capsys.readouterr().out == "32 lines, 14 code lines in 2 files\n"


def test_default_is_the_package_source(counter, capsys):
    counter.main([])
    out = capsys.readouterr().out
    total = 0
    for name in os.listdir(os.path.join(ROOT, "src", "mafkit")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "src", "mafkit", name), encoding="utf-8") as fh:
                total += fh.read().count("\n")
    assert out.startswith(f"{total} lines, ")
