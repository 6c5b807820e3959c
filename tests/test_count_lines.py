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
    (tmp_path / "c.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    paths.append(str(tmp_path / "c.py"))
    assert counter.main(paths) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"16 lines, 7 code lines in {paths[0]}",
        f"16 lines, 7 code lines in {paths[1]}",
        f"3 lines, 1 code lines in {paths[2]}",
        "35 lines, 15 code lines in 3 files",
    ]


def test_default_is_the_package_source(counter, capsys):
    counter.main([])
    *files, last = capsys.readouterr().out.splitlines()
    total = 0
    names = sorted(name for name in os.listdir(os.path.join(ROOT, "src", "mafkit"))
                   if name.endswith(".py"))
    for name, line in zip(names, files, strict=True):
        path = os.path.join(ROOT, "src", "mafkit", name)
        with open(path, encoding="utf-8") as fh:
            n = fh.read().count("\n")
        assert line.startswith(f"{n} lines, ") and line.endswith(f" in {path}")
        total += n
    # the totals stay on the last line, where CI's line count reads them
    assert last.startswith(f"{total} lines, ")
    assert last.endswith(f" in {len(names)} files")
