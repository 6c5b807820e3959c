"""Count the lines of the package's source, and its code lines.

    python3 tools/count_lines.py              # src/mafkit/*.py
    python3 tools/count_lines.py FILE ...     # the files named

Prints the lines of each file and their code lines, the lines left when
docstrings, comments and blank lines are taken out, one line per file in
the order given, then the totals on the last line.  A docstring here is
any string that stands alone as a statement.  A line counts as code when
it holds any token outside those, so a line of code that ends in a comment
is code, and so is every line of a string that is part of an expression.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(text: str) -> tuple[int, int]:
    """``(lines, code lines)`` of one Python source text."""
    docstrings = {
        (node.lineno, node.col_offset)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or sorted(
        glob.glob(os.path.join(ROOT, "src", "mafkit", "*.py")))
    lines = code = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            n, c = count(fh.read())
        print(f"{n} lines, {c} code lines in {path}")
        lines += n
        code += c
    print(f"{lines} lines, {code} code lines in {len(paths)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
