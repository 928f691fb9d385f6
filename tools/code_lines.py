"""Count code lines of Python files: lines that hold a token other than a
comment or a docstring.

A docstring here is any string literal standing as its own statement, a
module's, class's or function's or not.  Blank lines, comment lines and
docstring lines are not counted; a line that holds code and a comment is.
A string token spanning several lines counts on each of them.

Usage: ``python tools/code_lines.py [PATH ..]``.  Each path is a file or a
directory, searched for ``*.py``; with no path, the package ``src/swmix``
next to this script.  Prints one ``count path`` line per file and a last
``count total`` line.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a code token."""
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            docstring_lines.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED:
            continue
        rows = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING and docstring_lines.issuperset(rows):
            continue
        lines.update(rows)
    return len(lines)


def main(paths: list[str]) -> None:
    package = Path(__file__).resolve().parent.parent / "src" / "swmix"
    roots = [Path(p) for p in paths] or [package]
    files = [f for root in roots for f in (sorted(root.rglob("*.py")) if root.is_dir() else [root])]
    total = 0
    for f in files:
        count = code_lines(f.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {f}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
