"""Count the code lines of each `src/wittpolar` module and their total.

A code line holds at least one token of code: blank lines, comment lines
and docstrings (the leading string of a module, class or function) are not
counted.  Run from anywhere:

    python tools/src_lines.py

It prints one `<count> <module>` row per module, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wittpolar"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of `path` that hold a code token."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path.stem}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
