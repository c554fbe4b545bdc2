"""Print the size of each module of the package, and the sums.

    python3 tools/loc.py

For every module of ``src/limapper`` it prints its total lines and its
code-only lines.  A code-only line holds a token other than a comment, a
line break, an indent or dedent, or the end marker, and lies outside every
module, class and function docstring.  So blank lines, comment lines and
docstrings count in the total only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "limapper"

# tokens that make no line a code line
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, DOCUMENTED)
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total lines, code-only lines) of a module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main() -> int:
    rows = [(path.name, *count(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
