"""Physical and code lines of each ``src/signadd`` module and in total.

    python3 tools/src_lines.py

A code line holds at least one token that is not a comment, a docstring or
layout (newlines, indents); blank lines are neither.  Docstrings are the
leading string statements of the module, its classes and its functions.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "signadd"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docs = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(r for r in range(tok.start[0], tok.end[0] + 1) if r not in docs)
    return len(text.splitlines()), len(code)


def main() -> None:
    total = [0, 0]
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(SRC.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total[0] += lines
        total[1] += code
        print(f"{path.name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{total[0]:>7}{total[1]:>7}")


if __name__ == "__main__":
    main()
