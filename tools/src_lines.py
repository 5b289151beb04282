"""Count the total lines and the code lines of each module of ``src/mmwbeam``.

Run from anywhere::

    python3 tools/src_lines.py

A code line is any line that is not blank, not a comment alone and not part
of a docstring (of the module, a class or a function, found with ``ast``).
One row per module, then the sums.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mmwbeam"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers (1-based) spanned by every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """``(total, code)`` lines of one module."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text, filename=str(path)))
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docs
    )
    return len(lines), code


def main() -> int:
    rows = [(path.name, *count(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    print(f"{'module':<16}{'total':>7}{'code':>7}")
    for name, total, code in rows:
        print(f"{name:<16}{total:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
