"""Line counts of askit's modules: all lines, and code-only lines.

    python scripts/loc.py [--against DIR]

For each module of `src/askit` and for the total, prints the lines and the
code-only lines: lines that hold a token other than a comment, a docstring
or a line break, so blank lines, comment lines and docstrings do not count.
With --against, the same figures for another tree (a checkout, or its
`src/askit`) follow, with the change in each.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "askit"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def count(source: str) -> tuple[int, int]:
    """(lines, code-only lines) of one module's text."""
    docstrings = _docstrings(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.STRING and any(start <= token.start and token.end <= end for start, end in docstrings):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def counts(package: Path) -> dict[str, tuple[int, int]]:
    """Each module's counts by file name, in name order."""
    return {path.name: count(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def _with_total(counts: dict[str, tuple[int, int]]) -> dict[str, tuple[int, int]]:
    return {**counts, "total": (sum(lines for lines, _ in counts.values()), sum(code for _, code in counts.values()))}


def table(this: dict[str, tuple[int, int]], against: dict[str, tuple[int, int]] | None = None) -> list[str]:
    """One row per module and a total row; a module missing from a tree reads 0."""
    names = [*sorted(set(this) | set(against or {})), "total"]
    this, theirs = _with_total(this), _with_total(against or {})
    rows = [f"{'module':<14}{'lines':>7}{'code':>7}" + ("" if against is None else f"{'against':>9}{'code':>7}{'diff':>7}{'code':>7}")]
    for name in names:
        (lines, code), (old_lines, old_code) = this.get(name, (0, 0)), theirs.get(name, (0, 0))
        row = f"{name:<14}{lines:>7}{code:>7}"
        if against is not None:
            row += f"{old_lines:>9}{old_code:>7}{lines - old_lines:>+7}{code - old_code:>+7}"
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="another tree: a checkout, or its src/askit")
    args = parser.parse_args(argv)
    against = None
    if args.against is not None:
        package = args.against / "src" / "askit" if (args.against / "src" / "askit").is_dir() else args.against
        against = counts(package)
    print("\n".join(table(counts(PACKAGE), against)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
