#!/usr/bin/env python3
"""Count the lines of each module of src/agstab, and in total.

Prints two numbers for each module: all its lines, and its code lines,
which are the lines holding a token other than a comment, less the
lines of docstrings (the string statement first in a module, class or
function body).  Tokens come from ``tokenize`` and docstrings from
``ast``, so a line of code with a trailing comment counts, and so does
each line of a string that is not a docstring.

    python scripts/code_lines.py [DIR]
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold code, outside docstrings."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    default = Path(__file__).resolve().parent.parent / "src" / "agstab"
    parser.add_argument("dir", nargs="?", default=default, type=Path, help="package directory (default: src/agstab)")
    args = parser.parse_args()

    total = [0, 0]
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(args.dir.glob("*.py")):
        source = path.read_text()
        counts = (len(source.splitlines()), code_lines(source))
        total = [t + c for t, c in zip(total, counts)]
        print(f"{path.name:<16}{counts[0]:>7}{counts[1]:>7}")
    print(f"{'total':<16}{total[0]:>7}{total[1]:>7}")


if __name__ == "__main__":
    main()
