"""Print the code lines of each ``src/bettibound`` module and their total.

    python .github/code_lines.py [PACKAGE_DIR]

A code line is a non-blank line that is neither a comment nor part of a
module, class or function docstring.  The count is a report only; no
threshold is applied.
"""

import ast
import sys
from pathlib import Path


def code_lines(source: str) -> int:
    lines = source.splitlines()
    skipped = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                skipped.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(lines, start=1)
        if number not in skipped and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "bettibound"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<20} {count:>5}")
    print(f"{'total':<20} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
