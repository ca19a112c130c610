"""Print the code lines of every module of ``src/expconv`` and their total.

A code line holds a token that is not a comment, a line break or part of
a docstring (the module's, a class's or a function's, as ``ast`` finds
them); blank lines, comment lines and docstring lines do not count.

Usage: python tests/data/code_lines.py [PACKAGE_DIR]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
              ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    """The lines of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, DOCUMENTED)
                and ast.get_docstring(node) is not None):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a module's ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list) -> None:
    package = Path(argv[0]) if argv else \
        Path(__file__).resolve().parents[2] / "src" / "expconv"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:5d}")
    print(f"{'total':16} {total:5d}")


if __name__ == "__main__":
    main(sys.argv[1:])
