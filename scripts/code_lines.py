#!/usr/bin/env python3
"""Count the lines and the code lines of each module of the package.

    python scripts/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/spinmix``.  A code line is a line that holds
a token other than a comment, outside every docstring: blank lines, lines
of comments alone and the lines of module, class and function docstrings
(found with ``ast``) are left out, and the rest is read with ``tokenize``,
so a statement over several lines counts each of its lines.  One row per
module, sorted by name, then the totals.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "spinmix"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs)


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("package", nargs="?", default=str(PACKAGE_DIR))
    args = ap.parse_args(argv)
    print(f"{'module':20} {'lines':>6} {'code':>6}")
    total = [0, 0]
    for path in sorted(Path(args.package).glob("*.py")):
        lines, code = count(path.read_text())
        total = [total[0] + lines, total[1] + code]
        print(f"{path.stem:20} {lines:6} {code:6}")
    print(f"{'total':20} {total[0]:6} {total[1]:6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
