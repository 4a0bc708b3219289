#!/usr/bin/env python3
"""Print the size of ``src/framelex/``, per module and in total.

Two counts per file: every line, as ``wc -l`` counts them, and the lines
left once docstrings, comments and blank lines are taken out.  A line
counts as code if a token other than a comment starts, ends or runs through
it, and no docstring (the string that opens a module, class or function
body) covers it.

Usage (from the root of a checkout; stdlib only):

    python3 tools/loc.py
    python3 tools/loc.py path/to/package
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def counts(source):
    """(all lines, code lines) of one module's source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code - docstrings)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    default = Path(__file__).resolve().parent.parent / "src" / "framelex"
    parser.add_argument("package", nargs="?", default=default, type=Path)
    args = parser.parse_args(argv)
    total = [0, 0]
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(args.package.glob("*.py")):
        lines, code = counts(path.read_text(encoding="utf-8"))
        total[0] += lines
        total[1] += code
        print(f"{path.name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{total[0]:>7}{total[1]:>7}")


if __name__ == "__main__":
    main()
