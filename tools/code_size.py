"""Count the raw and code lines of the Python files under a directory.

A code line holds at least one token that is not a comment and lies outside
every docstring (the leading string of a module, class or function), so
blank lines, comments and docstrings are not counted.  Stdlib only.

    python tools/code_size.py [directory]    # default: src
"""

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(raw lines, code lines) of one file."""
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    code = set()
    with path.open("rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type not in LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - skip)


def main(root="src"):
    raw = code = 0
    for path in sorted(Path(root).rglob("*.py")):
        r, c = count(path)
        raw += r
        code += c
    print(f"{root}: {raw} raw lines, {code} code lines")


if __name__ == "__main__":
    main(*sys.argv[1:])
