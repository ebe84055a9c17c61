"""Guards over the package source."""

import ast
from pathlib import Path

import roundideal


def test_no_next_without_a_default():
    # next() with one argument lets an empty scan escape as a bare
    # StopIteration; a scan that must find a witness goes through _explain
    found = []
    for path in sorted(Path(roundideal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "next"
                and len(node.args) == 1
                and not node.keywords
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
