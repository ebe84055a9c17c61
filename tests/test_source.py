"""Guards over the package source."""

import ast
import os
import subprocess
import sys
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


def test_no_module_imports_dataclasses():
    # the value types derive from lattice._Value, which generates no code at
    # import; dataclasses (and inspect through it) would cost every import
    found = []
    for path in sorted(Path(roundideal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_import_leaves_dataclasses_unloaded():
    # -S: no site module, so nothing but the package decides what is loaded
    src = Path(roundideal.__file__).parent.parent
    code = "import sys, roundideal.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout == "False\n"


def test_no_module_imports_an_unused_name():
    # __init__ re-exports what it imports; every other module uses each name
    found = []
    for path in sorted(Path(roundideal.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert found == []
