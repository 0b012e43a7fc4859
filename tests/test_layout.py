"""Source layout: every top-level definition in the package is used by it.

A function or class that only the tests call belongs in ``tests/`` (see
``oracles.py``), so the code the tests check is the code the simulator
runs.
"""
import ast
from pathlib import Path

import hopsim

SRC = Path(hopsim.__file__).parent

# Entry points reached from outside the package.
ALLOWED = {
    ("cli", "main"),            # console script named in pyproject.toml
    ("signal", "write_frame"),  # binary frame dump, not wired to the CLI yet
    ("signal", "read_frame"),
}


def unreferenced_definitions():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = []   # (name, node) for every name load or attribute access
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                used.append((node.attr, node))
    out = []
    for module, tree in trees.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = {id(node) for node in ast.walk(definition)}
            if not any(name == definition.name and id(node) not in own
                       for name, node in used):
                out.append((module, definition.name))
    return out


def test_every_definition_is_referenced_in_src():
    unused = [f"{m}.{name}" for m, name in unreferenced_definitions()
              if (m, name) not in ALLOWED]
    assert unused == [], f"defined in src/ but used only outside it: {unused}"
