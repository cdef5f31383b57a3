"""Every public name of the package has a caller outside the tests.

A public name is one the package exports or a module-level ``def`` or
``class`` without a leading underscore in ``src/tropnet/*.py``.  A public
name whose only caller is its own test is surface without a user: it
should be deleted, or its test moved onto live code.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tropnet"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def defined_names() -> list[str]:
    kinds = (ast.FunctionDef, ast.ClassDef)
    return [node.name for path in PACKAGE.glob("*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, kinds) and not node.name.startswith("_")]


def has_caller(name: str) -> bool:
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        if any(word.search(line) and not definition.match(line)
               for line in path.read_text().splitlines()):
            return True
    others = [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
              ROOT / "README.md"]
    return any(word.search(path.read_text()) for path in others)


def test_every_export_has_a_caller_outside_the_tests():
    names = set(exported_names()) | set(defined_names())
    assert {"simulate_layer_outputs", "main"} <= names
    orphans = sorted(n for n in names if not has_caller(n))
    assert not orphans, f"public names used only by tests: {orphans}"
