"""Dead-code guard: every function, class and method the package defines
must be referenced somewhere in production code besides its own definition.

The search covers the package, the benchmark harness and the project
metadata (console-script entry points live there), not the tests: a
route that only tests call is a test reference and belongs in the tests.
A reference is a code reference, not a word: a name read, an attribute
read, a name imported, a string constant that is a bare identifier (such
as a key of the tracer's table of wrapped functions) or an entry point.
The same word in a docstring or a comment keeps nothing alive.  Dunder
methods are called by the language itself and are exempt.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sovxxx"


def _references() -> set[str]:
    names: set[str] = set()
    paths = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("perfbench/**/*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    names.add(node.value)
    # console-script entry points: name = "module:function"
    metadata = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    names.update(re.findall(r'^\w[\w-]*\s*=\s*"[\w.]+:(\w+)"', metadata, re.MULTILINE))
    return names


def _definitions():
    """(module, qualified name, bare name) for every top-level function,
    class and method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def test_every_definition_is_referenced():
    references = _references()
    unreferenced = [
        f"{module}.{qualname}"
        for module, qualname, name in _definitions()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in references
    ]
    assert not unreferenced, f"unreferenced definitions: {unreferenced}"
