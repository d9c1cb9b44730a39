"""Dead-code guard: every function, class and method the package defines
must be named somewhere in production code besides its own definition.

The search covers the package, the benchmark harness and the project
metadata (console-script entry points live there), not the tests: a
route that only tests call is a test reference and belongs in the tests.
Dunder methods are called by the language itself and are exempt.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sovxxx"


def _corpus() -> list[str]:
    paths = sorted(ROOT.glob("src/**/*.py"))
    paths += sorted(ROOT.glob("perfbench/**/*.py"))
    paths.append(ROOT / "pyproject.toml")
    return [p.read_text(encoding="utf-8") for p in paths if p.is_file()]


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
    corpus = _corpus()
    unreferenced = []
    for module, qualname, name in _definitions():
        if name.startswith("__") and name.endswith("__"):
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        # the definition itself accounts for exactly one occurrence
        if sum(len(word.findall(text)) for text in corpus) <= 1:
            unreferenced.append(f"{module}.{qualname}")
    assert not unreferenced, f"unreferenced definitions: {unreferenced}"
