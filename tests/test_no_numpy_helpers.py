"""Hot-path guard: the package uses none of numpy's Python-level helpers
whose arithmetic it writes out itself: no ``kron`` (``dense._site_product``),
no ``roll`` (``polynomials._monic``), no ``split`` (slices) and nothing from
``numpy.polynomial`` (``polynomials.poly_values``).

A use is a code reference, not a word: an attribute read of the numpy
module under any name it is imported as (``np.kron``), a name imported
from numpy (``from numpy import roll``) or an import of
``numpy.polynomial``.  The same word in a docstring or a comment is not a
use.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sovxxx"
BANNED = {"kron", "roll", "split", "polynomial"}


def _uses(tree: ast.AST) -> list[str]:
    numpy_names = {"numpy"}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or alias.name)
                elif alias.name.startswith("numpy.polynomial"):
                    uses.append(f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if node.module.startswith("numpy.polynomial"):
                uses.append(f"from {node.module} import ...")
                continue
            uses += [
                f"from {node.module} import {alias.name}"
                for alias in node.names
                if alias.name in BANNED
            ]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in numpy_names
            and node.attr in BANNED
        ):
            uses.append(f"{node.value.id}.{node.attr}")
    return uses


def test_guard_sees_each_form_of_use():
    source = (
        "import numpy as xp\n"
        "from numpy import roll\n"
        "from numpy.polynomial import polynomial as P\n"
        "'''np.kron in a docstring'''\n"
        "xp.kron(a, b); xp.split(a, [1])\n"
    )
    assert sorted(_uses(ast.parse(source))) == [
        "from numpy import roll",
        "from numpy.polynomial import ...",
        "xp.kron",
        "xp.split",
    ]


def test_package_uses_no_replaced_numpy_helper():
    found = {
        path.name: uses
        for path in sorted(PACKAGE.glob("*.py"))
        if (uses := _uses(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert not found, f"numpy helpers used in the package: {found}"
