"""The layer-timing script ``scripts/layers.py``."""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "layers.py"


def test_layers_times_every_layer_once_per_size(tmp_path, monkeypatch):
    # the script's import-time thread caps and path entries then leave
    # the process alone
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("layers", SCRIPT)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    out = tmp_path / "layers.json"
    assert layers.main(["--n", "2", "--repeat", "1", "--json", str(out)]) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))
    assert [(row["layer"], row["m"]) for row in rows] == [
        ("monodromy", 2),
        ("diagonalize", 2),
        ("hamiltonian", 2),
        ("site_sigma", 2),
        ("spectrum", 2),
        ("separate_state", 2),
        *[
            (layer, m)
            for m in (1, 2)
            for layer in (
                "izergin",
                "slavnov",
                "gen_slavnov",
                "lattice_column",
                "column_substituted",
                "dressed_vandermonde",
            )
        ],
        ("sp_on_shell", 2),
        ("ff_sigma_minus", 2),
        ("ff_sigma_minus_warm", 2),
    ]
    assert all(row["n"] == 2 and row["seconds"] > 0 for row in rows)
