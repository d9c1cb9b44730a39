"""The failure-sweep script ``scripts/sweep.py``."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
from pathlib import Path

from sovxxx import cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sweep.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _load_sweep(monkeypatch, environ: dict):
    """Import the script against ``environ`` in place of the process
    environment, which its import-time thread caps then leave alone."""
    monkeypatch.setattr(os, "environ", environ)
    spec = importlib.util.spec_from_file_location("sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_caps_unset_blas_threads_and_keeps_set_ones(monkeypatch):
    environ = {"MKL_NUM_THREADS": "2"}
    _load_sweep(monkeypatch, environ)
    assert [environ[var] for var in THREAD_VARS] == ["1", "1", "2"]


def test_sweep_writes_every_row_as_an_error_verdict_pair(tmp_path, monkeypatch):
    sweep = _load_sweep(monkeypatch, dict(os.environ))
    assert sweep.parse_range("1-3,8") == [1, 2, 3, 8]
    suites = dict(cli._SUITES)
    out = tmp_path / "rows.json"
    assert sweep.main(["--n", "1-3", "--seeds", "0", "--json", str(out)]) == 0
    # the timed suite table is the CLI's own again once the sweep is done
    assert cli._SUITES == suites
    rows = json.loads(out.read_text())
    assert sorted(rows) == ["1/0", "2/0", "3/0"]
    # each configuration carries the digest of its report's bytes
    report = cli.render_json(cli.run(cli.RunConfig(n_sites=2, seed=0)))
    assert rows["2/0"]["report_sha256"] == hashlib.sha256(report.encode()).hexdigest()
    for config in rows.values():
        assert config["aborted"] == {}
        # the run's wall time and each suite's ride next to the rows,
        # outside the report
        assert isinstance(config["seconds"], float) and config["seconds"] > 0
        per_suite = config["suite_seconds"]
        assert sorted(per_suite) == sorted(cli.SUITE_ORDER)
        assert all(isinstance(t, float) and t > 0 for t in per_suite.values())
        assert sum(per_suite.values()) <= config["seconds"]
        assert config["checks"]
        for rel_err, passed in config["checks"].values():
            assert isinstance(rel_err, float)
            assert passed is True


def test_compare_reports_changed_configurations_and_moved_rows(tmp_path, monkeypatch):
    sweep = _load_sweep(monkeypatch, dict(os.environ))
    cond = "homogeneous-stress/raw_matrix_condition_grows_inverse_cubed"

    def entry(a, b, cond_value, aborted=None):
        checks = {"a/x": [a, a <= 1e-9], "b/y": [b, True], cond: cond_value}
        return {"checks": checks, "aborted": aborted or {}}

    sides = {
        "before.json": {
            "8/0": entry(2e-9, 1e-12, [0.0, True]),
            "8/1": entry(3e-10, 2e-12, [0.0, True]),
        },
        "after.json": {
            "8/0": entry(4e-10, 1e-12, [0.0, True]),
            "8/1": entry(5e-10, 2e-12, [1.0, False], {"spectrum": "SpectrumError: x"}),
        },
    }
    for name, rows in sides.items():
        (tmp_path / name).write_text(json.dumps(rows))
    before, after = (json.loads((tmp_path / name).read_text()) for name in sides)
    assert sweep.compare(before, after) == [
        "N=8 seed=0: exit 1 -> 0; -a/x",
        f"N=8 seed=1: exit 0 -> 1; +{cond}; "
        "aborted {} -> {'spectrum': 'SpectrumError: x'}",
        # the condition row's value enters through its verdict alone
        "a/x: down in 1, up in 1 of 2; worst 2e-09 -> 5e-10",
    ]
    assert sweep.compare(before, before) == [
        "no configuration differs in exit status, aborts or failing rows"
    ]


def test_compare_sums_wall_time_per_length_where_both_sides_have_it(monkeypatch):
    sweep = _load_sweep(monkeypatch, dict(os.environ))

    def entry(seconds=None, **suite_seconds):
        out = {"checks": {"a/x": [1e-12, True]}, "aborted": {}}
        if seconds is not None:
            out["seconds"] = seconds
        if suite_seconds:
            out["suite_seconds"] = suite_seconds
        return out

    # "3/1" comes from a sweep written before the times were recorded, and
    # "4/0" from one written before the suite times were
    before = {
        "3/0": entry(0.25, sov=0.125, spectrum=0.0625),
        "3/1": entry(),
        "4/0": entry(1.0),
        "4/1": entry(2.0, oracle=0.5),
    }
    after = {
        "3/0": entry(0.5, sov=0.25, spectrum=0.125),
        "3/1": entry(0.5, sov=0.5),
        "4/0": entry(0.5, oracle=0.25),
        "4/1": entry(1.0, oracle=0.375),
    }
    assert sweep.compare(before, after) == [
        "no configuration differs in exit status, aborts or failing rows",
        "N=3: 0.25 s -> 0.50 s over 1 configurations",
        "  sov: 0.125 s -> 0.250 s",
        "  spectrum: 0.062 s -> 0.125 s",
        "N=4: 3.00 s -> 1.50 s over 2 configurations",
        "  oracle: 0.500 s -> 0.375 s",
    ]


def test_compare_counts_and_names_configurations_whose_report_bytes_differ(
    monkeypatch,
):
    sweep = _load_sweep(monkeypatch, dict(os.environ))

    def entry(digest=None):
        out = {"checks": {"a/x": [1e-12, True]}, "aborted": {}}
        if digest is not None:
            out["report_sha256"] = digest
        return out

    # "8/2" comes from a sweep written before the digests were recorded
    before = {"7/0": entry("aa"), "7/1": entry("bb"), "8/0": entry("cc"), "8/2": entry()}
    after = {"7/0": entry("aa"), "7/1": entry("b2"), "8/0": entry("c2"), "8/2": entry("dd")}
    assert sweep.compare(before, after) == [
        "no configuration differs in exit status, aborts or failing rows",
        "report bytes differ in 2 of 3 configurations",
        "  N=7 seed=1",
        "  N=8 seed=0",
    ]
    assert sweep.compare(after, after)[1:] == ["report bytes differ in 0 of 4 configurations"]
