"""Verification driver: determinism, exit codes, report formats."""

from __future__ import annotations

import csv
import io
import json

import pytest

from sovxxx.cli import RunConfig, main, render_csv, render_json, run


def test_equal_configs_render_byte_identical_reports():
    config = RunConfig(n_sites=2, seed=5, suites=("oracle", "identities"))
    first = render_json(run(config))
    second = render_json(run(config))
    assert first == second
    assert first.endswith("\n")


def test_seed_changes_numbers_but_not_shape():
    base = run(RunConfig(n_sites=2, seed=0, suites=("identities",)))
    other = run(RunConfig(n_sites=2, seed=1, suites=("identities",)))
    assert [r["name"] for r in base["checks"]] == [
        r["name"] for r in other["checks"]
    ]
    assert render_json(base) != render_json(other)


def test_full_run_on_single_site_passes_and_reports_fixture(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["all", "--n", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["aborted"] == {}
    by_name = {row["name"]: row for row in report["checks"]}
    fixture = by_name["form-factors/single_site_lowering_fixture"]
    assert fixture["pass"] is True
    assert complex(fixture["value"]) == pytest.approx(-0.5, abs=1e-10)
    assert all(row["pass"] for row in report["checks"])
    assert capsys.readouterr().out == ""


def test_out_of_range_length_exits_before_any_work(tmp_path, capsys):
    out = tmp_path / "never.json"
    with pytest.raises(SystemExit) as info:
        main(["all", "--n", "12", "--out", str(out)])
    assert info.value.code == 2
    assert not out.exists()
    assert "site count" in capsys.readouterr().err


def test_unknown_suite_in_tolerance_override_exits(capsys):
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--n", "2", "--tol", "nonsense=1e-9"])
    assert info.value.code == 2
    capsys.readouterr()


def test_negative_margin_exits(capsys):
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--n", "2", "--margin", "-0.5"])
    assert info.value.code == 2
    capsys.readouterr()


def test_impossible_tolerance_fails_with_exit_one(capsys):
    code = main(["verify-identities", "--n", "2", "--tol", "identities=1e-30"])
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads(captured.out)
    assert report["pass"] is False
    assert any(not row["pass"] for row in report["checks"])


def test_csv_rendering_round_trips_every_check(tmp_path):
    config = RunConfig(n_sites=2, seed=0, suites=("oracle", "sov"))
    report = run(config)
    parsed = list(csv.reader(io.StringIO(render_csv(report))))
    assert parsed[0] == ["name", "value", "reference", "rel_err", "pass"]
    assert len(parsed) == len(report["checks"]) + 1
    assert all(row[4] in ("true", "false") for row in parsed[1:])

    out = tmp_path / "report.csv"
    code = main(
        ["spectrum", "--n", "2", "--out", str(out), "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0][0] == "name"
    assert len(rows) > 1


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        RunConfig(n_sites=0)
    with pytest.raises(ValueError):
        RunConfig(n_sites=9)
    with pytest.raises(ValueError):
        RunConfig(n_sites=2, tolerances={"identities": 0.0})
    with pytest.raises(ValueError):
        RunConfig(n_sites=2, fmt="yaml")
    with pytest.raises(ValueError):
        RunConfig(n_sites=2, suites=("no-such-suite",))


def test_tolerance_lookup_prefers_override():
    config = RunConfig(n_sites=2, tolerances={"identities": 1e-6})
    assert config.tol("identities", 1e-10) == 1e-6
    assert config.tol("oracle", 1e-9) == 1e-9


def test_negative_seed_exits_once_before_any_suite(tmp_path, capsys):
    out = tmp_path / "never.json"
    with pytest.raises(SystemExit) as info:
        main(["all", "--n", "2", "--seed", "-1", "--out", str(out)])
    assert info.value.code == 2
    assert not out.exists()
    assert "seed" in capsys.readouterr().err
    with pytest.raises(ValueError):
        RunConfig(n_sites=2, seed=-1)
