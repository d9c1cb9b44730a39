"""Verification driver: determinism, exit codes, report formats."""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

from sovxxx import cli, determinants, formfactors
from sovxxx.chain import sample_generic_params
from sovxxx.cli import SUITE_ORDER, RunConfig, main, render_csv, render_json, run
from sovxxx.errors import SpectrumError
from sovxxx.formfactors import eigenstate_vectors
from sovxxx.spectrum import full_spectrum

# the suites that draw a chain, and of those the ones that need its spectrum
CHAIN_SUITES = tuple(s for s in SUITE_ORDER if s != "homogeneous-stress")
SPECTRUM_SUITES = tuple(s for s in CHAIN_SUITES if s not in ("oracle", "sov"))


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
    with out.open() as handle:
        rows = list(csv.reader(handle))
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


def test_seed_beyond_the_int64_key_range_exits(tmp_path, capsys):
    # seed + 1 must still be an exact int64 Philox key
    RunConfig(n_sites=2, seed=2**63 - 2)
    for seed in (2**63 - 1, 2**63, 2**64):
        out = tmp_path / "never.json"
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--n", "2", "--seed", str(seed), "--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()
        assert "seed" in capsys.readouterr().err
        with pytest.raises(ValueError):
            RunConfig(n_sites=2, seed=seed)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", "2", "--margin", "nan"],
        ["spectrum", "--n", "2", "--margin", "inf"],
        ["spectrum", "--n", "2", "--tol", "spectrum=inf"],
    ],
    ids=["margin-nan", "margin-inf", "tol-inf"],
)
def test_non_finite_margin_or_tolerance_exits_once(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("finite") == 1


def _rows_of(report: dict, suite: str) -> list[str]:
    return [
        json.dumps(row, sort_keys=True)
        for row in report["checks"]
        if row["name"].startswith(suite + "/")
    ]


def test_suites_sharing_a_chain_report_what_they_report_alone():
    full = run(RunConfig(n_sites=3, seed=0))
    assert full["aborted"] == {}
    for suite in SUITE_ORDER:
        alone = run(RunConfig(n_sites=3, seed=0, suites=(suite,)))
        assert alone["aborted"] == {}
        assert _rows_of(alone, suite), suite
        assert _rows_of(alone, suite) == _rows_of(full, suite), suite
        assert alone["summaries"].get(suite) == full["summaries"].get(suite), suite


def test_shared_vectors_are_read_only_copies_of_the_library_build():
    params = sample_generic_params(2, 0, None)
    chain = cli._Chain(params, 0)
    assert len(chain.vectors) == len(chain.records) == 4
    for rec, pair in zip(chain.records, chain.vectors):
        for shared, fresh in zip(pair, eigenstate_vectors(params, rec)):
            assert not shared.flags.writeable
            assert np.array_equal(shared, fresh)
    assert chain.vectors is chain.vectors


def test_full_run_builds_each_spectrum_once(monkeypatch, tmp_path):
    calls = {"full_spectrum": 0, "eigenstate_vectors": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "full_spectrum", counting("full_spectrum", full_spectrum))
    monkeypatch.setattr(
        cli, "eigenstate_vectors", counting("eigenstate_vectors", eigenstate_vectors)
    )
    assert main(["all", "--n", "3", "--out", str(tmp_path / "r.json")]) == 0
    # the N = 3 chain and the one-site fixture of the form-factors suite
    assert calls["full_spectrum"] == 2
    assert calls["eigenstate_vectors"] == 2**3


def test_aba_check_reports_each_record_once(monkeypatch):
    reported = []
    correspondence_report = cli.correspondence_report
    checks = []
    gate = determinants._on_shell_weights
    per_expansion = []
    crosscheck = cli.weighted_expansion_crosscheck

    def counting(params, rec, vectors):
        reported.append(id(rec))
        return correspondence_report(params, rec, vectors)

    def counting_checks(params, mu, xs, ys):
        checks.append(np.shape(xs))
        return gate(params, mu, xs, ys)

    def counting_expansion(params, bra, ket, site):
        before = len(checks)
        value = crosscheck(params, bra, ket, site)
        per_expansion.append(len(checks) - before)
        return value

    monkeypatch.setattr(cli, "correspondence_report", counting)
    monkeypatch.setattr(determinants, "_on_shell_weights", counting_checks)
    monkeypatch.setattr(cli, "weighted_expansion_crosscheck", counting_expansion)
    report = run(RunConfig(n_sites=3, seed=0, suites=("aba-check",)))
    assert report["aborted"] == {}
    assert len(reported) == len(set(reported)) == 2**3
    # one on-shell check per cross-expansion: its base determinant is one
    # more member of the stack of substituted columns (a separate base
    # call made 114)
    assert per_expansion == [1] * 57


def _count_lowering_calls(monkeypatch) -> list:
    """Record the root counts of every call of the one lowering core."""
    calls = []
    core = formfactors._lowering

    def counting(params, bra_roots, ket_roots, *rest):
        calls.append((np.shape(bra_roots)[-1], np.shape(ket_roots)[-1]))
        return core(params, bra_roots, ket_roots, *rest)

    monkeypatch.setattr(formfactors, "_lowering", counting)
    return calls


def test_form_factors_suite_evaluates_each_lowering_element_once(monkeypatch):
    calls = _count_lowering_calls(monkeypatch)
    report = run(RunConfig(n_sites=2, seed=0, suites=("form-factors",)))
    assert report["aborted"] == {}
    # one call per pair of the 2-site chain's sectors 0, 1, 2 at most one
    # root apart, plus the one-site fixture
    assert len(calls) == 7 + 1
    assert len(set(calls)) == 7


def test_full_run_evaluates_each_lowering_element_once(monkeypatch, tmp_path):
    calls = _count_lowering_calls(monkeypatch)
    assert main(["all", "--n", "3", "--out", str(tmp_path / "r.json")]) == 0
    # one call per adjacent pair of the 3-site chain's sectors, shared by the
    # form-factors and aba-check suites, plus the one-site fixture
    assert len(calls) == 10 + 1
    assert len(set(calls)) == 10


def test_identities_suite_checks_each_row_set_once_per_stack(monkeypatch):
    checks = []
    gate = determinants._on_shell_weights
    rectangular = []
    rectangular_det = cli.gen_slavnov_determinant

    def counting(params, mu, xs, ys):
        checks.append(np.shape(xs))
        return gate(params, mu, xs, ys)

    def counting_rectangular(params, mu, xs, ys):
        rectangular.append(np.shape(ys))
        return rectangular_det(params, mu, xs, ys)

    monkeypatch.setattr(determinants, "_on_shell_weights", counting)
    monkeypatch.setattr(cli, "gen_slavnov_determinant", counting_rectangular)
    report = run(RunConfig(n_sites=3, seed=0, suites=("identities",)))
    assert not report["aborted"]
    params = sample_generic_params(3, 0)
    row_sets = sum(
        (rec.bethe_roots.size > 0) + (rec.q_minus_roots.size > 0)
        for rec in full_spectrum(params, 0)
    )
    # one square stack per root set, one rectangular stack per free-set
    # size drawn for it (one or two extra points) and the six evaluations
    # of the coinciding-root limit; one call per determinant made 286
    assert row_sets <= len(rectangular) <= 2 * row_sets
    assert len(checks) == row_sets + len(rectangular) + 6
    assert sum(shape[0] for shape in rectangular) == 10 * row_sets


def test_failed_spectrum_build_is_not_cached(monkeypatch):
    calls = []

    def failing(params, seed=0):
        calls.append(params.n_sites)
        raise SpectrumError("no spectrum")

    unaffected = ("oracle", "sov", "homogeneous-stress")
    clean = run(RunConfig(n_sites=2, seed=0, suites=unaffected))
    monkeypatch.setattr(cli, "full_spectrum", failing)
    report = run(RunConfig(n_sites=2, seed=0))
    assert report["aborted"] == {
        suite: "SpectrumError: no spectrum" for suite in SPECTRUM_SUITES
    }
    assert calls == [2] * len(SPECTRUM_SUITES)
    for suite in unaffected:
        assert _rows_of(report, suite) == _rows_of(clean, suite), suite
        assert report["summaries"].get(suite) == clean["summaries"].get(suite)


def test_failed_chain_draw_aborts_every_suite_that_draws(tmp_path):
    out = tmp_path / "report.json"
    assert main(["all", "--n", "2", "--margin", "1e6", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert sorted(report["aborted"]) == sorted(CHAIN_SUITES)
    messages = set(report["aborted"].values())
    assert len(messages) == 1
    assert messages.pop().startswith("SamplingFailureError: ")
    assert _rows_of(report, "homogeneous-stress")
