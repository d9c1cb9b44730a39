"""Verification driver: determinism, exit codes, report formats."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sovxxx import aba, cli, dense, determinants, formfactors, scalar
from sovxxx.chain import sample_generic_params
from sovxxx.cli import SUITE_ORDER, RunConfig, main, render_csv, render_json, run
from sovxxx.errors import SamplingFailureError, SpectrumError
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


def _two_draw_sampler(rng, count, eta, avoid=(), min_sep=0.2, box=1.8):
    """Reference for ``cli._draw_separated``: the same rejection rule with
    one scalar draw per coordinate."""
    shifts = (0.0, complex(eta), -complex(eta))
    accepted: list[complex] = []
    anchors = [complex(w) for w in avoid]
    for _ in range(4000):
        if len(accepted) == count:
            break
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(z - w + s) >= min_sep for w in anchors + accepted for s in shifts):
            accepted.append(z)
    if len(accepted) != count:
        raise SamplingFailureError("could not draw well-separated sample points")
    return np.array(accepted, dtype=complex)


def _draw_outcome(draw, seed: int = 7):
    """The points (None when the draw gives up) and the generator state
    after ``draw(rng)``, from a generator started mid-stream, as a suite's
    later draws are."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x1D5]))
    rng.uniform(size=3)
    try:
        points = draw(rng)
    except SamplingFailureError:
        points = None
    state = dict(rng.bit_generator.state, **rng.bit_generator.state["state"])
    del state["state"]
    return points, {k: np.asarray(v).tolist() for k, v in state.items()}


def _assert_same_draw(outcome, reference):
    (points, state), (ref_points, ref_state) = outcome, reference
    assert state == ref_state
    assert (points is None) == (ref_points is None)
    if ref_points is not None:
        assert points.dtype == ref_points.dtype and points.shape == ref_points.shape
        assert points.tobytes() == ref_points.tobytes()


@pytest.mark.parametrize(
    "count, avoid, min_sep, box",
    [
        (0, (), 0.2, 1.8),
        (0, (0.1 + 0.2j,), 0.3, 2.4),
        (3, (), 0.2, 1.8),
        (5, (0.3 - 0.1j, -0.7 + 0.4j, 1.1j), 0.3, 2.4),
        (8, (0.5, -0.5), 0.2, 1.8),
        (40, (), 0.3, 1.0),  # too many for the box: SamplingFailureError
    ],
)
def test_separated_draw_matches_two_scalar_draws(count, avoid, min_sep, box):
    eta = 0.9 + 0.15j
    outcomes = [
        _draw_outcome(lambda rng, f=f: f(rng, count, eta, avoid, min_sep, box))
        for f in (cli._draw_separated, _two_draw_sampler)
    ]
    _assert_same_draw(*outcomes)
    assert (outcomes[1][0] is None) == (count == 40)
    if count != 40:
        assert outcomes[0][0].shape == (count,)


_NON_FINITE = [
    complex("nan"), complex("inf"), complex(0.3, -math.inf), complex(math.nan, 1)
]
_AVOID_POINT = st.one_of(
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
    st.sampled_from(_NON_FINITE),
)


@settings(max_examples=120, deadline=None, database=None)
@given(
    count=st.integers(0, 10),
    points=st.lists(_AVOID_POINT, max_size=5),
    duplicate=st.booleans(),
    as_array=st.booleans(),
    eta=st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
    min_sep=st.floats(0.02, 1.0),
    box=st.floats(0.2, 2.5),
    seed=st.integers(0, 2**32 - 1),
)
# one point fits the box, so the budget runs out in the middle of a block
# of nine attempts
@example(
    count=10, points=[], duplicate=False, as_array=False, eta=1j, min_sep=1.0,
    box=0.3, seed=0,
)
def test_separated_draw_property_matches_two_scalar_draws(
    count, points, duplicate, as_array, eta, min_sep, box, seed
):
    points = points + points[:2] if duplicate else points
    avoid = np.array(points, dtype=complex) if as_array else tuple(points)
    outcomes = [
        _draw_outcome(lambda rng, f=f: f(rng, count, eta, avoid, min_sep, box), seed)
        for f in (cli._draw_separated, _two_draw_sampler)
    ]
    _assert_same_draw(*outcomes)


@settings(max_examples=60, deadline=None, database=None)
@given(
    m=st.integers(0, 4),
    n=st.integers(0, 4),
    points=st.lists(
        st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
        max_size=3,
    ),
    min_sep=st.floats(0.02, 0.25),
    box=st.floats(1.5, 2.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_pair_draw_equals_two_chained_draws(m, n, points, min_sep, box, seed):
    eta = 0.9 + 0.15j
    avoid = np.array(points, dtype=complex)

    def chained(rng):
        xs = cli._draw_separated(rng, m, eta, avoid, min_sep, box)
        ys = cli._draw_separated(
            rng, n, eta, np.concatenate([avoid, xs]), min_sep, box
        )
        return np.concatenate([xs, ys])

    # the suites split the one draw after its first m points
    split = _draw_outcome(
        lambda rng: cli._draw_separated(rng, m + n, eta, avoid, min_sep, box), seed
    )
    assert split[0] is not None
    _assert_same_draw(split, _draw_outcome(chained, seed))


def test_stacks_equal_numpy_stack_field_by_field():
    # the unbalanced-weight grid's samples: set sizes 0..2, float and
    # complex mu in one group, points drawn as the suite draws them
    rng = np.random.Generator(np.random.Philox(key=[7, 0x1D5]))
    eta = 0.9 + 0.2j
    samples = []
    for m in range(3):
        for mu in (-1.0, 2.0, 0.5 + 0.5j):
            points = cli._draw_separated(rng, m + 1, eta)
            samples.append((points[:m], points[m:], eta, mu))
    groups = cli._stacks(samples)
    assert len(groups) == 3
    for m, group in enumerate(groups):
        members = samples[3 * m : 3 * m + 3]
        for field, stacked in zip(zip(*members), group):
            expected = np.stack(field)
            assert stacked.dtype == expected.dtype and stacked.shape == expected.shape
            assert stacked.tobytes() == expected.tobytes()


def _count_on_shell_checks(monkeypatch) -> list:
    """Record the row-set shape of every pass of the on-shell core's gate."""
    checks = []
    gate = determinants._on_shell_gate

    def counting(mu, g, rho):
        checks.append(np.shape(g))
        return gate(mu, g, rho)

    monkeypatch.setattr(determinants, "_on_shell_gate", counting)
    return checks


def test_aba_check_reports_each_record_once(monkeypatch):
    reported = []
    correspondence_report = cli.correspondence_report
    checks = _count_on_shell_checks(monkeypatch)
    substituted = []
    column_substituted = aba.column_substituted_slavnov
    in_table = []
    table = cli.weighted_expansion_table
    built = {}

    def count_builds(module, name):
        build = getattr(module, name)
        built[name] = 0

        def counting_build(*args):
            built[name] += 1
            return build(*args)

        monkeypatch.setattr(module, name, counting_build)

    def counting(params, records, states, vectors):
        reported.extend(id(rec) for rec in records)
        return correspondence_report(params, records, states, vectors)

    def counting_substituted(params, mu, xs, ys, m, z):
        value = column_substituted(params, mu, xs, ys, m, z)
        substituted.append((np.shape(xs)[-1], np.shape(value)))
        return value

    def counting_table(params, records):
        before = len(checks)
        value = table(params, records)
        in_table.append(len(checks) - before)
        return value

    monkeypatch.setattr(cli, "correspondence_report", counting)
    monkeypatch.setattr(aba, "column_substituted_slavnov", counting_substituted)
    monkeypatch.setattr(cli, "weighted_expansion_table", counting_table)
    for name in ("bethe_state", "left_bethe_state"):
        count_builds(aba, name)
    for name in ("transfer_twisted", "basis_rotation"):
        count_builds(dense, name)
    report = run(RunConfig(n_sites=3, seed=0, suites=("aba-check",)))
    assert report["aborted"] == {}
    assert len(reported) == len(set(reported)) == 2**3
    # each record's product-state pair is built once for every check that
    # reads it; one twisted transfer serves completeness (isospectrality
    # builds its own) and one rotation the correspondence (the root-free
    # identity builds its own)
    assert built == {
        "bethe_state": 2**3,
        "left_bethe_state": 2**3,
        "transfer_twisted": 2,
        "basis_rotation": 2,
    }
    # one stacked call, and so one on-shell check, per nonzero root count:
    # every bra, ket and site of the sector, each with its base and one
    # member per substituted column (one call per expansion made 57)
    counts = [rec.n_roots for rec in full_spectrum(sample_generic_params(3, 0), 0)]
    sectors = {r: counts.count(r) for r in set(counts) - {0}}
    assert in_table == [len(sectors)]
    assert substituted == [
        (r, (size, size, 3, r + 1)) for r, size in sorted(sectors.items())
    ]


def _count_lowering_calls(monkeypatch) -> list:
    """Record the root counts of every call of the one lowering core."""
    calls = []
    core = formfactors._lowering

    def counting(params, rows, columns, *rest):
        calls.append((rows.xs.shape[-1], columns.ys.shape[-1]))
        return core(params, rows, columns, *rest)

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
    checks = _count_on_shell_checks(monkeypatch)
    calls = {"square": [], "rectangular": []}

    def counting(kind, evaluate):
        def wrapper(params, mu, xs, ys):
            calls[kind].append((np.shape(xs), np.shape(ys)))
            return evaluate(params, mu, xs, ys)

        return wrapper

    monkeypatch.setattr(
        cli, "slavnov_determinant", counting("square", cli.slavnov_determinant)
    )
    monkeypatch.setattr(
        cli,
        "gen_slavnov_determinant",
        counting("rectangular", cli.gen_slavnov_determinant),
    )
    report = run(RunConfig(n_sites=3, seed=0, suites=("identities",)))
    assert not report["aborted"]
    params = sample_generic_params(3, 0)
    sizes = [
        roots.size
        for rec in full_spectrum(params, 0)
        for roots in (rec.bethe_roots, rec.q_minus_roots)
        if roots.size > 0
    ]
    square, rectangular = calls["square"], calls["rectangular"]
    # one square stack per root count, holding ten free sets per root set
    assert sorted(xs[-1] for xs, _ in square) == sorted(set(sizes))
    for xs, ys in square:
        assert xs == ys == (10 * sizes.count(xs[-1]), xs[-1])
    # one rectangular stack per (root count, one or two extra points)
    pairs = [(xs[-1], ys[-1] - xs[-1]) for xs, ys in rectangular]
    assert len(set(pairs)) == len(pairs)
    assert {extra for _, extra in pairs} <= {1, 2}
    for m in set(sizes):
        stacks = [xs[0] for xs, _ in rectangular if xs[-1] == m]
        assert sum(stacks) == 10 * sizes.count(m)
    # the stacks and the six evaluations of the coinciding-root limit (15;
    # one square stack per root set made 48)
    assert len(checks) == len(square) + len(rectangular) + 6


def test_scalar_products_suite_pairs_each_sector_group_once(monkeypatch):
    calls = []
    rectangular = scalar._on_shell

    def counting(params, mu, xs, ys):
        calls.append((np.shape(xs), np.shape(ys)))
        return rectangular(params, mu, xs, ys)

    monkeypatch.setattr(scalar, "_on_shell", counting)
    report = run(RunConfig(n_sites=3, seed=0, suites=("scalar-products",)))
    assert report["aborted"] == {}
    counts = [rec.n_roots for rec in full_spectrum(sample_generic_params(3, 0), 0)]
    # one call per on-shell count R and left count M = R..N+1, over the R
    # sector's records (14; one per pairing made 28); M < R pairings
    # vanish without one
    expected = sorted(
        ((counts.count(r), r), (counts.count(r), m))
        for r in set(counts)
        for m in range(r, 3 + 2)
    )
    assert sorted(calls) == expected


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
