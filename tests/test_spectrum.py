"""Transfer spectrum through the discrete T-Q system."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from sovxxx import dense, determinants, spectrum
from sovxxx.chain import a_of, d_of, fixture_params
from sovxxx.dense import transfer_antiperiodic
from sovxxx.determinants import mu_bethe_residuals
from sovxxx.errors import PoleCollisionError, SpectrumError
from sovxxx.polynomials import poly_from_roots, poly_roots
from sovxxx.sov import bilinear, separate_state_dense, spec_from_roots
from sovxxx.spectrum import (
    EigenRecord,
    full_spectrum,
    pairing_indices,
    probe_points,
    sectors,
    solve_q_from_tau,
)

from conftest import cached_params, cached_spectrum


def test_single_site_fixture_is_closed_form():
    records = full_spectrum(fixture_params(1), 0)
    assert len(records) == 2
    taus = sorted(npoly.polyval(0.0, rec.tau).real for rec in records)
    assert taus == pytest.approx([-1.0, 1.0], abs=1e-12)
    for rec in records:
        monic = rec.q_tau / rec.q_tau[rec.n_roots]
        if npoly.polyval(0.0, rec.tau).real > 0:
            assert monic == pytest.approx([0.5, 1.0], abs=1e-10)
            assert rec.bethe_roots == pytest.approx([-0.5], abs=1e-10)
        else:
            assert monic == pytest.approx([1.0, 0.0], abs=1e-10)
            assert rec.n_roots == 0


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_record_counts_and_distinctness(n_sites):
    records = cached_spectrum(n_sites, 0)
    assert len(records) == 2**n_sites
    probe = 0.319 - 0.777j
    values = npoly.polyval(probe, np.array([rec.tau for rec in records]).T)
    gaps = np.abs(values[:, None] - values[None, :]) + np.eye(values.size)
    assert np.min(gaps) > 1e-6


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_functional_residual_on_fresh_points(n_sites):
    params = cached_params(n_sites, 0)
    rng = np.random.Generator(np.random.Philox(key=501 + n_sites))
    pts = rng.uniform(-1.5, 1.5, (50, 2))
    points = pts[:, 0] + 1j * pts[:, 1]
    eta = params.eta
    for rec in cached_spectrum(n_sites, 0):
        tau_values = npoly.polyval(points, rec.tau)[None]
        residual = spectrum._tq_residuals(params, tau_values, rec.q_tau[None], points)
        assert residual[0] <= 1e-8
        # an off-shell q, against the residual evaluated point by point
        off = rec.q_tau + 0.1
        terms = [
            (
                npoly.polyval(z, rec.tau) * npoly.polyval(z, off),
                a_of(params, z) * npoly.polyval(z - eta, off),
                d_of(params, z) * npoly.polyval(z + eta, off),
            )
            for z in points
        ]
        per_point = max(
            abs(t1 + t2 - t3) / max(abs(t1), abs(t2), abs(t3), 1e-300)
            for t1, t2, t3 in terms
        )
        residual = spectrum._tq_residuals(params, tau_values, off[None], points)
        assert residual[0] == pytest.approx(per_point, rel=1e-12)


@pytest.mark.parametrize("n_sites", [2, 3])
def test_separate_state_is_dense_eigenvector(n_sites):
    params = cached_params(n_sites, 0)
    lam = 0.41 + 0.23j
    mat = transfer_antiperiodic(params, lam)
    for rec in cached_spectrum(n_sites, 0):
        vec = separate_state_dense(
            params, spec_from_roots(params, rec.bethe_roots, "right")
        )
        tau_val = npoly.polyval(lam, rec.tau)
        num = np.linalg.norm(mat @ vec - tau_val * vec)
        assert num <= 1e-8 * max(abs(tau_val), 1.0) * np.linalg.norm(vec)


@pytest.mark.parametrize("n_sites", [2, 3])
def test_distinct_eigenstates_pair_to_zero(n_sites):
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    states = {}
    for k, rec in enumerate(records):
        states[k] = (
            separate_state_dense(
                params, spec_from_roots(params, rec.bethe_roots, "left")
            ),
            separate_state_dense(
                params, spec_from_roots(params, rec.bethe_roots, "right")
            ),
        )
    for i in range(len(records)):
        for j in range(len(records)):
            if i == j:
                continue
            left, _ = states[i]
            _, right = states[j]
            norms = np.linalg.norm(left) * np.linalg.norm(right)
            assert abs(bilinear(left, right)) <= 1e-8 * norms


def _first_negated_partner(records):
    """The partner search written as a loop over record pairs, each
    eigenvalue row cut after its last nonzero coefficient."""
    rows = [np.trim_zeros(rec.tau, "b") for rec in records]
    out = []
    for coeffs in rows:
        scale = max(float(np.max(np.abs(coeffs))), 1.0)
        out.append(
            next(
                j
                for j, other in enumerate(rows)
                if other.size == coeffs.size
                and np.max(np.abs(other + coeffs)) <= 1e-9 * scale
            )
        )
    return out


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_negation_pairing_is_exact_involution(n_sites):
    records = cached_spectrum(n_sites, 0)
    partner = pairing_indices(records)
    assert partner == _first_negated_partner(records)
    probe = 1.234 - 0.567j
    for i, rec in enumerate(records):
        j = partner[i]
        assert partner[j] == i
        value = npoly.polyval(probe, rec.tau)
        partner_value = npoly.polyval(probe, records[j].tau)
        assert abs(partner_value + value) <= 1e-9 * max(1.0, abs(value))


def test_stored_residuals_meet_module_gates():
    for n_sites in (2, 3, 4):
        for rec in cached_spectrum(n_sites, 0):
            assert rec.residuals["discrete_system"] <= 1e-9
            assert rec.residuals["functional_tq"] <= 1e-8
            assert rec.residuals["bethe"] <= 1e-7
            assert rec.residuals["wronskian"] <= 1e-8
            assert rec.residuals["eigenstate"] <= 1e-8


def _degree(row) -> int:
    return int(np.flatnonzero(row)[-1])


def test_q_solution_is_independent_of_collocation_points():
    params = cached_params(3, 0)
    records = cached_spectrum(3, 0)[:3]
    for seed in (5, 17):
        again = solve_q_from_tau(params, [rec.tau for rec in records], seed=seed)
        assert again.shape == (len(records), params.n_sites + 1)
        for rec, q in zip(records, again):
            assert _degree(q) == _degree(rec.q_tau) == rec.n_roots
            scale = float(np.max(np.abs(rec.q_tau)))
            assert np.max(np.abs(q - rec.q_tau)) <= 1e-9 * scale


def test_leading_coefficient_off_every_degree_is_refused():
    params = cached_params(3, 0)
    for rec in cached_spectrum(3, 0)[:4]:
        # t_{N-1} / eta = 1.1 (2r - 3) is an odd integer for no r
        with pytest.raises(SpectrumError, match="leading coefficient"):
            solve_q_from_tau(params, [rec.tau * 1.1])


def test_degree_zero_solutions_are_one_with_no_warning():
    params = cached_params(3, 0)
    rec = next(r for r in cached_spectrum(3, 0) if r.n_roots == 0)
    # any warning is an error under the test configuration
    (q,) = solve_q_from_tau(params, [rec.tau])
    assert np.array_equal(q, [1.0, 0.0, 0.0, 0.0])
    for rec in full_spectrum(fixture_params(1), 0):
        if rec.n_roots == 0:
            assert np.array_equal(rec.q_tau, [1.0, 0.0])
        else:
            assert np.array_equal(rec.q_minus_tau, [1.0, 0.0])


def test_full_spectrum_builds_each_transfer_matrix_once(monkeypatch):
    n_sites = 3
    counts = {spectrum: 0, dense: 0}

    def counting(module):
        def build(params, lam):
            counts[module] += 1
            return transfer_antiperiodic(params, lam)

        return build

    for module in counts:
        monkeypatch.setattr(module, "transfer_antiperiodic", counting(module))
    full_spectrum(cached_params(n_sites, 0), 0)
    # the nodes, the held-out point and the eigenstate-check point, shared
    # by all 2^N records, plus the candidate points diagonalize_transfer tried
    assert counts[spectrum] == n_sites + 2
    assert counts[dense] >= 1


def test_bethe_residuals_flag_off_shell_sets():
    params = cached_params(3, 0)
    rec = next(r for r in cached_spectrum(3, 0) if r.n_roots >= 1)
    good = mu_bethe_residuals(params, -1.0, rec.bethe_roots)
    assert np.max(good) <= 1e-7
    bad = mu_bethe_residuals(params, -1.0, rec.bethe_roots + 0.1)
    assert np.max(bad) > 1e-3


def test_bethe_residuals_reject_lattice_collisions():
    params = cached_params(3, 0)
    with pytest.raises(PoleCollisionError):
        mu_bethe_residuals(params, -1.0, np.array([params.xi[0]]))


def test_probe_points_deterministic_and_away_from_lattice():
    params = cached_params(4, 0)
    first = probe_points(params, 9)
    second = probe_points(params, 9)
    assert np.array_equal(first, second)
    for z in first:
        assert abs(a_of(params, z)) > 1e-8
        assert abs(d_of(params, z)) > 1e-8


def test_stacked_q_solve_matches_stack_of_one_solves():
    params = cached_params(3, 0)
    records = cached_spectrum(3, 0)
    taus = np.array([rec.tau for rec in records])
    taus = np.concatenate([taus, -taus])
    probes = probe_points(params, 2 * params.n_sites + 2)
    stacked, _ = spectrum._solve_q_stack(params, taus, probes, 0)
    singles = [solve_q_from_tau(params, [tau], seed=0)[0] for tau in taus]
    for q, single in zip(stacked, singles):
        assert _degree(q) == _degree(single)
        scale = float(np.max(np.abs(single)))
        assert np.max(np.abs(q - single)) <= 1e-12 * scale
    # the spectrum's records hold the same solves
    for rec, up, down in zip(records, stacked, stacked[len(records) :]):
        scale = float(np.max(np.abs(rec.q_tau)))
        assert np.max(np.abs(up - rec.q_tau)) <= 1e-12 * scale
        assert _degree(down) == _degree(rec.q_minus_tau)


def test_probe_points_are_drawn_once_per_chain(monkeypatch):
    calls = []
    real = spectrum.probe_points

    def counting(params, count):
        calls.append(count)
        return real(params, count)

    monkeypatch.setattr(spectrum, "probe_points", counting)
    full_spectrum(cached_params(3, 0), 0)
    assert calls == [2 * 3 + 2]


def test_collocation_solve_runs_once_per_degree_per_chain(monkeypatch):
    n_sites = 3
    real_qr = np.linalg.qr
    shapes = []

    def recording(mat):
        shapes.append(np.shape(mat))
        return real_qr(mat)

    monkeypatch.setattr(np.linalg, "qr", recording)
    records = full_spectrum(cached_params(n_sites, 0), 0)
    # one least-squares solve per degree r > 0 over every eigenvalue and
    # its negative, at 2N + 2 collocation points
    degrees = [rec.n_roots for rec in records]
    degrees += [n_sites - r for r in degrees]
    assert shapes == [
        (degrees.count(r), 2 * n_sites + 2, r)
        for r in sorted(set(degrees) - {0})
    ]


@pytest.mark.parametrize("n_sites", [3, 4, 5])
def test_polished_roots_never_have_a_larger_residual(n_sites):
    params = cached_params(n_sites, 0)
    for rec in cached_spectrum(n_sites, 0):
        res = rec.residuals
        assert res["bethe"] <= res["bethe_unpolished"]
        assert res["bethe"] == mu_bethe_residuals(params, -1.0, rec.bethe_roots).max(
            initial=0.0
        )
        assert res["newton_steps"] >= 0
        r = rec.n_roots
        assert np.array_equal(rec.q_tau[: r + 1], poly_from_roots(rec.bethe_roots))
        assert not rec.q_tau[r + 1 :].any()


def test_polish_recovers_perturbed_root_sets():
    params = cached_params(4, 0)
    sets = [rec.bethe_roots for rec in cached_spectrum(4, 0) if rec.n_roots == 2]
    rng = np.random.Generator(np.random.Philox(key=515))
    kicked = np.array(sets) + 1e-7 * (rng.standard_normal((len(sets), 2)) + 1j)
    polished, raw, worst, steps = spectrum._polish(params, kicked)
    assert np.all(raw > 1e-9)
    assert np.all(worst < 1e-12)
    assert np.all(steps >= 2)
    assert np.all(mu_bethe_residuals(params, -1.0, polished).max(axis=-1) == worst)
    assert np.max(np.abs(polished - np.array(sets))) <= 1e-12


def test_a_record_without_a_negated_partner_is_refused():
    records = list(cached_spectrum(2, 0))
    partner = pairing_indices(records)
    kept = [rec for k, rec in enumerate(records) if k != partner[0]]
    with pytest.raises(SpectrumError, match="record 0"):
        pairing_indices(kept)


def _reference_polish(params, roots):
    """The polish with the Bethe ratios evaluated twice per iterate: once
    as the current sets' excess and once as the trials' residuals."""
    roots = roots.copy()
    raw = mu_bethe_residuals(params, -1.0, roots).max(axis=-1, initial=0.0)
    worst = raw.copy()
    steps = np.zeros(roots.shape[0], dtype=int)
    active = np.flatnonzero(worst > 0.0)
    for _ in range(spectrum._MAX_NEWTON_STEPS):
        if active.size == 0:
            break
        current = roots[active]
        excess = determinants._bethe_ratios(params, -1.0, current) - 1.0
        jac_inv = np.linalg.inv(determinants.gaudin_matrix(params, current))
        trial = current - (jac_inv @ excess[..., None])[..., 0]
        with np.errstate(all="ignore"):
            trial_worst = mu_bethe_residuals(params, -1.0, trial).max(axis=-1)
        better = trial_worst < worst[active]
        kept = active[better]
        roots[kept] = trial[better]
        worst[kept] = trial_worst[better]
        steps[kept] += 1
        active = kept[worst[kept] > 0.0]
    return roots, raw, worst, steps


def _per_row_polished(params, q, degrees):
    """Reference route of ``spectrum._polished``: each row's roots by
    ``npoly.polyroots`` one row at a time, grouped by root count for
    ``_reference_polish``, each polynomial rebuilt from its roots."""
    roots = [npoly.polyroots(row[: r + 1]) for row, r in zip(q, degrees)]
    rebuilt = np.zeros_like(q)
    out = [None] * len(roots)
    for size in sorted({r.size for r in roots}):
        members = [i for i, r in enumerate(roots) if r.size == size]
        stack = np.array([roots[i] for i in members]).reshape(len(members), size)
        polished, raw, worst, steps = _reference_polish(params, stack)
        for k, i in enumerate(members):
            rebuilt[i, : size + 1] = poly_from_roots(polished[k])
            out[i] = spectrum._QSolution(
                polished[k], float(raw[k]), float(worst[k]), int(steps[k])
            )
    return rebuilt, out


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6])
def test_records_equal_the_per_row_route_bit_for_bit(n_sites, monkeypatch):
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    monkeypatch.setattr(spectrum, "_polished", _per_row_polished)
    for rec, ref in zip(records, full_spectrum(params, 0), strict=True):
        for got, want in (
            (rec.bethe_roots, ref.bethe_roots),
            (rec.q_minus_roots, ref.q_minus_roots),
            (rec.q_tau, ref.q_tau),
            (rec.q_minus_tau, ref.q_minus_tau),
        ):
            assert got.tobytes() == want.tobytes()
        assert rec.residuals == ref.residuals


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6])
def test_collocation_roots_are_per_row_polyroots_bit_for_bit(n_sites, monkeypatch):
    solves = []
    collocate = spectrum.tq_collocation

    def recording(params, tau_values, points, degrees):
        q = collocate(params, tau_values, points, degrees)
        solves.append((q, np.asarray(degrees)))
        return q

    monkeypatch.setattr(spectrum, "tq_collocation", recording)
    full_spectrum(cached_params(n_sites, 0), 0)
    ((q, degrees),) = solves
    for r in range(1, n_sites + 1):
        rows = q[degrees == r, : r + 1]
        assert rows.shape[0] >= 2
        expected = np.array([npoly.polyroots(row) for row in rows])
        assert poly_roots(rows).tobytes() == expected.tobytes()


def test_polish_evaluates_the_bethe_ratios_once_per_iterate(monkeypatch):
    calls = {"ratios": 0, "jacobians": 0}

    def counting(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(
        spectrum, "_bethe_ratios", counting("ratios", spectrum._bethe_ratios)
    )
    monkeypatch.setattr(
        spectrum, "gaudin_matrix", counting("jacobians", spectrum.gaudin_matrix)
    )
    polish = spectrum._polish
    groups = []

    def recording(params, roots):
        before = dict(calls)
        out = polish(params, roots)
        groups.append({name: calls[name] - before[name] for name in calls})
        return out

    monkeypatch.setattr(spectrum, "_polish", recording)
    full_spectrum(cached_params(4, 0), 0)
    # one Jacobian per Newton iteration, and one evaluation per iterate
    assert len(groups) == 5
    assert all(group["ratios"] == 1 + group["jacobians"] for group in groups)
    params = cached_params(4, 0)
    sets = [rec.bethe_roots for rec in cached_spectrum(4, 0) if rec.n_roots == 2]
    rng = np.random.Generator(np.random.Philox(key=515))
    kicked = np.array(sets) + 1e-7 * (rng.standard_normal((len(sets), 2)) + 1j)
    groups.clear()
    steps = spectrum._polish(params, kicked)[3]
    (group,) = groups
    assert group["jacobians"] >= steps.max() >= 2
    assert group["ratios"] == 1 + group["jacobians"]


def _corrupted_collocation(monkeypatch, where, value):
    """Set the coefficients ``where`` of the first degree-3 row of
    ``full_spectrum``'s collocation solve to ``value``."""
    collocate = spectrum.tq_collocation

    def patched(params, tau_values, points, degrees):
        q = collocate(params, tau_values, points, degrees)
        q[int(np.argmax(np.asarray(degrees) == 3)), where] = value
        return q

    monkeypatch.setattr(spectrum, "tq_collocation", patched)


def test_non_finite_collocation_row_raises_spectrum_error(monkeypatch):
    _corrupted_collocation(monkeypatch, 1, np.nan)
    with pytest.raises(SpectrumError, match="non-finite"):
        full_spectrum(cached_params(3, 0), 0)


def test_collocation_row_failing_re_expansion_raises_spectrum_error(monkeypatch):
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: eigvals(m) + 1e-3)
    with pytest.raises(SpectrumError, match="re-expansion"):
        full_spectrum(cached_params(3, 0), 0)


def test_collocation_row_losing_its_leading_coefficient_raises_spectrum_error(
    monkeypatch,
):
    # the lower coefficients exceed the monic top one by more than 1 / TRIM_TOL
    _corrupted_collocation(monkeypatch, slice(0, 3), 1e11)
    with pytest.raises(SpectrumError, match="leading coefficient"):
        full_spectrum(cached_params(3, 0), 0)


def test_rebuilt_polynomial_losing_its_leading_coefficient_raises_spectrum_error(
    monkeypatch,
):
    polish = spectrum._polish

    def wandering(params, roots):
        polished, raw, worst, steps = polish(params, roots)
        # three roots of modulus about 1e4 expand past 1 / TRIM_TOL
        return 1e4 * polished, raw, worst, steps

    monkeypatch.setattr(spectrum, "_polish", wandering)
    with pytest.raises(SpectrumError, match="leading coefficient"):
        full_spectrum(cached_params(3, 0), 0)


@pytest.mark.parametrize("n_sites", [2, 4])
def test_tau_rows_trim_trailing_noise(n_sites, monkeypatch):
    # noise of relative size about 1e-13 in every row's top coefficient:
    # the middle sector, whose top coefficient (2r - N) eta is zero,
    # drops it to an exact zero, and every other sector keeps its own
    real = spectrum.cardinal_coefficients

    def noisy(nodes):
        out = real(nodes)
        out[:, -1] += 1e-12 * np.abs(out[:, -1]).max()
        return out

    monkeypatch.setattr(spectrum, "cardinal_coefficients", noisy)
    for rec in full_spectrum(cached_params(n_sites, 0), 0):
        assert (rec.tau[-1] == 0) == (2 * rec.n_roots == n_sites)


def test_non_finite_tau_row_raises_spectrum_error(monkeypatch):
    params = cached_params(3, 0)

    def broken(params, lam):
        out = transfer_antiperiodic(params, lam)
        return out * np.nan if lam == params.xi[1] else out

    monkeypatch.setattr(spectrum, "transfer_antiperiodic", broken)
    with pytest.raises(SpectrumError, match="non-finite"):
        full_spectrum(params, 0)


@pytest.mark.parametrize("shape", [(1, 2), (2, 4), (3,), (1, 1, 3)])
def test_eigenvalue_rows_of_another_width_are_refused(shape):
    with pytest.raises(SpectrumError, match="rows of width 3"):
        solve_q_from_tau(cached_params(3, 0), np.ones(shape))


def test_an_empty_stack_of_eigenvalue_rows_gives_no_rows():
    q = solve_q_from_tau(cached_params(3, 0), np.zeros((0, 3)))
    assert q.shape == (0, 4)


def test_nan_functional_residual_fails_the_gate(monkeypatch):
    real = spectrum._tq_residuals
    monkeypatch.setattr(spectrum, "_tq_residuals", lambda *args: real(*args) * np.nan)
    with pytest.raises(SpectrumError, match="functional gate"):
        full_spectrum(cached_params(3, 0), 0)


def test_record_rows_and_sector_stacks_are_read_only():
    records = cached_spectrum(3, 0)
    arrays = [
        array
        for rec in records
        for array in (rec.tau, rec.q_tau, rec.q_minus_tau, rec.tau_at_nodes)
    ]
    arrays += [array for sector in sectors(records).values() for array in sector]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def _synthetic_record(tau) -> EigenRecord:
    tau = np.asarray(tau, dtype=complex)
    q, none = np.ones(tau.size + 1), np.zeros(0, dtype=complex)
    return EigenRecord(tau, q, q, none, none, tau, cached_params(tau.size, 0))


def test_negated_partner_needs_a_row_of_equal_length():
    # the two rows negate each other to 1e-12 of their scale, but the
    # first ends at its second coefficient and the second at its third
    trimmed = _synthetic_record([1.0, 2.0, 0.0])
    with pytest.raises(SpectrumError, match="record 0"):
        pairing_indices([trimmed, _synthetic_record([-1.0, -2.0, 1e-12])])
    assert pairing_indices([trimmed, _synthetic_record([-1.0, -2.0, 0.0])]) == [1, 0]


@pytest.mark.parametrize("n_sites", [1, 3, 4])
def test_sectors_stack_each_root_count_once(n_sites):
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    groups = sectors(records)
    assert list(groups) == sorted({rec.n_roots for rec in records})
    members = np.concatenate([sector.members for sector in groups.values()])
    assert sorted(members.tolist()) == list(range(len(records)))
    for r, (members, roots, nodes, q) in groups.items():
        assert roots.shape == (members.size, r)
        assert q.shape == (members.size, n_sites + 1)
        points = roots + params.eta
        # every row's Q at every member's shifted roots, in one evaluation
        # of the padded rows equal to each record's own unpadded one
        values = npoly.polyval(points, q.T)
        for k, i in enumerate(members):
            rec = records[i]
            assert rec.n_roots == r
            assert np.array_equal(roots[k], rec.bethe_roots)
            assert np.array_equal(nodes[k], rec.tau_at_nodes)
            assert np.array_equal(q[k], rec.q_tau)
            own = npoly.polyval(points, rec.q_tau[: r + 1])
            assert values[k].tobytes() == own.tobytes()
