"""Scalar products: closed forms, norms, limits, conditioning probes."""

from __future__ import annotations

import numpy as np
import pytest

from sovxxx.chain import a_of, d_of, fixture_params
from sovxxx.determinants import (
    izergin_determinant,
    richardson_limit,
    slavnov_determinant,
)
from sovxxx import determinants, scalar
from sovxxx.errors import LimitFailureError, PoleCollisionError, SpectrumError
from sovxxx.formfactors import eigenstate_vectors
from sovxxx.scalar import (
    gaudin_matrix,
    gaudin_norm,
    homogeneous_stress_sweep,
    near_homogeneous_params,
    sp_a_form,
    sp_b_form,
    sp_dense,
    sp_direct,
    sp_izergin_form,
    sp_izergin_form_clustered,
    sp_on_shell,
    sp_with_eigenstate,
    stress_trends,
)
from sovxxx.sov import bilinear, separate_state_dense, spec_from_roots
from sovxxx.spectrum import full_spectrum

from conftest import cached_params, cached_spectrum, separated_cloud


@pytest.mark.parametrize("n_sites", [3, 5])
def test_closed_forms_agree_with_dense_pairing(n_sites):
    params = cached_params(n_sites, 0)
    rng = np.random.Generator(np.random.Philox(key=701 + n_sites))
    xi = np.asarray(params.xi, dtype=complex)
    for _ in range(25):
        m_left = int(rng.integers(0, n_sites + 1))
        m_right = int(rng.integers(0, n_sites + 1))
        left_roots = separated_cloud(rng, m_left, params.eta, avoid=xi)
        right_roots = separated_cloud(
            rng, m_right, params.eta, avoid=np.concatenate([xi, left_roots])
        )
        left = spec_from_roots(params, left_roots, "left")
        right = spec_from_roots(params, right_roots, "right")
        values = [
            sp_dense(params, left, right),
            sp_direct(params, left, right),
            sp_a_form(params, left_roots, right_roots),
            sp_b_form(params, left_roots, right_roots),
        ]
        if m_left + m_right == n_sites:
            values.append(sp_izergin_form(params, left_roots, right_roots))
            values.append(
                sp_izergin_form_clustered(params, left_roots, right_roots)
            )
        scale = max(max(abs(v) for v in values), 1e-300)
        for v in values[1:]:
            assert abs(v - values[0]) <= 1e-10 * scale


def test_stacked_closed_forms_equal_one_call_per_pair():
    n_sites = 3
    params = cached_params(n_sites, 0)
    rng = np.random.Generator(np.random.Philox(key=702))
    xi = np.asarray(params.xi, dtype=complex)
    for m_left in range(n_sites + 1):
        for m_right in range(n_sites + 1):
            pairs = []
            for _ in range(3):
                left = separated_cloud(rng, m_left, params.eta, avoid=xi)
                right = separated_cloud(
                    rng, m_right, params.eta, avoid=np.concatenate([xi, left])
                )
                pairs.append((left, right))
            lefts = np.array([left for left, _ in pairs]).reshape(3, m_left)
            rights = np.array([right for _, right in pairs]).reshape(3, m_right)
            routes = {
                "dense": lambda x, y: sp_dense(
                    params,
                    spec_from_roots(params, x, "left"),
                    spec_from_roots(params, y, "right"),
                ),
                "direct": lambda x, y: sp_direct(
                    params,
                    spec_from_roots(params, x, "left"),
                    spec_from_roots(params, y, "right"),
                ),
                "a_form": lambda x, y: sp_a_form(params, x, y),
                "b_form": lambda x, y: sp_b_form(params, x, y),
            }
            if m_left + m_right == n_sites:
                routes["izergin"] = lambda x, y: sp_izergin_form(params, x, y)
            for name, route in routes.items():
                stacked = route(lefts, rights)
                assert stacked.shape == (3,), name
                one = [route(x, y) for x, y in pairs]
                assert all(isinstance(v, complex) for v in one), name
                # the stack takes array arithmetic where one pair takes
                # scalar arithmetic, so they agree to rounding, not bit
                # for bit
                scale = np.maximum(np.abs(one), 1e-300)
                assert np.all(np.abs(stacked - one) <= 1e-13 * scale), (
                    name, m_left, m_right,
                )


def test_izergin_form_requires_saturated_sizes():
    params = cached_params(3, 0)
    with pytest.raises(ValueError):
        sp_izergin_form(params, np.array([0.3 + 0.2j]), np.array([0.9 - 0.4j]))


def test_eigenstate_dispatch_matches_dense_for_all_sector_sizes():
    n_sites = 3
    params = cached_params(n_sites, 0)
    rng = np.random.Generator(np.random.Philox(key=703))
    xi = np.asarray(params.xi, dtype=complex)
    for rec in cached_spectrum(n_sites, 0):
        vec = eigenstate_vectors(params, rec)[1]
        for m_left in range(0, n_sites + 2):
            left_roots = separated_cloud(
                rng, m_left, params.eta, avoid=np.concatenate([xi, rec.bethe_roots])
            )
            value = sp_with_eigenstate(params, left_roots, rec)
            left = separate_state_dense(
                params, spec_from_roots(params, left_roots, "left")
            )
            dense = bilinear(left, vec)
            scale = max(
                float(np.max(np.abs(left)))
                * float(np.max(np.abs(vec)))
                * vec.size,
                1e-300,
            )
            assert abs(value - dense) <= 1e-9 * scale
            if m_left < rec.n_roots:
                assert abs(value) <= 1e-9 * scale


def test_stacked_on_shell_pairings_equal_one_call_per_pairing():
    n_sites = 3
    params = cached_params(n_sites, 0)
    rng = np.random.Generator(np.random.Philox(key=704))
    xi = np.asarray(params.xi, dtype=complex)
    records = cached_spectrum(n_sites, 0)
    for r in range(n_sites + 1):
        sector = [rec.bethe_roots for rec in records if rec.n_roots == r]
        on_shell = np.array(sector).reshape(len(sector), r)
        avoid = np.concatenate([xi, on_shell.ravel()])
        for m in range(n_sites + 2):
            left = np.array(
                [separated_cloud(rng, m, params.eta, avoid=avoid) for _ in sector]
            ).reshape(len(sector), m)
            stacked = sp_on_shell(params, left, on_shell)
            assert stacked.shape == (len(on_shell),)
            one = [sp_on_shell(params, x, y) for x, y in zip(left, on_shell)]
            if m < r:
                # below the on-shell count: exact zeros of the stack shape
                assert np.array_equal(stacked, np.zeros(len(on_shell)))
                assert one == [0.0] * len(on_shell)
            else:
                scale = np.maximum(np.abs(one), 1e-300)
                assert np.all(np.abs(stacked - one) <= 1e-12 * scale)


def test_single_site_norms_match_hand_values():
    params = fixture_params(1)
    records = full_spectrum(params, 0)
    norms = {}
    for rec in records:
        norms[rec.n_roots] = gaudin_norm(params, rec)
    assert norms[0] == pytest.approx(2.0, abs=1e-10)
    assert norms[1] == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_norm_determinant_matches_dense_self_pairing(n_sites):
    params = cached_params(n_sites, 0)
    for rec in cached_spectrum(n_sites, 0):
        left, right = eigenstate_vectors(params, rec)
        dense = bilinear(left, right)
        value = gaudin_norm(params, rec)
        assert abs(value - dense) <= 1e-8 * max(abs(dense), 1e-300)


def test_derivative_matrix_against_finite_differences():
    params = cached_params(3, 0)
    rec = next(r for r in cached_spectrum(3, 0) if r.n_roots >= 2)
    roots = rec.bethe_roots
    eta = params.eta

    def log_system(values):
        out = np.zeros(values.size, dtype=complex)
        for m in range(values.size):
            lam = values[m]
            term = np.log(a_of(params, lam)) - np.log(d_of(params, lam))
            for b in range(values.size):
                if b == m:
                    continue
                term += np.log(lam - values[b] - eta) - np.log(
                    lam - values[b] + eta
                )
            out[m] = term
        return out

    analytic = gaudin_matrix(params, roots)
    step = 1e-6
    for n in range(roots.size):
        bump = np.zeros(roots.size, dtype=complex)
        bump[n] = step
        column = (log_system(roots + bump) - log_system(roots - bump)) / (2 * step)
        assert np.max(np.abs(column - analytic[:, n])) <= 1e-5 * max(
            1.0, float(np.max(np.abs(analytic)))
        )


def _entrywise_derivative_matrix(params, roots):
    """The derivative matrix written out one entry at a time."""
    r, eta = roots.size, params.eta
    mat = np.zeros((r, r), dtype=complex)
    for m in range(r):
        lam = roots[m]
        mat[m, m] = np.sum(1.0 / (lam - params.xi + eta))
        mat[m, m] -= np.sum(1.0 / (lam - params.xi))
        for b in range(r):
            if b != m:
                exchange = 1.0 / (lam - roots[b] - eta) - 1.0 / (lam - roots[b] + eta)
                mat[m, m] += exchange
                mat[m, b] = -exchange
    return mat


def test_derivative_matrix_of_a_stack_is_the_matrix_of_each_set():
    params = cached_params(4, 0)
    records = cached_spectrum(4, 0)
    sets = np.array([rec.bethe_roots for rec in records if rec.n_roots == 2])
    stacked = gaudin_matrix(params, sets)
    assert stacked.shape == (len(sets), 2, 2)
    for roots, mat in zip(sets, stacked):
        assert np.array_equal(mat, gaudin_matrix(params, roots))
        reference = _entrywise_derivative_matrix(params, roots)
        assert np.max(np.abs(mat - reference)) <= 1e-13 * np.max(np.abs(reference))
    assert gaudin_matrix is determinants.gaudin_matrix


def test_coinciding_root_limit_reproduces_norm():
    params = cached_params(3, 0)
    rec = next(r for r in cached_spectrum(3, 0) if r.n_roots >= 1)
    roots = rec.bethe_roots
    r_count = roots.size
    n = params.n_sites
    rng = np.random.Generator(np.random.Philox(key=704))
    dirs = np.exp(2j * np.pi * rng.uniform(size=r_count))

    def displaced(eps):
        ys = roots + eps * dirs
        pref = complex(
            np.prod([d_of(params, z) for z in roots])
            * np.prod([d_of(params, z) for z in ys])
        )
        det = slavnov_determinant(params, -1.0, roots, ys)
        return complex(
            (-1.0) ** r_count * 2.0 ** (n - 2 * r_count) * pref * det
        )

    limit, _ = richardson_limit(displaced)
    target = gaudin_norm(params, rec)
    assert abs(limit - target) <= 1e-6 * abs(target)


def test_near_homogeneous_parameters_record_their_scale():
    params = near_homogeneous_params(4, 1e-3)
    assert params.n_sites == 4
    assert params.margin == pytest.approx(5e-4)
    assert np.allclose(
        np.asarray(params.xi), 1e-3 * np.arange(1, 5, dtype=float)
    )


def test_stress_sweep_routes_stay_coherent_on_short_schedule():
    rows = homogeneous_stress_sweep(n_sites=4, eps_values=(1e-2, 1e-3), seed=11)
    assert len(rows) == 2
    for row in rows:
        trio = (row["b_form"], row["slavnov_form"], row["izergin_form"])
        scale = max(abs(v) for v in trio)
        assert abs(trio[1] - trio[0]) <= 1e-9 * scale
        assert abs(trio[2] - trio[0]) <= 1e-9 * scale
        assert row["bethe_residual"] <= 1e-6
        assert row["raw_condition"] > 1e3
    trends = stress_trends(rows)
    assert len(trends["b_form_diffs"]) == 1
    assert trends["condition_numbers"][1] > trends["condition_numbers"][0]


def _exhaustive_first_family(params, tau_table, q_rows, points, degree):
    """The family choice as one gate per row and a minimum over the rows
    that pass, with the chosen row's roots gated once more: the
    reference the lazy ``scalar._first_family`` must reproduce."""
    candidates = []
    for idx, tau_vals in enumerate(tau_table):
        try:
            roots = scalar._gated_roots(params, tau_vals, q_rows[idx], points, degree)
            if determinants.mu_bethe_residuals(params, -1.0, roots).max() > 1e-6:
                continue
        except (SpectrumError, PoleCollisionError, RuntimeError):
            continue
        candidates.append(idx)
    if not candidates:
        raise LimitFailureError("no candidate passed")
    pick = min(
        candidates,
        key=lambda i: (round(tau_table[i][0].real, 9), round(tau_table[i][0].imag, 9)),
    )
    return pick, scalar._gated_roots(
        params, tau_table[pick], q_rows[pick], points, degree
    )


@pytest.mark.parametrize("seed", range(10))
def test_lazy_family_gate_matches_the_exhaustive_choice(seed, monkeypatch):
    lazy, gated = scalar._first_family, scalar._gated_roots
    calls, gates = [], []

    def recording(*args):
        calls.append((args, lazy(*args)))
        return calls[-1][1]

    def counting(*args):
        gates.append(args)
        return gated(*args)

    monkeypatch.setattr(scalar, "_first_family", recording)
    monkeypatch.setattr(scalar, "_gated_roots", counting)
    homogeneous_stress_sweep(n_sites=4, eps_values=(1e-2, 1e-3), seed=seed)
    monkeypatch.undo()
    # the first collapse scale alone picks the family, gating fewer rows
    # than it has; the second gates the matched family once
    [(args, (pick, roots))] = calls
    tau_table = args[1]
    assert len(gates) - 1 < len(tau_table)
    ref_pick, ref_roots = _exhaustive_first_family(*args)
    assert pick == ref_pick
    assert np.array_equal(roots, ref_roots)
    # a copy of the chosen row in front ties with it, and the lower index
    # wins the tie on both routes
    params, _, q_rows, points, degree = args
    tied = (
        params,
        np.concatenate([tau_table[pick : pick + 1], tau_table]),
        np.concatenate([q_rows[pick : pick + 1], q_rows]),
        points,
        degree,
    )
    assert lazy(*tied)[0] == _exhaustive_first_family(*tied)[0] == 0


def test_non_finite_collocation_row_is_skipped_by_the_family_choice(monkeypatch):
    lazy, calls = scalar._first_family, []

    def recording(*args):
        calls.append(args)
        return lazy(*args)

    monkeypatch.setattr(scalar, "_first_family", recording)
    homogeneous_stress_sweep(n_sites=4, eps_values=(1e-2,), seed=0)
    [(params, tau_table, q_rows, points, degree)] = calls
    pick, _ = lazy(*calls[0])
    broken = q_rows.copy()
    broken[pick, 0] = np.nan
    # the typed error, which the family choice catches: it takes the
    # next row that passes instead of aborting the sweep
    with pytest.raises(SpectrumError, match="functional gate"):
        scalar._gated_roots(params, tau_table[pick], broken[pick], points, degree)
    args = (params, tau_table, broken, points, degree)
    again, _ = lazy(*args)
    assert again != pick
    assert again == _exhaustive_first_family(*args)[0]


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
def test_family_choice_gates_only_the_target_sector(n_sites, monkeypatch):
    # a row of another sector would fail the gate; its sector, read off
    # tau's leading coefficient, keeps it from being gated, so the one row
    # gated is the target sector's first in order, and it passes
    gated, gates = scalar._gated_roots, []

    def counting(*args):
        gates.append(args)
        return gated(*args)

    monkeypatch.setattr(scalar, "_gated_roots", counting)
    for seed in range(3):
        gates.clear()
        homogeneous_stress_sweep(n_sites=n_sites, eps_values=(1e-2,), seed=seed)
        assert len(gates) == 1


@pytest.mark.parametrize("n_sites", [3, 4])
def test_equal_count_eigenstate_pairing_equals_domain_wall_form(n_sites):
    params = cached_params(n_sites, 0)
    rng = np.random.Generator(np.random.Philox(key=705 + n_sites))
    xi = np.asarray(params.xi, dtype=complex)
    for rec in cached_spectrum(n_sites, 0):
        avoid = np.concatenate([xi, rec.bethe_roots, rec.q_minus_roots])
        left_roots = separated_cloud(rng, rec.n_roots, params.eta, avoid=avoid)
        via_slavnov = sp_with_eigenstate(params, left_roots, rec)
        pooled = np.concatenate([left_roots, rec.q_minus_roots])
        pref = np.prod(d_of(params, left_roots)) * np.prod(
            d_of(params, rec.bethe_roots)
        )
        via_izergin = (
            (-1.0) ** n_sites
            * pref
            * izergin_determinant(1.0, pooled, params.xi, params.eta)
        )
        scale = max(1.0, abs(via_izergin), abs(via_slavnov))
        assert abs(via_izergin - via_slavnov) <= 1e-8 * scale
