"""Determinant engine: dressed functionals, kernel determinants, limits."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sovxxx import determinants
from sovxxx.determinants import (
    balanced_shift_ratio,
    dressed_vandermonde,
    dressed_vandermonde_unbalanced_check,
    gen_slavnov_determinant,
    gen_slavnov_sign,
    izergin_determinant,
    izergin_determinant_clustered,
    lattice_column_determinant,
    mu_bethe_residuals,
    richardson_limit,
    shift_ratio,
    slavnov_determinant,
    vandermonde,
)
from sovxxx.chain import a_of, d_of
from sovxxx.errors import LimitFailureError, NotOnShellError, PoleCollisionError
from sovxxx.scalar import (
    gaudin_norm,
    sp_a_form,
    sp_b_form,
    sp_izergin_form,
    sp_on_shell,
)

from conftest import cached_params, cached_spectrum, separated_cloud, two_pole_kernel


def test_weight_exchange_identity_hundred_instances():
    rng = np.random.Generator(np.random.Philox(key=601))
    for _ in range(100):
        m = int(rng.integers(1, 6))
        eta = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2))
        xs = separated_cloud(rng, m, eta)
        f = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        g = np.array(
            [
                -f[a] * np.prod((xs[a] - xs + eta) / (xs[a] - xs - eta))
                for a in range(m)
            ]
        )
        lhs = dressed_vandermonde(xs, eta, f, +1)
        rhs = dressed_vandermonde(xs, eta, g, -1)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-300)


def test_kernel_determinant_equals_dressed_functional_both_ways():
    rng = np.random.Generator(np.random.Philox(key=602))
    for _ in range(100):
        m = int(rng.integers(1, 6))
        eta = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2))
        xs = separated_cloud(rng, m, eta)
        ys = separated_cloud(rng, m, eta, avoid=xs)
        mu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        iz = izergin_determinant(mu, xs, ys, eta)
        on_x = np.array([mu * shift_ratio(ys, eta, x, +1) for x in xs])
        on_y = np.array([mu * shift_ratio(xs, eta, y, -1) for y in ys])
        alt_a = (-1.0) ** m * dressed_vandermonde(xs, eta, on_x, -1)
        alt_b = (-1.0) ** m * dressed_vandermonde(ys, eta, on_y, +1)
        scale = max(abs(iz), abs(alt_a), abs(alt_b), 1e-300)
        assert abs(iz - alt_a) <= 1e-10 * scale
        assert abs(iz - alt_b) <= 1e-10 * scale


def test_unbalanced_exchange_over_size_grid():
    rng = np.random.Generator(np.random.Philox(key=603))
    for m in range(5):
        for n in range(5):
            for mu in (-1.0, 2.0, 0.5 + 0.5j):
                eta = complex(0.9, 0.2 * ((m + n) % 3 - 1))
                xs = separated_cloud(rng, m, eta)
                ys = separated_cloud(rng, n, eta, avoid=xs)
                lhs, rhs = dressed_vandermonde_unbalanced_check(mu, xs, ys, eta)
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_unbalanced_exchange_rejects_singular_direction():
    rng = np.random.Generator(np.random.Philox(key=604))
    xs = separated_cloud(rng, 3, 1.0)
    ys = separated_cloud(rng, 2, 1.0, avoid=xs)
    with pytest.raises(ValueError):
        dressed_vandermonde_unbalanced_check(1.0, xs, ys, 1.0)


def test_oversized_weight_sets_annihilate():
    # fixed well-separated clouds keep every term of order one, so the
    # structural zero shows up at working precision in absolute terms
    rng = np.random.Generator(np.random.Philox(key=605))
    eta = 1.1 - 0.15j
    for small in range(0, 5):
        for big in range(small + 1, 6):
            xs = separated_cloud(rng, small, eta, min_sep=0.4, box=1.5)
            ys = separated_cloud(rng, big, eta, avoid=xs, min_sep=0.4, box=1.5)
            minus = np.array([shift_ratio(xs, eta, y, -1) for y in ys])
            plus = np.array([shift_ratio(xs, eta, y, +1) for y in ys])
            assert abs(dressed_vandermonde(ys, eta, minus, +1)) <= 1e-11
            assert abs(dressed_vandermonde(ys, eta, plus, -1)) <= 1e-11


def test_on_shell_reductions_at_three_sites():
    params = cached_params(3, 0)
    eta = params.eta
    rng = np.random.Generator(np.random.Philox(key=606))
    for rec in cached_spectrum(3, 0):
        for roots in (rec.bethe_roots, rec.q_minus_roots):
            m = roots.size
            if m == 0:
                continue
            avoid = np.concatenate([roots, np.asarray(params.xi, dtype=complex)])
            for _ in range(10):
                ys = separated_cloud(rng, m, eta, avoid=avoid)
                lhs = slavnov_determinant(params, -1.0, roots, ys)
                pooled = np.concatenate([roots, ys])
                fv = np.array([-shift_ratio(params.xi, eta, z, +1) for z in pooled])
                rhs = dressed_vandermonde(pooled, eta, fv, -1)
                scale = max(abs(lhs), abs(rhs), 1e-300)
                assert abs(gen_slavnov_sign(m, 0) * lhs - rhs) <= 1e-9 * scale
                extra = int(rng.integers(1, 3))
                ys4 = separated_cloud(rng, m + extra, eta, avoid=avoid)
                lhs4 = gen_slavnov_determinant(params, -1.0, roots, ys4)
                pooled4 = np.concatenate([roots, ys4])
                f4 = np.array(
                    [-shift_ratio(params.xi, eta, z, +1) for z in pooled4]
                )
                rhs4 = dressed_vandermonde(pooled4, eta, f4, -1)
                scale4 = max(abs(lhs4), abs(rhs4), 1e-300)
                assert (
                    abs(gen_slavnov_sign(m, extra) * lhs4 - rhs4) <= 1e-9 * scale4
                )


def test_on_shell_gate_rejects_perturbed_roots():
    params = cached_params(3, 0)
    rec = next(r for r in cached_spectrum(3, 0) if r.n_roots >= 1)
    rng = np.random.Generator(np.random.Philox(key=607))
    ys = separated_cloud(
        rng,
        rec.n_roots,
        params.eta,
        avoid=np.concatenate([rec.bethe_roots, np.asarray(params.xi)]),
    )
    with pytest.raises(NotOnShellError):
        slavnov_determinant(params, -1.0, rec.bethe_roots + 0.05, ys)


def test_rectangular_form_reduces_to_square_case():
    params = cached_params(3, 0)
    rec = next(r for r in cached_spectrum(3, 0) if r.n_roots >= 1)
    rng = np.random.Generator(np.random.Philox(key=608))
    ys = separated_cloud(
        rng,
        rec.n_roots,
        params.eta,
        avoid=np.concatenate([rec.bethe_roots, np.asarray(params.xi)]),
    )
    a = gen_slavnov_determinant(params, -1.0, rec.bethe_roots, ys)
    b = slavnov_determinant(params, -1.0, rec.bethe_roots, ys)
    assert a == b


def test_kernel_determinant_is_permutation_invariant():
    rng = np.random.Generator(np.random.Philox(key=609))
    eta = 0.8 + 0.1j
    xs = separated_cloud(rng, 4, eta)
    ys = separated_cloud(rng, 4, eta, avoid=xs)
    base = izergin_determinant(0.7 - 0.2j, xs, ys, eta)
    for _ in range(5):
        perm = rng.permutation(4)
        again = izergin_determinant(0.7 - 0.2j, xs[perm], ys[perm], eta)
        assert abs(again - base) <= 1e-12 * abs(base)


def test_clustered_kernel_route_matches_plain_on_generic_sets():
    rng = np.random.Generator(np.random.Philox(key=610))
    for _ in range(25):
        m = int(rng.integers(1, 6))
        eta = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.3, 0.3))
        xs = separated_cloud(rng, m, eta)
        ys = separated_cloud(rng, m, eta, avoid=xs)
        mu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
        plain = izergin_determinant(mu, xs, ys, eta)
        clustered = izergin_determinant_clustered(mu, xs, ys, eta)
        assert abs(plain - clustered) <= 1e-10 * max(abs(plain), 1e-300)


def test_clustered_kernel_route_survives_coalescing_nodes():
    eta = 1.0 + 0.0j
    xs = np.array([0.9 + 0.7j, -1.1 + 0.4j, 0.2 - 0.9j, -0.4 - 0.3j])
    base = np.array([0.31 + 0.12j] * 4)
    offsets = np.exp(2j * np.pi * np.arange(4) / 4)
    values = []
    for eps in (1e-3, 1e-4, 1e-5):
        ys = base + eps * offsets
        values.append(izergin_determinant_clustered(-1.0, xs, ys, eta))
    scale = max(abs(v) for v in values)
    # smooth in the collapse parameter: successive values converge
    assert abs(values[1] - values[0]) <= 1e-2 * scale
    assert abs(values[2] - values[1]) <= 1e-3 * scale
    # the plain evaluation loses most of its digits by eps = 1e-5
    plain = izergin_determinant(-1.0, xs, base + 1e-5 * offsets, eta)
    assert abs(plain - values[2]) > 1e3 * abs(values[2] - values[1])


def test_iterated_limit_of_constant_and_removable_ratio():
    value, err = richardson_limit(lambda eps: 4.25 - 0.5j)
    assert value == pytest.approx(4.25 - 0.5j, abs=1e-12)
    assert err <= 1e-12
    value, err = richardson_limit(lambda eps: (1.0 + eps) / (1.0 + eps))
    assert value == pytest.approx(1.0, abs=1e-10)


def test_iterated_limit_rejects_growing_corrections():
    # smooth for every fine sample, wildly off at the coarsest one: the
    # correction sequence starts tiny and then jumps, which the guard
    # must refuse to extrapolate through
    with pytest.raises(LimitFailureError):
        richardson_limit(lambda eps: eps + (1e6 if eps > 7.5e-3 else 0.0))


@pytest.mark.parametrize(
    "evaluator",
    [
        lambda eps: float("nan"),
        lambda eps: complex("inf"),
        # one bad sample, at the finest eps only
        lambda eps: 1.0 if eps > 1e-3 else complex("nan"),
        # finite samples whose extrapolation overflows
        lambda eps: 1.7e308 * (-1.0) ** round(math.log2(1e-2 / eps)),
    ],
    ids=["nan", "inf", "nan_at_finest", "overflowing_limit"],
)
def test_iterated_limit_rejects_non_finite_values(evaluator):
    with pytest.raises(LimitFailureError):
        richardson_limit(evaluator)


@pytest.mark.parametrize(
    "evaluator",
    [lambda eps: 1.0 / eps, math.log, math.sqrt],
    ids=["pole", "log", "sqrt"],
)
def test_iterated_limit_rejects_divergent_evaluators(evaluator):
    # none is a polynomial in eps at 0: the final correction stays far
    # above the rounding floor of the samples (1/eps once gave (6300, 100))
    with pytest.raises(LimitFailureError):
        richardson_limit(evaluator)


def test_empty_sets_give_unit_determinants():
    assert izergin_determinant(0.3, [], [], 1.0) == 1.0
    assert dressed_vandermonde([], 1.0, [], +1) == 1.0
    assert vandermonde([0.5]) == 1.0


def test_lattice_column_is_the_limit_onto_a_node():
    params = cached_params(3, 0)
    eta = params.eta
    xi = np.asarray(params.xi, dtype=complex)
    rng = np.random.Generator(np.random.Philox(key=611))
    checked = 0
    for rec in cached_spectrum(3, 0):
        xs = rec.bethe_roots
        avoid = np.concatenate([xs, xi])
        for extra in (0, 1):
            free = separated_cloud(rng, max(xs.size - 1 + extra, 0), eta, avoid=avoid)
            for site in range(1, params.n_sites + 1):
                node = xi[site - 1]
                direction = np.exp(2j * np.pi * rng.uniform())

                def dressed(eps, free=free, node=node, direction=direction):
                    y = node + eps * direction
                    ys = np.concatenate([free, [y]])
                    det = gen_slavnov_determinant(params, -1.0, xs, ys)
                    return complex(d_of(params, y) * det)

                limit, _ = richardson_limit(dressed)
                value = lattice_column_determinant(params, -1.0, xs, free, site)
                assert abs(value - limit) <= 1e-10 * max(abs(value), 1e-300)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("gap", [1e-300, 1e-15])
def test_dressed_functional_rejects_numerically_coinciding_points(gap):
    pair, other = [0.0, gap], [0.3 + 0.2j, -0.4 + 0.1j]
    params = cached_params(3, 0)
    on_shell = next(r for r in cached_spectrum(3, 0) if r.n_roots == 2).bethe_roots
    evaluators = [
        lambda: dressed_vandermonde(pair, 1.0, [0.5, 0.5], +1),
        lambda: izergin_determinant(0.7, pair, other, 1.0),
        lambda: izergin_determinant(0.7, other, pair, 1.0),
        lambda: izergin_determinant_clustered(0.7, pair, other, 1.0),
        lambda: slavnov_determinant(params, -1.0, on_shell, np.add(pair, 0.1j)),
    ]
    for evaluate in evaluators:
        with pytest.raises(PoleCollisionError):
            evaluate()


def test_pair_product_is_the_vandermonde_of_the_pairs_its_guard_reads():
    rng = np.random.Generator(np.random.Philox(key=607))
    for shape in ((), (3,), (2, 4)):
        for size in range(6):
            sets = rng.standard_normal(shape + (size, 2)) @ np.array([1.0, 1j])
            value = determinants._pair_product(sets, determinants._set_bound(sets))
            expected = vandermonde(sets)
            assert type(value) is type(expected)
            assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()
    # one close pair or one NaN in one member refuses the whole stack
    stack = rng.standard_normal((3, 4)) + 0j
    for bad in (stack[1, 0] + 1e-12, complex("nan")):
        broken = stack.copy()
        broken[1, 2] = bad
        with pytest.raises(PoleCollisionError, match="within one set"):
            determinants._pair_product(broken, determinants._set_bound(broken))


def _non_finite_calls():
    """One call per evaluator, each with one NaN (or, for the shift
    ratio, infinite) point among otherwise valid input."""
    nan, inf = complex("nan"), complex("inf")
    params = cached_params(3, 0)
    record = next(r for r in cached_spectrum(3, 0) if r.n_roots == 2)
    on_shell = record.bethe_roots
    free = [0.3 + 0.2j, nan, -0.4 + 0.1j]
    return {
        "dressed_vandermonde": lambda: dressed_vandermonde([0.3, nan], 1.0, [1, 1], +1),
        "izergin_determinant": lambda: izergin_determinant(0.7, [0.3, nan], [1, -1], 1.0),
        "gen_slavnov_determinant": lambda: gen_slavnov_determinant(
            params, -1.0, on_shell, free
        ),
        "sp_on_shell": lambda: sp_on_shell(params, free, on_shell),
        "sp_b_form": lambda: sp_b_form(params, [0.3 + 0.2j, nan], [-0.4 + 0.1j]),
        "gaudin_norm": lambda: gaudin_norm(
            params, replace(record, bethe_roots=np.array([on_shell[0], nan]))
        ),
        "shift_ratio": lambda: shift_ratio([inf], 1.0, 0.5, +1),
    }


@pytest.mark.parametrize("name", sorted(_non_finite_calls()))
def test_non_finite_points_raise_typed_errors(name):
    with pytest.raises(ValueError):
        _non_finite_calls()[name]()


def _unrepresentable_calls():
    """One call per evaluator whose finite-looking input has no finite
    value: a pairing, d-product or cardinal product that overflows, a
    weight or twist on its pole, and a kernel whose two poles coincide."""
    params = cached_params(3, 0)
    on_shell = next(r for r in cached_spectrum(3, 0) if r.n_roots == 1).bethe_roots
    return {
        "sp_on_shell-huge-left-root": lambda: sp_on_shell(params, [1e300], on_shell),
        "slavnov_determinant-huge-free-point": lambda: slavnov_determinant(
            params, -1.0, on_shell, [1e300]
        ),
        "gen_slavnov_determinant-huge-free-point": lambda: gen_slavnov_determinant(
            params, -1.0, on_shell, [1e300, 0.3]
        ),
        "sp_a_form-huge-root": lambda: sp_a_form(params, [1e300], [0.3, 0.2]),
        "sp_b_form-huge-root": lambda: sp_b_form(params, [1e300], [0.3, 0.2]),
        "sp_izergin_form-huge-root": lambda: sp_izergin_form(
            params, [1e300], [0.3, 0.2]
        ),
        "dressed_vandermonde-huge-points": lambda: dressed_vandermonde(
            [1e300, -1e300, 0.3], 1.0, [0.5, 0.5, 0.5], +1
        ),
        "dressed_vandermonde-infinite-weight": lambda: dressed_vandermonde(
            [0.3, 0.5], 1.0, [1.0, math.inf], +1
        ),
        "izergin_determinant-infinite-twist": lambda: izergin_determinant(
            math.inf, [0.2, 0.3], [1, -1], 1.0
        ),
        "izergin_determinant-zero-eta": lambda: izergin_determinant(
            0.7, [0.3, 0.5], [1, -1], 0.0
        ),
        "izergin_determinant-tiny-eta": lambda: izergin_determinant(
            0.7, [0.3, 0.5], [1, -1], 1e-300
        ),
    }


@pytest.mark.parametrize("name", sorted(_unrepresentable_calls()))
def test_unrepresentable_input_raises_typed_error_without_warning(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleCollisionError):
            _unrepresentable_calls()[name]()


def test_norm_of_roots_off_the_bethe_system_is_refused():
    params = cached_params(3, 0)
    for rec in cached_spectrum(3, 0):
        if rec.n_roots == 0:
            continue
        moved = replace(rec, bethe_roots=rec.bethe_roots + 0.1)
        with pytest.raises(NotOnShellError):
            gaudin_norm(params, moved)
        # the record's own roots pass the same gate
        assert math.isfinite(abs(gaudin_norm(params, rec)))


def test_coinciding_free_points_anywhere_in_the_set_are_the_limit():
    # a free point on an on-shell row, in any column of a square,
    # rectangular or lattice-column matrix, takes the limit of its entry
    params = cached_params(4, 0)
    rng = np.random.Generator(np.random.Philox(key=617))
    checked = 0
    for rec in cached_spectrum(4, 0):
        xs = rec.bethe_roots
        if xs.size < 2:
            continue
        avoid = np.concatenate([xs, params.xi])
        for extra in (0, 1, 2):
            ys = separated_cloud(rng, xs.size + extra, params.eta, avoid=avoid)
            k, j = int(rng.integers(ys.size)), int(rng.integers(xs.size))
            direction = np.exp(2j * np.pi * rng.uniform())
            evaluators = [
                partial(gen_slavnov_determinant, params, -1.0, xs),
                partial(lattice_column_determinant, params, -1.0, xs, site=2),
            ]
            for evaluate in evaluators:

                def displaced(eps, evaluate=evaluate, ys=ys, k=k, j=j, d=direction):
                    moved = ys.copy()
                    moved[k] = xs[j] + eps * d
                    return evaluate(moved)

                limit, _ = richardson_limit(displaced)
                value = displaced(0.0)
                assert abs(value - limit) <= 1e-7 * abs(limit)
                checked += 1
    assert checked > 0


def _index_calls():
    """One call per site index that is not an integer in range, on the
    seed-0 three-site chain."""
    params = cached_params(3, 0)
    record = next(r for r in cached_spectrum(3, 0) if r.n_roots == 2)
    xs = record.bethe_roots
    avoid = np.concatenate([xs, params.xi])
    rng = np.random.Generator(np.random.Philox(key=615))
    ys = separated_cloud(rng, 2, params.eta, avoid=avoid)
    return {
        # once a bare IndexError after the range check
        "site_2.0": lambda: lattice_column_determinant(params, -1.0, xs, ys, 2.0),
        # once site 1
        "site_True": lambda: lattice_column_determinant(params, -1.0, xs, ys, True),
        "site_4": lambda: lattice_column_determinant(params, -1.0, xs, ys, 4),
        "sites_with_a_float": lambda: lattice_column_determinant(
            params, -1.0, xs, ys, np.array([1.0, 2.5])
        ),
    }


@pytest.mark.parametrize("name", sorted(_index_calls()))
def test_non_integer_or_out_of_range_indices_raise_value_errors(name):
    with pytest.raises(ValueError, match="index must be an integer"):
        _index_calls()[name]()


def test_on_shell_gate_residuals_equal_the_bethe_residuals_bit_for_bit(monkeypatch):
    # the gate and mu_bethe_residuals read one weights definition
    gated = []
    gate = determinants._on_shell_gate

    def recording(mu, g, rho):
        gated.append(gate(mu, g, rho))
        return gated[-1]

    monkeypatch.setattr(determinants, "_on_shell_gate", recording)
    for n_sites in (3, 5):
        params = cached_params(n_sites, 0)
        rng = np.random.Generator(np.random.Philox(key=[616, n_sites]))
        for rec in cached_spectrum(n_sites, 0):
            roots = rec.bethe_roots
            avoid = np.concatenate([roots, params.xi])
            ys = separated_cloud(rng, roots.size + 1, params.eta, avoid=avoid)
            gen_slavnov_determinant(params, -1.0, roots, ys)
            assert np.array_equal(gated[-1], mu_bethe_residuals(params, -1.0, roots))


def test_shift_ratio_checks_sign_on_the_empty_set():
    with pytest.raises(ValueError):
        shift_ratio([], 1.0, 0.5, 5)


def test_on_shell_determinants_match_entrywise_reference():
    # the matrix written out one entry at a time, as in the definition:
    # g K(x - y) - rho K(y - x) on the rows, g y^p - rho (y + eta)^p below
    params = cached_params(3, 0)
    eta = params.eta
    rng = np.random.Generator(np.random.Philox(key=612))
    for rec in cached_spectrum(3, 0):
        xs = rec.bethe_roots
        avoid = np.concatenate([xs, np.asarray(params.xi, dtype=complex)])
        for extra in (0, 1, 2):
            ys = separated_cloud(rng, xs.size + extra, eta, avoid=avoid)
            mat = np.zeros((ys.size, ys.size), dtype=complex)
            for k, y in enumerate(ys):
                g = -shift_ratio(params.xi, eta, y, +1)
                rho = balanced_shift_ratio(xs, eta, y)
                for j, x in enumerate(xs):
                    mat[j, k] = g * two_pole_kernel(x - y, eta)
                    mat[j, k] -= rho * two_pole_kernel(y - x, eta)
                for p in range(extra):
                    mat[xs.size + p, k] = g * y**p - rho * (y + eta) ** p
            pref = np.prod(xs[:, None] - ys[None, :] + eta)
            ref = pref * np.linalg.det(mat) / (vandermonde(xs) * vandermonde(ys[::-1]))
            value = gen_slavnov_determinant(params, -1.0, xs, ys)
            assert abs(value - ref) <= 1e-12 * abs(ref)


def _on_shell_at_60_digits(params, xs, ys):
    """The square on-shell determinant by its entry formula, g K(x - y) -
    rho K(y - x) with K(u) = 1/u - 1/(u + eta) at mu = -1, times
    prod (x - y + eta) over V(xs) V(reversed ys), in 60-digit mpmath from
    the same double inputs."""
    with mpmath.workdps(60):
        eta = mpmath.mpc(params.eta)
        xi = [mpmath.mpc(v) for v in params.xi]
        xs = [mpmath.mpc(v) for v in xs]
        ys = [mpmath.mpc(v) for v in ys]

        def kernel(u):
            return 1 / u - 1 / (u + eta)

        def vandermonde_of(points):
            return mpmath.fprod(
                points[a] - points[b] for a in range(len(points)) for b in range(a)
            )

        mat = mpmath.matrix(len(xs), len(ys))
        for k, y in enumerate(ys):
            g = -mpmath.fprod(y - v + eta for v in xi) / mpmath.fprod(y - v for v in xi)
            rho = mpmath.fprod((y - x + eta) / (y - x - eta) for x in xs)
            for j, x in enumerate(xs):
                mat[j, k] = g * kernel(x - y) - rho * kernel(y - x)
        pref = mpmath.fprod(x - y + eta for x in xs for y in ys)
        value = pref * mpmath.det(mat) / (vandermonde_of(xs) * vandermonde_of(ys[::-1]))
        return complex(value)


@pytest.mark.parametrize("y", [1e8, 1e16])
def test_on_shell_kernel_keeps_its_digits_for_a_far_free_point(y):
    # K's two reciprocals agree to about 16 digits at y = 1e16, so their
    # difference in double precision would keep none of the kernel's
    params = cached_params(3, 0)
    for r in (1, 2):
        rec = next(rec for rec in cached_spectrum(3, 0) if rec.n_roots == r)
        ys = np.array([y, 0.3 + 0.1j][:r])
        ref = _on_shell_at_60_digits(params, rec.bethe_roots, ys)
        value = slavnov_determinant(params, -1.0, rec.bethe_roots, ys)
        assert abs(value - ref) <= 1e-12 * abs(ref)


# ------------------------------------------- per-point reference routes
# The array evaluators above replaced these one-point-at-a-time builders;
# they stay here as references the array forms must reproduce.


def _per_root_residuals(params, mu, roots):
    return np.array(
        [
            abs(
                mu * a_of(params, x) / d_of(params, x)
                / -balanced_shift_ratio(roots, params.eta, x)
                - 1.0
            )
            for x in roots
        ]
    )


def _per_column_dressed_vandermonde(points, eta, f_values, sign):
    m = points.size
    if m == 0:
        return 1.0 + 0.0j
    num = (points + sign * eta)[:, None] - points[None, :]
    den = points[:, None] - points[None, :]
    gmat = np.empty((m, m), dtype=complex)
    for b in range(m):
        keep = np.arange(m) != b
        gmat[:, b] = np.prod(num[:, keep], axis=1) / np.prod(den[b, keep])
    return complex(np.linalg.det(np.eye(m) - f_values[:, None] * gmat))


def _assert_relative(value, reference, rel=1e-12):
    value, reference = np.asarray(value), np.asarray(reference)
    assert value.shape == reference.shape
    assert np.all(np.abs(value - reference) <= rel * np.abs(reference))


@pytest.mark.parametrize("m", range(9))
def test_array_evaluators_match_their_per_point_routes(m):
    rng = np.random.Generator(np.random.Philox(key=[613, m]))
    for trial in range(20):
        eta = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2))
        xs = separated_cloud(rng, m, eta, min_sep=0.2, box=2.5)
        ys = separated_cloud(rng, 5, eta, avoid=xs, min_sep=0.2, box=2.5)
        for sign in (1, -1):
            _assert_relative(
                shift_ratio(xs, eta, ys, sign),
                [shift_ratio(xs, eta, y, sign) for y in ys],
            )
        _assert_relative(
            balanced_shift_ratio(xs, eta, ys),
            [balanced_shift_ratio(xs, eta, y) for y in ys],
        )
        f = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        for sign in (1, -1):
            _assert_relative(
                dressed_vandermonde(xs, eta, f, sign),
                _per_column_dressed_vandermonde(xs, eta, f, sign),
            )
        params = cached_params(1 + trial % 4, 0)
        roots = separated_cloud(
            rng, m, params.eta, avoid=params.xi, min_sep=0.2, box=2.5
        )
        mu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        _assert_relative(
            mu_bethe_residuals(params, mu, roots),
            _per_root_residuals(params, mu, roots),
        )
    if m <= 6:
        for size in (1, 7):
            _assert_stacks_match_per_set_loops(rng, m, size)


def _assert_stack_matches(stacked, loop):
    """A stacked evaluation against one 1-D call per member, each of
    which gives a ``complex``."""
    assert all(type(value) is complex for value in loop)
    _assert_relative(stacked, loop)


def _assert_stacks_match_per_set_loops(rng, m, size):
    """One call over a stack of ``size`` sets of ``m`` points against a
    loop calling the same evaluator once per set."""
    eta = rng.uniform(0.5, 1.5, size) + 1j * rng.uniform(-0.2, 0.2, size)
    xs = np.array([separated_cloud(rng, m, e, min_sep=0.2, box=2.5) for e in eta])
    ys = np.array(
        [
            separated_cloud(rng, m, e, avoid=x, min_sep=0.2, box=2.5)
            for e, x in zip(eta, xs)
        ]
    )
    f = rng.uniform(-1, 1, (size, m)) + 1j * rng.uniform(-1, 1, (size, m))
    mu = rng.uniform(-1.5, 1.5, size) + 1j * rng.uniform(-1.5, 1.5, size)
    for sign in (1, -1):
        _assert_stack_matches(
            dressed_vandermonde(xs, eta, f, sign),
            [dressed_vandermonde(*one, sign) for one in zip(xs, eta, f)],
        )
    _assert_stack_matches(
        izergin_determinant(mu, xs, ys, eta),
        [izergin_determinant(*one) for one in zip(mu, xs, ys, eta)],
    )
    # on-shell rows of the six-site chain: one set shared by the stack,
    # or a different set per member
    params = cached_params(6, 0)
    sets = [
        roots
        for rec in cached_spectrum(6, 0)
        for roots in (rec.bethe_roots, rec.q_minus_roots)
        if roots.size == m
    ]
    stacked_rows = np.array([sets[k % len(sets)] for k in range(size)])
    avoid = np.concatenate([stacked_rows.ravel(), params.xi])
    free = np.array(
        [
            separated_cloud(rng, m + 3, params.eta, avoid=avoid, min_sep=0.1, box=2.5)
            for _ in range(size)
        ]
    )
    members = np.arange(size)
    for rows in (stacked_rows[0], stacked_rows):
        per_row = np.broadcast_to(rows, (size, m))
        square = free[:, :m].copy()
        # the first member is a norm: every column on its row point
        square[0] = per_row[0]
        if size > 1 and m > 0:
            # one coinciding entry, off the diagonal, in an otherwise free set
            square[1, -1] = per_row[1, 0]
        _assert_stack_matches(
            slavnov_determinant(params, -1.0, rows, square),
            [slavnov_determinant(params, -1.0, *one) for one in zip(per_row, square)],
        )
        for extra in (1, 2):
            wide = free[:, : m + extra]
            _assert_stack_matches(
                gen_slavnov_determinant(params, -1.0, rows, wide),
                [
                    gen_slavnov_determinant(params, -1.0, *one)
                    for one in zip(per_row, wide)
                ],
            )
        # the lattice column of each member's site, against free sets one
        # point short of the rows, as many (the norm-like first member
        # among them) and one point over
        sites = 1 + members % 6
        for ys_free in [square, free[:, : m + 1]] + ([square[:, 1:]] if m else []):
            _assert_stack_matches(
                lattice_column_determinant(params, -1.0, rows, ys_free, sites),
                [
                    lattice_column_determinant(params, -1.0, *one)
                    for one in zip(per_row, ys_free, sites)
                ],
            )


def test_scalar_point_gives_a_complex_and_the_empty_set_ones():
    for value in (
        shift_ratio([0.3, -0.2j], 1.0, 0.5, 1),
        shift_ratio([], 1.0, 0.5, -1),
        balanced_shift_ratio([0.3, -0.2j], 1.0, 0.5),
        balanced_shift_ratio([], 1.0, 0.5),
    ):
        assert type(value) is complex
    ys = np.arange(6.0).reshape(2, 3)
    for value in (shift_ratio([], 1.0, ys, 1), balanced_shift_ratio([], 1.0, ys)):
        assert value.shape == ys.shape
        assert np.all(value == 1.0)


# --------------------------------- typed pole errors near a collision


_UNIT = st.floats(-1.0, 1.0, allow_nan=False)


def _lattice_points(draw, count: int) -> np.ndarray:
    """``count`` distinct points of a 13 x 13 lattice of spacing at least
    0.05 (far apart against the pole guard) around a drawn origin.  The
    cells are a prefix of a permutation: a unique-list draw of them took
    minutes to shrink a failure."""
    spacing = draw(st.floats(0.05, 1.0))
    cells = draw(st.permutations(range(13 * 13)))[:count]
    origin = complex(draw(_UNIT), draw(_UNIT))
    return np.array(
        [origin + spacing * complex(c // 13 - 6, c % 13 - 6) for c in cells]
    )


@st.composite
def _near_collision(draw):
    """One to six lattice points (``_lattice_points``), eta, up to four
    free evaluation points, an index choosing the pole to approach and
    the approach angle."""
    points = _lattice_points(draw, draw(st.integers(1, 6)))
    eta = 2.0 * complex(draw(_UNIT), draw(_UNIT))
    count = draw(st.integers(0, 4))
    others = [2.0 * complex(draw(_UNIT), draw(_UNIT)) for _ in range(count)]
    return points, eta, others, draw(st.integers(0, 100)), draw(st.floats(0.0, 6.3))


def _guard_scale(points, eta, y):
    return max(1.0, abs(eta), float(np.max(np.abs(points))), abs(y))


@pytest.mark.parametrize("kind", ["plus", "minus", "balanced"])
@settings(max_examples=150, deadline=None, database=None)
@given(case=_near_collision())
def test_one_entry_inside_the_pole_guard_raises(kind, case):
    points, eta, others, pick, angle = case
    shift = eta if kind == "balanced" else 0.0
    poles = points + shift
    # the free entries keep clear of every pole; only one entry approaches
    for y in others:
        assume(np.min(np.abs(y - poles)) >= 1e-4 * _guard_scale(points, eta, y))
    target = poles[pick % points.size]
    step = _guard_scale(points, eta, target) * np.exp(1j * angle)

    def evaluate(offset: float):
        ys = list(others)
        ys.insert(pick % (len(others) + 1), target + offset * step)
        ys = np.array(ys, dtype=complex)
        if kind == "balanced":
            return balanced_shift_ratio(points, eta, ys)
        return shift_ratio(points, eta, ys, 1 if kind == "plus" else -1)

    with pytest.raises(PoleCollisionError):
        evaluate(1e-10)
    assert np.all(np.isfinite(evaluate(1e-6)))


# ------------------------------------- guards over stacks of point sets


@st.composite
def _stack_with_close_pair(draw):
    """A stack of one to four sets of two to five points, all on a lattice
    of spacing at least 0.05, eta, the member to receive a close pair,
    the pair and the approach angle."""
    size = draw(st.integers(2, 5))
    count = draw(st.integers(1, 4))
    points = _lattice_points(draw, size * count)
    eta = 2.0 * complex(draw(_UNIT), draw(_UNIT))
    member = draw(st.integers(0, count - 1))
    pair = draw(st.permutations(range(size)))[:2]
    return points.reshape(count, size), eta, member, pair, draw(st.floats(0.0, 6.3))


# a shift that takes a copy of a drawn stack (within 10 of the origin, at
# most 17 across) clear of the original and of its eta-shifted poles
_FAR = 30.0 + 30.0j


@pytest.mark.parametrize(
    "kind", ["dressed", "izergin rows", "izergin columns", "on-shell"]
)
@settings(max_examples=60, deadline=None, database=None)
@given(case=_stack_with_close_pair())
def test_one_close_pair_in_a_stack_raises(kind, case):
    points, eta, member, (a, b), angle = case
    params = cached_params(3, 0)
    on_shell = next(r for r in cached_spectrum(3, 0) if r.n_roots == 1).bethe_roots
    if kind == "on-shell":
        eta = params.eta
        points = points + _FAR
    others = points + _FAR
    # the largest of 1, |eta| and every point the member's guards see
    involved = np.concatenate([points[member], others[member], on_shell, params.xi])
    scale = max(1.0, abs(eta), float(np.max(np.abs(involved))))
    # an eta within the guard is refused on its own: the Izergin kernel's
    # two poles coincide
    assume(not kind.startswith("izergin") or abs(eta) >= 1e-4 * scale)

    def evaluate(offset: float):
        stack = points.copy()
        stack[member, b] = stack[member, a] + offset * scale * np.exp(1j * angle)
        if kind == "dressed":
            return dressed_vandermonde(stack, eta, np.full(stack.shape, 0.5), +1)
        if kind == "izergin rows":
            return izergin_determinant(0.7, stack, others, eta)
        if kind == "izergin columns":
            return izergin_determinant(0.7, others, stack, eta)
        return gen_slavnov_determinant(params, -1.0, on_shell, stack)

    with pytest.raises(PoleCollisionError):
        evaluate(1e-10)
    values = evaluate(1e-6)
    assert values.shape == points.shape[:1]
    assert np.all(np.isfinite(values))


@settings(max_examples=60, deadline=None, database=None)
@given(
    count=st.integers(1, 5),
    member=st.integers(0, 4),
    size=st.floats(1e-3, 0.1),
    angle=st.floats(0.0, 6.3),
    extra=st.integers(0, 2),
)
def test_one_off_shell_row_set_in_a_stack_raises(count, member, size, angle, extra):
    params = cached_params(3, 0)
    sets = [r.bethe_roots for r in cached_spectrum(3, 0) if r.n_roots == 2]
    rows = np.array([sets[k % len(sets)] for k in range(count)])
    rng = np.random.Generator(np.random.Philox(key=614))
    avoid = np.concatenate([rows.ravel(), params.xi])
    ys = separated_cloud(rng, 2 + extra, params.eta, avoid=avoid)
    assert np.all(np.isfinite(gen_slavnov_determinant(params, -1.0, rows, ys)))
    rows[member % count, 0] += size * np.exp(1j * angle)
    with pytest.raises(NotOnShellError):
        gen_slavnov_determinant(params, -1.0, rows, ys)


# ------------------------------------------ kernel and coincidence guards


@st.composite
def _kernel_sets(draw):
    """Equal-size x and y sets of one to five points on a lattice of
    spacing at least 0.05, eta, the x to move onto a pole of y, whether
    the pole is y or y - eta, and the approach angle."""
    size = draw(st.integers(1, 5))
    points = _lattice_points(draw, 2 * size)
    eta = 2.0 * complex(draw(_UNIT), draw(_UNIT))
    a, b = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
    shifted = draw(st.booleans())
    return points[:size], points[size:], eta, a, b, shifted, draw(st.floats(0.0, 6.3))


@pytest.mark.parametrize(
    "evaluate", [izergin_determinant, izergin_determinant_clustered]
)
@settings(max_examples=100, deadline=None, database=None)
@given(case=_kernel_sets())
def test_an_x_inside_the_kernel_pole_guard_raises(evaluate, case):
    xs, ys, eta, a, b, shifted, angle = case
    pole = ys[b] - eta if shifted else ys[b]
    others = np.delete(xs, a)
    scale = max(1.0, abs(eta), abs(pole), float(np.max(np.abs(ys))))
    scale = max(scale, float(np.max(np.abs(others), initial=0.0)))
    # apart from the one approached, every kernel pole keeps clear of
    # every x, and the moved x keeps clear of the other x
    to_y, to_shifted = np.abs(pole - ys), np.abs(pole - ys + eta)
    (to_shifted if shifted else to_y)[b] = np.inf
    gaps = np.concatenate(
        [
            to_y,
            to_shifted,
            np.abs(others - pole),
            np.abs(others[:, None] - ys).ravel(),
            np.abs(others[:, None] - ys + eta).ravel(),
        ]
    )
    assume(np.min(gaps, initial=np.inf) >= 1e-4 * scale)

    def at(offset: float):
        moved = xs.copy()
        moved[a] = pole + offset * scale * np.exp(1j * angle)
        return evaluate(0.7, moved, ys, eta)

    with pytest.raises(PoleCollisionError):
        at(1e-10)
    assert np.isfinite(at(1e-6))


@settings(max_examples=100, deadline=None, database=None)
@given(
    pick=st.integers(0, 100),
    row=st.integers(0, 5),
    extra=st.integers(0, 2),
    key=st.integers(0, 2**32 - 1),
    angle=st.floats(0.0, 6.3),
)
def test_a_free_point_near_but_off_an_on_shell_row_raises(pick, row, extra, key, angle):
    params = cached_params(3, 0)
    sets = [r.bethe_roots for r in cached_spectrum(3, 0) if r.n_roots >= 1]
    rows = sets[pick % len(sets)]
    target = rows[row % rows.size]
    rng = np.random.Generator(np.random.Philox(key=key))
    avoid = np.concatenate([rows, params.xi])
    others = separated_cloud(rng, rows.size - 1 + extra, params.eta, avoid=avoid)
    scale = max(
        1.0, abs(params.eta), float(np.max(np.abs(np.concatenate([avoid, others]))))
    )

    def at(offset: float):
        ys = np.append(others, target + offset * scale * np.exp(1j * angle))
        return gen_slavnov_determinant(params, -1.0, rows, ys)

    # neither separated from the row point nor coincident with it
    with pytest.raises(PoleCollisionError):
        at(1e-10)
    # coincident: the closed-form limit entry, as in a norm
    assert np.isfinite(at(0.0))
