"""Determinant engine: dressed functionals, kernel determinants, limits."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    two_pole_kernel,
    vandermonde,
)
from sovxxx.chain import a_of, d_of
from sovxxx.errors import LimitFailureError, NotOnShellError, PoleCollisionError

from conftest import cached_params, cached_spectrum, separated_cloud


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


@st.composite
def _near_collision(draw):
    """A point set on a lattice of spacing at least 0.05 (far apart
    against the pole guard), eta, up to four free evaluation points, an
    index choosing the pole to approach and the approach angle."""
    spacing = draw(st.floats(0.05, 1.0))
    cells = draw(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    origin = complex(draw(_UNIT), draw(_UNIT))
    points = np.array([origin + spacing * complex(a, b) for a, b in cells])
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
