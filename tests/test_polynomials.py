"""Polynomial container, interpolation, and root extraction."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from sovxxx.errors import SpectrumError
from sovxxx.polynomials import (
    ComplexPoly,
    cardinal_coefficients,
    lagrange_interpolate,
    poly_from_roots,
    poly_roots,
)

from conftest import separated_cloud


def _poly_mul(p: ComplexPoly, q: ComplexPoly) -> ComplexPoly:
    return ComplexPoly(npoly.polymul(p.coeffs, q.coeffs))


def _poly_add(p: ComplexPoly, q: ComplexPoly) -> ComplexPoly:
    return ComplexPoly(npoly.polyadd(p.coeffs, q.coeffs))


def test_root_roundtrip_up_to_degree_twelve():
    rng = np.random.Generator(np.random.Philox(key=101))
    for size in (1, 2, 3, 5, 8, 12):
        roots = separated_cloud(rng, size, 0.0, min_sep=0.12, box=1.4)
        recovered = poly_roots(poly_from_roots(roots).coeffs)
        assert recovered.size == size
        for r in roots:
            assert np.min(np.abs(recovered - r)) <= 1e-8


def test_lagrange_interpolation_reproduces_coefficients():
    rng = np.random.Generator(np.random.Philox(key=102))
    for degree in (0, 1, 3, 6, 9):
        coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        coeffs[-1] += 2.0  # keep the top coefficient away from the trim window
        poly = ComplexPoly(coeffs)
        nodes = separated_cloud(rng, degree + 1, 0.0, min_sep=0.15, box=1.5)
        rebuilt = lagrange_interpolate(nodes, [poly(z) for z in nodes])
        assert rebuilt.degree == degree
        scale = float(np.max(np.abs(coeffs)))
        assert np.max(np.abs(rebuilt.coeffs - coeffs)) <= 1e-10 * scale


def test_evaluation_is_linear():
    rng = np.random.Generator(np.random.Philox(key=103))
    p = ComplexPoly(rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5))
    q = ComplexPoly(rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
    both = _poly_add(p, q)
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = both(z)
        rhs = p(z) + q(z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_product_evaluates_to_product_of_values():
    p = poly_from_roots([0.5, -1.25j])
    q = poly_from_roots([1.0 + 1.0j])
    prod = _poly_mul(p, q)
    for z in (0.3, -1.1 + 0.4j, 2.0j):
        assert abs(prod(z) - p(z) * q(z)) <= 1e-12 * max(1.0, abs(prod(z)))


def test_trailing_noise_is_trimmed():
    poly = ComplexPoly([1.0, 2.0, 1e-16])
    assert poly.degree == 1


def test_empty_and_constant_behaviour():
    const = ComplexPoly([3.5])
    assert const.degree == 0
    assert const(123.0) == 3.5
    assert poly_from_roots([]).degree == 0
    assert poly_from_roots([])(7.0 + 1j) == 1.0


def test_monic_expansion_that_loses_its_leading_one_is_rejected():
    # the constant term is about 3e12, so the relative trim reads the
    # leading 1 as noise
    with pytest.raises(ValueError, match="degree 3"):
        poly_from_roots([1e3 + 1j, 2e3, -1.5e3, 1e3j])


@pytest.mark.parametrize(
    "coeffs", [[1.0, np.nan], [1.0, 2.0, np.inf], [np.nan], [complex(1.0, -np.inf)]]
)
def test_non_finite_coefficients_are_rejected(coeffs):
    with pytest.raises(ValueError, match="finite"):
        ComplexPoly(coeffs)


@pytest.mark.parametrize(
    "nodes, values",
    [([0.0, 1.0, 2.0], [1.0, np.inf, 3.0]), ([0.0, np.nan, 2.0], [1.0, 2.0, 3.0])],
)
def test_interpolating_non_finite_input_is_rejected(nodes, values):
    with pytest.raises(ValueError, match="finite"):
        lagrange_interpolate(nodes, values)


def test_failed_re_expansion_raises_spectrum_error(monkeypatch):
    poly = poly_from_roots([0.5, -1.25j, 1.0 + 1.0j])
    exact = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: exact(m) + 1e-3)
    with pytest.raises(SpectrumError, match="re-expansion"):
        poly_roots(poly.coeffs)


@pytest.mark.parametrize("degree", range(9))
def test_stacked_roots_are_per_row_polyroots_bit_for_bit(degree):
    rng = np.random.Generator(np.random.Philox(key=[103, degree]))
    for count in (2, 7):
        rows = rng.standard_normal((count, degree + 1, 2)) @ np.array([1.0, 1j])
        roots = poly_roots(rows)
        assert roots.shape == (count, degree)
        expected = np.array([npoly.polyroots(row) for row in rows], dtype=complex)
        assert roots.tobytes() == expected.reshape(count, degree).tobytes()
    assert poly_roots(rows[0]).tobytes() == roots[0].tobytes()


def _per_node_interpolant(nodes, values):
    """The interpolant summed one cardinal polynomial at a time."""
    acc = np.zeros(nodes.size, dtype=complex)
    for b in range(nodes.size):
        others = np.delete(nodes, b)
        term = npoly.polyfromroots(others) * (values[b] / np.prod(nodes[b] - others))
        acc[: term.size] += term
    return acc


@pytest.mark.parametrize("size", [1, 2, 3, 5, 9])
def test_lagrange_interpolate_matches_the_per_node_form(size):
    rng = np.random.Generator(np.random.Philox(key=[104, size]))
    nodes = separated_cloud(rng, size, 0.5 + 0.2j, min_sep=0.2, box=1.6)
    values = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
    reference = _per_node_interpolant(nodes, values)
    coeffs = lagrange_interpolate(nodes, values).coeffs
    assert coeffs.size == size
    assert np.max(np.abs(coeffs - reference)) <= 1e-12 * np.max(np.abs(reference))
    # the matrix form interpolates a stack of value rows at once
    stack = np.stack([values, 2j * values])
    both = stack @ cardinal_coefficients(nodes)
    gap = np.max(np.abs(both[1] - 2j * both[0]))
    assert gap <= 1e-13 * np.max(np.abs(reference))
