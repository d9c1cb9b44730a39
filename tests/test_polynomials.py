"""Coefficient rows: expansion from roots, interpolation, root extraction."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from sovxxx.errors import SpectrumError
from sovxxx.polynomials import (
    _monic,
    cardinal_coefficients,
    poly_from_roots,
    poly_roots,
    poly_values,
)
from sovxxx.spectrum import solve_q_from_tau

from conftest import cached_params, lagrange_interpolate, separated_cloud


def test_root_roundtrip_up_to_degree_twelve():
    rng = np.random.Generator(np.random.Philox(key=101))
    for size in (1, 2, 3, 5, 8, 12):
        roots = separated_cloud(rng, size, 0.0, min_sep=0.12, box=1.4)
        recovered = poly_roots(poly_from_roots(roots))
        assert recovered.size == size
        for r in roots:
            assert np.min(np.abs(recovered - r)) <= 1e-8


def test_lagrange_interpolation_reproduces_coefficients():
    rng = np.random.Generator(np.random.Philox(key=102))
    for degree in (0, 1, 3, 6, 9):
        coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        coeffs[-1] += 2.0  # keep the top coefficient away from the trim window
        nodes = separated_cloud(rng, degree + 1, 0.0, min_sep=0.15, box=1.5)
        rebuilt = lagrange_interpolate(nodes, npoly.polyval(nodes, coeffs))
        assert rebuilt.shape == (degree + 1,)
        scale = float(np.max(np.abs(coeffs)))
        assert np.max(np.abs(rebuilt - coeffs)) <= 1e-10 * scale


def test_evaluation_is_linear():
    rng = np.random.Generator(np.random.Philox(key=103))
    p = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
    q = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
    both = npoly.polyadd(p, q)
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = npoly.polyval(z, both)
        rhs = npoly.polyval(z, p) + npoly.polyval(z, q)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_product_evaluates_to_product_of_values():
    p = poly_from_roots([0.5, -1.25j])
    q = poly_from_roots([1.0 + 1.0j])
    prod = npoly.polymul(p, q)
    for z in (0.3, -1.1 + 0.4j, 2.0j):
        value = npoly.polyval(z, prod)
        expected = npoly.polyval(z, p) * npoly.polyval(z, q)
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(value))


@pytest.mark.parametrize("width", [3, 5, 9])
def test_padded_stack_evaluates_like_each_row_alone(width):
    # rows of every length up to the width, zero-padded: one stacked
    # Horner evaluation equals each unpadded row's own, bit for bit
    rng = np.random.Generator(np.random.Philox(key=[105, width]))
    complex_pair = np.array([1.0, 1j])
    rows = [rng.standard_normal((k, 2)) @ complex_pair for k in range(1, width + 1)]
    padded = np.zeros((len(rows), width), dtype=complex)
    for stack_row, row in zip(padded, rows):
        stack_row[: row.size] = row
    points = rng.standard_normal((2, 4, 2)) @ complex_pair
    stacked = npoly.polyval(points, padded.T)
    for value, row in zip(stacked, rows):
        assert value.tobytes() == npoly.polyval(points, row).tobytes()
    # the package's Horner evaluation is numpy's: a stack at 2-D, 1-D,
    # listed and scalar points, one row at an array of points
    for at in (points, points[0], list(points[0]), points[0, 0], complex(points[1, 2])):
        expected = npoly.polyval(at, padded.T)
        assert poly_values(padded, at).tobytes() == expected.tobytes()
    for row in rows:
        for at in (points, points[0]):
            assert poly_values(row, at).tobytes() == npoly.polyval(at, row).tobytes()


def test_empty_and_constant_behaviour():
    assert np.array_equal(poly_from_roots([]), [1.0])
    assert npoly.polyval(7.0 + 1j, poly_from_roots([])) == 1.0
    row = poly_from_roots([0.5, -1.25j])
    assert row.shape == (3,) and row[-1] == 1.0
    assert np.array_equal(poly_from_roots(np.zeros((2, 3, 0))), np.ones((2, 3, 1)))


def _rolled_monic(roots):
    """The monic expansion one linear factor per step, shifting by
    ``np.roll``."""
    rows = np.zeros(roots.shape[:-1] + (roots.shape[-1] + 1,), dtype=complex)
    rows[..., 0] = 1.0
    for k in range(roots.shape[-1]):
        rows = np.roll(rows, 1, axis=-1) - roots[..., k, None] * rows
    return rows


@pytest.mark.parametrize("shape", [(0,), (1,), (4,), (16, 4), (2, 3, 5), (3, 0)])
def test_monic_expansion_equals_the_rolled_recurrence(shape):
    rng = np.random.Generator(np.random.Philox(key=[106, 10 * len(shape) + shape[-1]]))
    roots = rng.standard_normal(shape + (2,)) @ np.array([1.0, 1j])
    rows = _monic(roots)
    assert rows.tobytes() == _rolled_monic(roots).tobytes()
    for index in np.ndindex(shape[:-1]):
        assert rows[index].tobytes() == _monic(roots[index]).tobytes()


def test_monic_expansion_that_loses_its_leading_one_is_rejected():
    # the constant term is about 3e12, so the relative trim reads the
    # leading 1 as noise
    with pytest.raises(ValueError, match="leading coefficient"):
        poly_from_roots([1e3 + 1j, 2e3, -1.5e3, 1e3j])
    # in a stack, the message names the set
    stack = [[0.5, 1j, -0.5, 2.0], [1e3 + 1j, 2e3, -1.5e3, 1e3j]]
    with pytest.raises(ValueError, match="root set 1 of the stack"):
        poly_from_roots(stack)


@pytest.mark.parametrize(
    "coeffs", [[1.0, np.nan], [1.0, 2.0, np.inf], [np.nan], [complex(1.0, -np.inf)]]
)
def test_non_finite_coefficients_are_rejected(coeffs):
    # a root set and a public eigenvalue row, zero-padded to the chain's
    # width, both raise the typed error
    with pytest.raises(SpectrumError, match="non-finite"):
        poly_roots(coeffs)
    params = cached_params(3, 0)
    row = np.zeros(params.n_sites, dtype=complex)
    row[: len(coeffs)] = coeffs
    with pytest.raises(SpectrumError, match="finite rows"):
        solve_q_from_tau(params, [row])


@pytest.mark.parametrize("roots", [[1.0, np.nan], [np.inf], [complex(1.0, -np.inf)]])
def test_non_finite_roots_are_rejected(roots):
    with pytest.raises(ValueError, match="leading coefficient"):
        poly_from_roots(roots)


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
        poly_roots(poly)


@pytest.mark.parametrize("degree", range(9))
def test_stacked_roots_are_per_row_polyroots_bit_for_bit(degree):
    rng = np.random.Generator(np.random.Philox(key=[103, degree]))
    for count in (2, 7):
        rows = rng.standard_normal((count, degree + 1, 2)) @ np.array([1.0, 1j])
        roots = poly_roots(rows)
        assert roots.shape == (count, degree)
        expected = np.array([npoly.polyroots(row) for row in rows], dtype=complex)
        assert roots.tobytes() == expected.reshape(count, degree).tobytes()
        # the roots expanded as a stack (of one set too): each member equals
        # its own set's expansion bit for bit
        for stack in (roots, roots[:1], roots.reshape(1, count, degree)):
            expanded = poly_from_roots(stack)
            assert expanded.shape == stack.shape[:-1] + (degree + 1,)
            for index in np.ndindex(stack.shape[:-1]):
                one = poly_from_roots(stack[index])
                assert expanded[index].tobytes() == one.tobytes()
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
    coeffs = lagrange_interpolate(nodes, values)
    assert coeffs.size == size
    assert np.max(np.abs(coeffs - reference)) <= 1e-12 * np.max(np.abs(reference))
    # the matrix form interpolates a stack of value rows at once
    stack = np.stack([values, 2j * values])
    both = stack @ cardinal_coefficients(nodes)
    gap = np.max(np.abs(both[1] - 2j * both[0]))
    assert gap <= 1e-13 * np.max(np.abs(reference))
