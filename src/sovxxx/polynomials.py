"""Complex polynomials as rows of ascending coefficients.

Thin, deliberately small layer over ``numpy.polynomial.polynomial``: a
polynomial is its coefficient row (``row[k]`` multiplies ``z**k``),
evaluated with ``npoly.polyval``, and a stack of rows zero-padded to one
width evaluates bit for bit like each row alone.  Here are the
expansion from roots, Lagrange interpolation and companion-matrix root
extraction (a stack of rows of one degree per eigensolve), with the
trimming threshold the package reads its degrees by: a coefficient
below ``TRIM_TOL`` times its row's largest is numerical noise from a
near-singular solve, so a leading coefficient that small drops the
degree.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegenerateNodesError, SpectrumError

# Relative magnitude below which trailing coefficients are treated as noise.
TRIM_TOL = 1e-10


def poly_from_roots(roots) -> np.ndarray:
    """Coefficient row of the monic polynomial with the given roots, one
    longer than the roots; an empty set gives ``[1]``.

    Raises ``ValueError`` when the leading one is not above ``TRIM_TOL``
    times the largest coefficient, so that the trimming rule would drop
    it: the other coefficients exceed it by more than ``1 / TRIM_TOL``
    (roots of modulus about 1e3 at degree 4), or are not finite.
    """
    roots = np.asarray(roots, dtype=complex).ravel()
    if roots.size == 0:
        return np.ones(1, dtype=complex)
    row = npoly.polyfromroots(roots)
    if not abs(row[-1]) > TRIM_TOL * np.abs(row).max():
        raise ValueError(
            f"{roots.size} roots expand to a row whose leading coefficient is "
            "below the trimming threshold"
        )
    return row


def cardinal_coefficients(nodes) -> np.ndarray:
    """Ascending coefficients of the Lagrange cardinal polynomials of the
    nodes, one row per node: ``values @ cardinal_coefficients(nodes)`` is
    the interpolant of ``values`` (or of each row of a stack of values).

    Every row's numerator is expanded in the same loop, one linear factor
    per step for all nodes at once.  Nodes closer than ``1e-8`` relative
    to their overall scale cannot be separated and raise
    ``DegenerateNodesError``.
    """
    nodes = np.asarray(nodes, dtype=complex).ravel()
    if nodes.size == 0:
        raise ValueError("need at least one interpolation node")
    if not np.all(np.isfinite(nodes)):
        raise ValueError("interpolation nodes and values must be finite")
    m = nodes.size
    scale = max(1.0, float(np.max(np.abs(nodes))))
    off = ~np.eye(m, dtype=bool)
    others = nodes[None, :].repeat(m, axis=0)[off].reshape(m, m - 1)
    gaps = nodes[:, None] - others
    if np.any(np.abs(gaps) <= 1e-8 * scale):
        raise DegenerateNodesError(
            "interpolation nodes are too close to separate polynomial values"
        )
    coeffs = np.zeros((m, m), dtype=complex)
    coeffs[:, 0] = 1.0
    for k in range(m - 1):
        # row b times (z - others[b, k]): its top coefficient is still zero,
        # so the roll shifts a zero into the constant term
        coeffs = np.roll(coeffs, 1, axis=1) - others[:, k, None] * coeffs
    return coeffs / gaps.prod(axis=1)[:, None]


def lagrange_interpolate(nodes, values) -> np.ndarray:
    """Coefficient row, one entry per node, of the unique polynomial of
    degree < len(nodes) through the given points: the values times the
    cardinal-coefficient matrix of the nodes."""
    nodes = np.asarray(nodes, dtype=complex).ravel()
    values = np.asarray(values, dtype=complex).ravel()
    if nodes.size != values.size:
        raise ValueError("nodes and values must have equal length")
    if not np.all(np.isfinite(values)):
        raise ValueError("interpolation nodes and values must be finite")
    return values @ cardinal_coefficients(nodes)


def poly_roots(coeffs) -> np.ndarray:
    """Sorted roots of each row of a stack of ascending coefficient rows
    of one degree (a 1-D row is the one-row case), bit for bit those of
    ``npoly.polyroots``: each companion matrix is built as
    ``npoly.polycompanion`` builds it, and all go through one ``eigvals``
    call.  A row that is not finite, whose leading coefficient the
    trimming rule would drop, or whose roots' monic re-expansion misses it
    by more than relative 1e-8 raises ``SpectrumError``.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    rows = coeffs.reshape(-1, coeffs.shape[-1])
    count, n = rows.shape[0], rows.shape[1] - 1
    if not np.all(np.isfinite(rows)):
        raise SpectrumError("a polynomial with non-finite coefficients has no root set")
    scale = np.abs(rows).max(axis=-1)
    if np.any(np.abs(rows[:, -1]) <= TRIM_TOL * scale):
        raise SpectrumError(
            f"a degree-{n} row has its leading coefficient below the trimming threshold"
        )
    if n < 2:
        roots = -rows[:, :n] / rows[:, n:]
    else:
        mat = np.zeros((count, n, n), dtype=complex)
        mat.reshape(count, -1)[:, n :: n + 1] = 1
        mat[:, :, -1] -= rows[:, :-1] / rows[:, -1:]
        roots = np.linalg.eigvals(mat)
        roots.sort(axis=-1)
    rebuilt = np.zeros_like(rows)
    rebuilt[:, 0] = 1.0
    for k in range(n):
        # the top coefficient is still zero: the roll shifts it to the bottom
        rebuilt = np.roll(rebuilt, 1, axis=1) - roots[:, k, None] * rebuilt
    err = np.abs(rebuilt * rows[:, -1:] - rows).max(axis=-1) / scale
    if err.max(initial=0.0) > 1e-8:
        raise SpectrumError(
            f"companion-matrix roots of row {int(np.argmax(err))} failed the "
            f"re-expansion check (residual {err.max():.3e})"
        )
    return roots.reshape(coeffs.shape[:-1] + (n,))
