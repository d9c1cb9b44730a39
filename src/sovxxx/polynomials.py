"""Complex polynomials as rows of ascending coefficients.

A deliberately small layer of plain numpy arithmetic: a polynomial is
its coefficient row (``row[k]`` multiplies ``z**k``), evaluated by one
Horner recurrence for a whole stack of rows (``poly_values``), and a
stack of rows zero-padded to one width evaluates bit for bit like each
row alone.  Here are the evaluation, the expansion from roots, Lagrange
interpolation and companion-matrix root extraction (a stack of rows of
one degree per eigensolve), with the trimming threshold the package
reads its degrees by: a coefficient below ``TRIM_TOL`` times its row's
largest is numerical noise from a near-singular solve, so a leading
coefficient that small drops the degree.  One monic expansion (``_monic``, one linear factor per step
for a whole stack of root sets) backs ``poly_from_roots``, the
cardinal polynomials' numerators and ``poly_roots``' re-expansion gate.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateNodesError, SpectrumError

# Relative magnitude below which trailing coefficients are treated as noise.
TRIM_TOL = 1e-10


def _monic(roots: np.ndarray) -> np.ndarray:
    """Ascending coefficient rows of the monic polynomials whose roots are
    the last axis of ``roots``, one longer than it, expanded one linear
    factor per step for every set of the stack at once, so a stack member
    equals its one-set expansion bit for bit."""
    rows = np.zeros(roots.shape[:-1] + (roots.shape[-1] + 1,), dtype=complex)
    rows[..., 0] = 1.0
    for k in range(roots.shape[-1]):
        # a cyclic shift up by one multiplies by z: the top coefficient is
        # still zero, and it moves to the bottom
        shifted = np.concatenate((rows[..., -1:], rows[..., :-1]), axis=-1)
        rows = shifted - roots[..., k, None] * rows
    return rows


def poly_values(coeffs, points) -> np.ndarray:
    """Values of a stack of polynomials (the rows of a 2-D array of
    ascending coefficients, zero-padded to one width, or one 1-D row) at
    the points: the stack's axis leads, the points' axes follow.  Horner's
    recurrence for all rows at once, the arithmetic of numpy's
    ``polyval`` on each row alone: start from the top coefficient plus
    ``z * 0`` and step down with ``c + value * z``.  The points are an
    array (a scalar is a 0-d one), so a single row at a scalar point
    takes numpy's array loops, not its scalar arithmetic, which rounds a
    complex product differently."""
    points = np.asarray(points, dtype=complex)
    coeffs = np.asarray(coeffs).T
    coeffs = coeffs.reshape(coeffs.shape + (1,) * points.ndim)
    values = coeffs[-1] + points * 0
    for c in coeffs[-2::-1]:
        values = c + values * points
    return values


def poly_from_roots(roots) -> np.ndarray:
    """Coefficient row of the monic polynomial with the given roots, one
    longer than the roots; an empty set gives ``[1]``.  Leading axes index
    a stack of root sets of one size, giving one row per set, each equal
    bit for bit to its one-set call.

    Raises ``ValueError`` when a row's leading one is not above
    ``TRIM_TOL`` times its largest coefficient, so that the trimming rule
    would drop it: the other coefficients exceed it by more than
    ``1 / TRIM_TOL`` (roots of modulus about 1e3 at degree 4), or are not
    finite.
    """
    roots = np.array(roots, dtype=complex, ndmin=1)
    # a non-finite or overflowing root leaves a row refused below
    with np.errstate(invalid="ignore", over="ignore"):
        rows = _monic(roots)
    kept = np.abs(rows[..., -1]) > TRIM_TOL * np.abs(rows).max(axis=-1)
    if not kept.all():
        where = f"root set {int(np.argmin(kept))} of the stack: " if kept.ndim else ""
        raise ValueError(
            f"{where}{roots.shape[-1]} roots expand to a row whose leading "
            "coefficient is below the trimming threshold"
        )
    return rows


def cardinal_coefficients(nodes) -> np.ndarray:
    """Ascending coefficients of the Lagrange cardinal polynomials of the
    nodes, one row per node: ``values @ cardinal_coefficients(nodes)`` is
    the interpolant of ``values`` (or of each row of a stack of values).

    Every row's numerator is one monic expansion (``_monic``) of the
    other nodes, all rows at once.  Nodes closer than ``1e-8`` relative
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
    return _monic(others) / gaps.prod(axis=1)[:, None]


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
    numpy's ``polyroots``: each companion matrix is built as its
    ``polycompanion`` builds it, and all go through one ``eigvals``
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
    err = np.abs(_monic(roots) * rows[:, -1:] - rows).max(axis=-1) / scale
    if err.max(initial=0.0) > 1e-8:
        raise SpectrumError(
            f"companion-matrix roots of row {int(np.argmax(err))} failed the "
            f"re-expansion check (residual {err.max():.3e})"
        )
    return roots.reshape(coeffs.shape[:-1] + (n,))
