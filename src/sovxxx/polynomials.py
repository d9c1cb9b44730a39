"""Complex polynomials with ascending coefficients.

Thin, deliberately small layer over ``numpy.polynomial.polynomial``:
construction from roots, Horner evaluation, Lagrange interpolation and
companion-matrix root extraction (a stack of rows of one degree per
eigensolve), plus the trimming policy used by the linear solves
elsewhere in the package (trailing coefficients below a relative
threshold are numerical noise from near-singular systems and are
dropped).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegenerateNodesError, SpectrumError

# Relative magnitude below which trailing coefficients are treated as noise.
TRIM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ComplexPoly:
    """A polynomial with complex coefficients, lowest order first.

    ``coeffs[k]`` multiplies ``z**k``.  Trailing coefficients whose
    modulus is below ``TRIM_TOL`` times the largest modulus are removed
    on construction.  The zero polynomial is stored as a single zero
    coefficient and reports ``degree == -1``.  Non-finite coefficients
    raise ``ValueError``: the trimming rule would otherwise read them as
    the zero polynomial.
    """

    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=complex))

    def __post_init__(self) -> None:
        raw = np.atleast_1d(np.asarray(self.coeffs, dtype=complex)).ravel()
        if not np.all(np.isfinite(raw)):
            raise ValueError("polynomial coefficients must be finite")
        scale = np.max(np.abs(raw)) if raw.size else 0.0
        if scale == 0.0:
            trimmed = np.zeros(1, dtype=complex)
        else:
            keep = np.nonzero(np.abs(raw) > TRIM_TOL * scale)[0]
            if keep.size == 0:
                trimmed = np.zeros(1, dtype=complex)
            else:
                trimmed = raw[: keep[-1] + 1].copy()
        trimmed.setflags(write=False)
        object.__setattr__(self, "coeffs", trimmed)

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0

    @property
    def degree(self) -> int:
        return -1 if self.is_zero else self.coeffs.size - 1

    def __call__(self, z):
        return npoly.polyval(z, self.coeffs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComplexPoly({np.array2string(self.coeffs, precision=6)})"


def poly_from_roots(roots) -> ComplexPoly:
    """Monic polynomial with the given roots; an empty set gives 1.

    Raises ``ValueError`` when the trimming rule would drop the leading
    coefficient, which happens when the other coefficients exceed it by
    more than ``1 / TRIM_TOL`` (roots of modulus about 1e3 at degree 4).
    """
    roots = np.asarray(roots, dtype=complex).ravel()
    if roots.size == 0:
        return ComplexPoly(np.ones(1, dtype=complex))
    poly = ComplexPoly(npoly.polyfromroots(roots))
    if poly.degree != roots.size:
        raise ValueError(
            f"{roots.size} roots expand to a polynomial of degree {poly.degree}: "
            "the leading coefficient is below the trimming threshold"
        )
    return poly


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


def lagrange_interpolate(nodes, values) -> ComplexPoly:
    """The unique polynomial of degree < len(nodes) through the given points:
    the values times the cardinal-coefficient matrix of the nodes."""
    nodes = np.asarray(nodes, dtype=complex).ravel()
    values = np.asarray(values, dtype=complex).ravel()
    if nodes.size != values.size:
        raise ValueError("nodes and values must have equal length")
    if not np.all(np.isfinite(values)):
        raise ValueError("interpolation nodes and values must be finite")
    return ComplexPoly(values @ cardinal_coefficients(nodes))


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
