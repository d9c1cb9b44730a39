"""Determinant building blocks: dressed Vandermonde functionals and the
domain-wall / scalar-product determinants built from them.

The objects here are plain functions of point sets; no dense vectors
appear.  The central structure is a determinant of the form
``det[x_a^(b-1) - f(x_a) (x_a +- eta)^(b-1)] / V(x)``, a Vandermonde
dressed by per-point weight values, together with the two-pole kernel
determinants (Izergin and Slavnov types) that reduce to it.  Weight
functions always enter as value lists evaluated by the caller, never as
callbacks, so the identities can be tested point set by point set.

Every Slavnov-type determinant -- square, rectangular and lattice-column
-- is one evaluator, ``_on_shell``, behind a thin wrapper that checks the
set sizes.  It weighs the on-shell rows, then the free columns: g = mu
a/d and the balanced shift ratio rho over the rows, with the pole
guards.  At the rows g and rho are the on-shell gate (g/(-rho) = 1 on
shell; ``mu_bethe_residuals`` reads the same ``_row_weights``), at the
columns the weights of the kernel rows g K(x - y) - rho K(y - x),
K(u) = 1/u - 1/(u + eta), and of the moment rows g y^p - rho (y + eta)^p.
A lattice node's column is its pole's residue (g = 1, rho = 0, times
mu a at the node).  The same differences give the prefactor
prod (x - y + eta), and the weights the d-products over both sets,
which ``scalar.sp_on_shell`` and ``formfactors._lowering`` take from
the evaluator.  An entry whose column point coincides with its row
point has a removable singularity and takes its closed-form limit,
which makes norms directly computable.

Stacks: every point-set argument of a determinant evaluator is an
array whose last axis runs over the set and whose leading axes, if any,
index a stack of sets of that size; the sets of one call broadcast
against each other.  ``eta`` and ``mu`` of the dressed Vandermonde and
Izergin forms may be given per set, as may the lattice column's site;
the on-shell evaluators take one chain and one twist per call.  The
Bethe ratios and the Gaudin matrix also take root sets of several sizes
as one stack padded to the largest, with a mask of the roots
(``_row_weights``), for ``spectrum._polish``.  One
call makes one guard pass and one batched ``det`` and returns an array
of the stack shape; a 1-D set gives a ``complex``, equal bit for bit to
the stack member it would be.  Each on-shell quantity takes the
smallest stack shape it depends on, in one of three parts: the row half
(``_rows``: the on-shell sets' pole bound, g and rho at their own
points with the on-shell gate, V(xs) and the d-products), the column
half (``_columns``: the free sets' g, distances to the nodes,
V(reversed ys) at their own bound and d-products) and the pair core,
``_on_shell`` itself (the free points' node guard against the rows'
bound, rho and the differences, the kernel, the moments, the node's
column at the stack of its site, and the det).  The wrappers pass point
sets, and ``_on_shell`` builds both halves from them; ``formfactors``
builds the halves of every sector once per ``lowering_table``,
``aba._node_substituted`` one row half for two calls, and each
``spectrum.EigenRecord`` holds its own twist -1 halves, built on first
use, for the one-element form factors and pairings.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .chain import (
    ChainParams,
    log_derivative_a,
    log_derivative_d,
    pair_differences,
    vandermonde,
)
from .errors import LimitFailureError, NotOnShellError, PoleCollisionError

# relative pole guard used throughout
_POLE_TOL = 1e-8
# below this relative separation two points are treated as intentionally
# equal and limit formulas are used
_COINCIDE_TOL = 1e-12
# how far above the samples' rounding floor the final correction of
# ``richardson_limit`` may lie: the coinciding-root norm limits of N = 1..8
# reach about 2e3, a pole, a logarithm or a square root at 0 about 1e12
_LIMIT_FLOOR_FACTOR = 1e6
_FLOAT_MAX = float(np.finfo(float).max)


def _result(value) -> complex | np.ndarray:
    """A ``complex`` for the no-stack case, the array of the stack shape
    otherwise."""
    return value if np.ndim(value) else complex(value)


def _per_set(value) -> np.ndarray:
    """A per-set scalar (or array of the stack shape) with a trailing axis,
    so it broadcasts against the points of each set."""
    return np.asarray(value)[..., None]


def _per_matrix(value) -> np.ndarray:
    """A per-set scalar with two trailing axes, against each set's matrix."""
    return np.asarray(value)[..., None, None]


def _set_bound(points, floor=1.0, where=True) -> np.ndarray:
    """max(1, floor, max |x|) over each set of a stack, over the points
    ``where`` marks: every pole guard here is relative to the largest of
    1, |eta| and the points involved."""
    largest = np.maximum.reduce(np.abs(points), axis=-1, initial=1.0, where=where)
    return np.maximum(largest, floor)


def _require_distinct(points: np.ndarray, scale) -> np.ndarray:
    """Refuse a point set holding two points closer than the pole guard
    or a NaN point, and return its pairwise differences x_a - x_b.

    Every determinant here divides by the set's point differences (its
    Vandermonde); such a pair leaves the quotient a plausible-looking but
    wrong number rather than an exact zero.  ``points`` may be a stack of
    sets and ``scale`` one value per set; all pairs are checked at once.
    """
    diffs = points[..., :, None] - points[..., None, :]
    if points.shape[-1] < 2:
        return diffs
    apart = np.abs(diffs) > _POLE_TOL * np.asarray(scale)[..., None, None]
    # no point is apart from itself and a NaN is apart from nothing, so a
    # set passes exactly when every pair off the diagonal is apart
    if np.count_nonzero(apart) < apart.size - apart.size // points.shape[-1]:
        raise PoleCollisionError("coinciding or NaN points within one set")
    return diffs


def _pair_product(points, bound) -> complex | np.ndarray:
    """``vandermonde`` of each set, reduced from the ``pair_differences``
    its guard reads: a NaN point, or two points within the pole guard
    relative to ``bound``, raises ``PoleCollisionError``."""
    if np.shape(points)[-1] < 2:
        return vandermonde(points)
    pairs = pair_differences(points)
    apart = np.abs(pairs) > _POLE_TOL * _per_set(bound)
    if np.count_nonzero(apart) < apart.size:
        raise PoleCollisionError("coinciding or NaN points within one set")
    return _result(pairs.prod(axis=-1))


def _guarded_ratio(points, eta: complex, y, up: complex, down: complex, what: str):
    """Product over the set of (y - x + up)/(y - x + down) at each entry of
    ``y``, guarding each denominator against max(1, |eta|, max|x|, |y_k|).

    A 1-D set is evaluated at ``y`` of any shape.  A stack of sets
    (..., m) is evaluated set by set at points (..., k); ``eta``, ``up``
    and ``down`` are then scalars or one value per set.  The guard is
    strict, so a NaN or infinite point or ``y`` fails it too (an infinite
    difference is not above an infinite scale).
    """
    points = np.asarray(points, dtype=complex)
    y = np.asarray(y, dtype=complex)
    bound = _set_bound(points, abs(eta))
    if points.ndim > 1:
        points = points[..., None, :]
        bound = bound[..., None]
        up, down = _per_matrix(up), _per_matrix(down)
    if points.shape[-1] == 0:
        empty = np.ones(np.broadcast_shapes(y.shape, points.shape[:-1]), complex)
        return _result(empty)
    diffs = y[..., None] - points
    den = diffs + down
    if not (np.abs(den) > _POLE_TOL * np.maximum(np.abs(y), bound)[..., None]).all():
        raise PoleCollisionError(what)
    return _result(((diffs + up) / den).prod(axis=-1))


def shift_ratio(points, eta: complex, y, sign: int):
    """Product over the set of (y - x + sign*eta)/(y - x); empty set gives 1.

    ``y`` may be an array of evaluation points, giving an array of its
    shape; a scalar ``y`` gives a ``complex``.  A stack of sets takes
    one row of evaluation points per set (see ``_guarded_ratio``).
    Evaluation on top of a set point is a pole and raises
    ``PoleCollisionError``.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _guarded_ratio(
        points, eta, y, sign * eta, 0.0, "shift-ratio product evaluated on a set point"
    )


def balanced_shift_ratio(points, eta: complex, y):
    """Product over the set of (y - x + eta)/(y - x - eta), at ``y`` as in
    ``shift_ratio``.

    This is the pole-cancelled ratio of the two shift-ratio products; it
    stays regular on the set itself, where the self factor contributes
    -1.
    """
    return _guarded_ratio(
        points, eta, y, eta, -eta, "balanced shift ratio evaluated on a shifted point"
    )


def dressed_vandermonde(
    points, eta: complex, f_values, sign: int
) -> complex | np.ndarray:
    """det[x_a^(b-1) - f(x_a) (x_a + sign*eta)^(b-1)] / V(x).

    ``f_values`` lists the weight at each point.  The empty set gives 1;
    identically zero weights give 1 for any set of distinct points, while
    a coinciding set raises ``PoleCollisionError`` whatever the weights,
    as does an infinite or NaN weight (a weight evaluated on its pole) or
    a point so large that a product of m - 1 differences could overflow.
    Points, weights and ``eta`` may carry stack axes (module docstring).
    """
    points = np.asarray(points, dtype=complex)
    f_values = np.asarray(f_values, dtype=complex)
    if points.shape[-1] != f_values.shape[-1]:
        raise ValueError("need exactly one weight value per point")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not np.isfinite(f_values).all():
        raise PoleCollisionError("infinite or NaN weight value")
    scale, m = _set_bound(points, abs(eta)), points.shape[-1]
    # each cardinal value below is a ratio of products of m - 1 differences,
    # none above 3 scale: refuse points so large that one could overflow
    if m > 1 and np.count_nonzero(scale >= _FLOAT_MAX ** (1.0 / (m - 1)) / 3.0):
        raise PoleCollisionError("a point so large that its cardinal products overflow")
    # factoring the plain power matrix out of the determinant leaves
    # det(I - diag(f) G) with G holding Lagrange cardinal values at the
    # shifted points; every entry is a product of point differences, so
    # no high powers or Vandermonde quotients are ever formed
    diffs = _require_distinct(points, scale)
    eye = np.eye(m, dtype=bool)
    # num[..., a, b, c] = x_a + sign*eta - x_c, with the c = b factor set to 1
    shifted = (points + sign * _per_set(eta))[..., :, None] - points[..., None, :]
    num = np.where(eye, 1.0, shifted[..., :, None, :])
    den = np.where(eye, 1.0, diffs)
    gmat = num.prod(axis=-1) / den.prod(axis=-1)[..., None, :]
    return _result(np.linalg.det(eye - f_values[..., :, None] * gmat))


def _kernel_differences(xs, ys, eta: complex):
    """Equal-size point sets, their differences x - y and x - y + eta and
    the pole guard's scale per set, refusing an eta within the guard (the
    kernel's two poles y and y - eta then coincide), an x on a kernel pole
    or a NaN point; the callers' ``_pair_product`` of xs refuses two
    equal x."""
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    if xs.shape[-1] != ys.shape[-1]:
        raise ValueError("the two point sets must have equal size")
    scale = _set_bound(ys, _set_bound(xs, abs(eta)))
    if not (np.abs(eta) > _POLE_TOL * scale).all():
        raise PoleCollisionError("kernel poles coincide: eta within the pole guard")
    guard = _POLE_TOL * scale[..., None, None]
    diffs = xs[..., :, None] - ys[..., None, :]
    if not (np.abs(diffs) > guard).all():
        raise PoleCollisionError("kernel pole: point sets overlap")
    shifted = diffs + _per_matrix(eta)
    if not (np.abs(shifted) > guard).all():
        raise PoleCollisionError("kernel pole: point sets overlap after shift")
    return xs, ys, diffs, shifted, scale


def _twist(mu) -> np.ndarray:
    """The twist of a two-pole-kernel determinant, per set, against each
    set's matrix; an infinite or NaN twist raises ``PoleCollisionError``."""
    mu = _per_matrix(mu)
    if not np.isfinite(mu).all():
        raise PoleCollisionError("infinite or NaN twist")
    return mu


def izergin_determinant(mu: complex, xs, ys, eta: complex) -> complex | np.ndarray:
    """Two-pole-kernel determinant over equal-size point sets.

    Product of all (x_a - y_b + eta) over the Vandermonde of the x set
    and the reversed-order Vandermonde of the y set, times
    det[mu/(x_a - y_b) - 1/(x_a - y_b + eta)].
    """
    xs, ys, diffs, shifted, scale = _kernel_differences(xs, ys, eta)
    denom = _pair_product(xs, scale) * _pair_product(ys[..., ::-1], scale)
    kernel = _twist(mu) / diffs - 1.0 / shifted
    pref = np.prod(shifted, axis=(-2, -1))
    return _result(pref * np.linalg.det(kernel) / denom)


def izergin_determinant_clustered(
    mu: complex, xs, ys, eta: complex
) -> complex | np.ndarray:
    """Two-pole-kernel determinant, stable when the second set clusters.

    Same value as ``izergin_determinant``, evaluated through the
    divided-difference factorization in the second point set.  Both pole
    families of the kernel have closed-form divided differences (inverse
    products over the cluster points), so the Vandermonde of the second
    set cancels algebraically instead of numerically and the evaluation
    keeps full precision even when those points nearly coincide — the
    regime where the plain determinant loses one Vandermonde order of
    accuracy per cluster point.
    """
    # the second set is not refused when it clusters: that is what this
    # route is for
    xs, _, diffs, shifted, scale = _kernel_differences(xs, ys, eta)
    denom = _pair_product(xs, scale)
    # column k holds the order-k divided difference over ys[:k+1]
    dd = _twist(mu) / np.cumprod(diffs, axis=-1) - 1.0 / np.cumprod(
        shifted, axis=-1
    )
    pref = np.prod(shifted, axis=(-2, -1))
    m = xs.shape[-1]
    sign = (-1.0) ** (m * (m - 1) // 2)
    return _result(sign * pref * np.linalg.det(dd) / denom)


def _one_based(value, size: int) -> np.ndarray:
    """A 1-based site index, an integer or an integer array of the stack
    shape, as a 0-based index array.  A bool, a float (even a whole one)
    and an index outside 1..size raise ``ValueError``."""
    index = np.asarray(value)
    if index.dtype.kind not in "iu" or np.count_nonzero((index < 1) | (index > size)):
        raise ValueError(f"site index must be an integer in 1..{size}")
    return index - 1


def _balanced(eta: complex, xs, points, guard, pairs=True):
    """``(rho, diffs, up, down)``: the balanced shift ratio over the row
    set ``xs`` at ``points`` and the p - x, p - x +- eta it is built from
    (last two axes: point, row).  A point on a pole of rho, not farther
    than ``guard`` (one value per point, on a trailing axis of length 1),
    or NaN, raises ``PoleCollisionError``.  Only the (point, row) pairs
    ``pairs`` marks enter: any other contributes an exact factor 1 and
    meets no guard."""
    diffs = points[..., :, None] - xs[..., None, :]
    up, down = diffs + eta, diffs - eta
    if not (np.abs(down) > guard).all(where=pairs):
        raise PoleCollisionError("balanced shift ratio evaluated on a shifted point")
    return (up / down).prod(axis=-1, where=pairs), diffs, up, down


def _real_pairs(real):
    """The (point, row) pairs of each set of a padded stack whose two
    entries are roots (``real`` as in ``_row_weights``); ``True`` for a
    stack without pads."""
    return True if real is None else real[..., :, None] & real[..., None, :]


def _row_weights(params: ChainParams, mu: complex, xs, real=None):
    """``(bound, g, rho, d, up, down)`` at the row set's own points: its
    pole bound max(1, |eta|, max |xi|, max |x|), g = mu a/d, rho with the
    x - x' +- eta it is built from (``_balanced``) and d, at the shape of
    ``xs``.  A row point on a lattice node, on a pole of rho or NaN raises
    ``PoleCollisionError``, relative to max(|x|, bound).

    ``real``, if given, marks the roots of a padded stack (``xs`` of its
    shape, each set's roots first, then its pads): a pad enters no
    bound, guard or rho.  Its own weights are computed but mean nothing,
    so it must lie off the nodes and the poles of rho, as a copy of a
    root of its set does."""
    pairs, nodes = _real_pairs(real), True if real is None else real[..., None]
    bound = _set_bound(xs, params.pole_scale, True if real is None else real)
    guard = _POLE_TOL * np.maximum(np.abs(xs), bound[..., None])[..., None]
    to_xi = xs[..., None] - params.xi
    rho, _, up, down = _balanced(params.eta, xs, xs, guard, pairs)
    if not (np.abs(to_xi) > guard).all(where=nodes):
        raise PoleCollisionError("Bethe root collides with an inhomogeneity")
    d = to_xi.prod(axis=-1)
    g = mu * (to_xi + params.eta).prod(axis=-1) / d
    return bound, g, rho, d, up, down


def _bethe_ratios(params: ChainParams, mu: complex, roots, real=None) -> np.ndarray:
    """mu a(x)/d(x) over -prod (x - x_m + eta)/(x - x_m - eta) (self factor
    -1) at every root x: 1 at each root of a twist-mu on-shell set.  Of a
    padded stack (``real`` as in ``_row_weights``) every pad reads
    exactly 1."""
    g, rho = _row_weights(params, mu, np.asarray(roots, dtype=complex), real)[1:3]
    ratios = g / -rho
    return ratios if real is None else np.where(real, ratios, 1.0)


def mu_bethe_residuals(params: ChainParams, mu: complex, roots) -> np.ndarray:
    """Per-root residuals of the twist-mu Bethe system
    mu a(x)/d(x) = - prod (x - x_m + eta)/(x - x_m - eta) (self factor -1).

    ``roots`` may be a stack of root sets, giving residuals of its shape.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.shape[-1] == 0:
        return np.zeros(roots.shape)
    return np.abs(_bethe_ratios(params, mu, roots) - 1.0)


def gaudin_matrix(params: ChainParams, roots, real=None) -> np.ndarray:
    """Derivative matrix of the logarithmic Bethe system, the Jacobian of
    log ``_bethe_ratios`` in the roots.

    Diagonal entries carry the logarithmic derivatives of a and d at the
    root plus the exchange sums over the other roots; off-diagonal
    entries carry the exchange kernel alone.  A stack of root sets gives
    a stack of matrices.  Of a padded stack (``real`` as in
    ``_row_weights``) a pad adds an exact 0 to every exchange sum and
    takes an identity row and column.
    """
    roots = np.asarray(roots, dtype=complex)
    eye = np.eye(roots.shape[-1], dtype=bool)
    pairs = _real_pairs(real)
    diffs = roots[..., :, None] - roots[..., None, :]
    eta = params.eta
    exchange = np.where(~eye & pairs, 1.0 / (diffs - eta) - 1.0 / (diffs + eta), 0.0)
    diag = (
        log_derivative_a(params, roots)
        - log_derivative_d(params, roots)
        + exchange.sum(axis=-1, where=pairs)
    )
    if real is not None:
        diag = np.where(real, diag, 1.0)
    return np.where(eye, diag[..., None], -exchange)


def _on_shell_gate(mu: complex, g, rho) -> np.ndarray:
    """The on-shell gate over the weights at the rows: their residuals
    |g/(-rho) - 1|, the arithmetic of ``mu_bethe_residuals``; a worst
    residual above 1e-7, or NaN, raises ``NotOnShellError``."""
    residuals = np.abs(g / -rho - 1.0)
    worst = residuals.max(initial=0.0)
    if not worst <= 1e-7:
        raise NotOnShellError(
            f"row points violate the twist-{mu} Bethe system "
            f"(worst residual {worst:.3e})"
        )
    return residuals


class _Rows(NamedTuple):
    """The row half of the on-shell evaluator, the work on the on-shell
    set alone: the set, its pole bound, the weights g and rho at its own
    points with the x - x' +- eta they were built from (``_row_weights``),
    its Vandermonde V(xs) and the d-product over it."""

    xs: np.ndarray
    bound: np.ndarray
    g: np.ndarray
    rho: np.ndarray
    up: np.ndarray
    down: np.ndarray
    vandermonde: complex | np.ndarray
    d_product: complex | np.ndarray


class _Columns(NamedTuple):
    """The column half of the on-shell evaluator, the work on the free set
    alone: the set, |y|, each point's least distance to a node, g = mu a/d
    at its points, the Vandermonde of the reversed set and the d-product
    over it."""

    ys: np.ndarray
    size: np.ndarray
    node_gap: np.ndarray
    g: np.ndarray
    vandermonde: complex | np.ndarray
    d_product: complex | np.ndarray


def _rows(params: ChainParams, mu: complex, xs) -> _Rows:
    """The row half over the on-shell set ``xs``: a row point on a lattice
    node, on a pole of rho or NaN raises ``PoleCollisionError``, a set off
    the twist-mu Bethe system ``NotOnShellError`` (``_on_shell_gate``), two
    coinciding rows ``PoleCollisionError``."""
    xs = np.asarray(xs, dtype=complex)
    bound, g, rho, d, up, down = _row_weights(params, mu, xs)
    _on_shell_gate(mu, g, rho)
    return _Rows(xs, bound, g, rho, up, down, _pair_product(xs, bound), d.prod(axis=-1))


def _columns(params: ChainParams, mu: complex, ys) -> _Columns:
    """The column half over the free set ``ys``; two coinciding or NaN
    free points raise ``PoleCollisionError``, relative to the set's own
    max(1, |eta|, max |xi|, max |y|), as does a free point so large that
    the d-product over the set overflows.  A free point on a node is
    refused by ``_on_shell``, against the rows' bound, so g may hold an
    infinity or a NaN there."""
    ys = np.asarray(ys, dtype=complex)
    to_xi = ys[..., None] - params.xi
    vandermonde = _pair_product(ys[..., ::-1], _set_bound(ys, params.pole_scale))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = to_xi.prod(axis=-1)
        g = mu * (to_xi + params.eta).prod(axis=-1) / d
        d_product = d.prod(axis=-1)
    if not np.isfinite(d_product).all():
        raise PoleCollisionError("the d-product overflows: a free point is too large")
    return _Columns(ys, np.abs(ys), np.abs(to_xi).min(axis=-1), g, vandermonde, d_product)


def _on_shell(params: ChainParams, mu: complex, xs, ys, site=None):
    """The on-shell determinant of the rows ``xs`` against the columns
    ``ys`` and, with ``site``, that node's residue column (module
    docstring), with the d-products over the rows and over the free
    columns.  ``xs`` is the row set or its row half (``_rows``), ``ys``
    the free set or its column half (``_columns``); a set given as points
    has its half built here.  This is the pair core: the free points'
    guards against the rows, rho and the differences, the kernel, the
    moments, the node's column and the det.  The matrix is built
    transposed, one row per column point.  A free point on a lattice
    node, and a column point close to a row point but not coincident
    with it, raise ``PoleCollisionError``."""
    eta, xi = params.eta, params.xi
    if site is not None:
        index = _one_based(site, params.n_sites)
    rows = xs if isinstance(xs, _Rows) else _rows(params, mu, xs)
    cols = ys if isinstance(ys, _Columns) else _columns(params, mu, ys)
    xs, ys, bound = rows.xs, cols.ys, rows.bound
    r, m = xs.shape[-1], ys.shape[-1]
    scale = np.maximum(cols.size, bound[..., None])[..., None]
    guard = _POLE_TOL * scale
    rho_y, diffs, up, down = _balanced(eta, xs, ys, guard)
    apart = cols.node_gap[..., None] > guard
    if np.count_nonzero(apart) < apart.size:
        raise PoleCollisionError("free point on a lattice node")
    # V(xs) and V(reversed ys); the products of per-set factors here are
    # ufunc calls, since numpy's scalar arithmetic rounds a complex
    # product differently from its array loops
    denom = np.multiply(rows.vandermonde, cols.vandermonde)
    # the kernel rows g K(x - y) - rho K(y - x), column points y on axis
    # -2 and rows x on axis -1, as eta/(y - x) (g/(y - x - eta) -
    # rho/(y - x + eta)): K(x - y) = eta/((y - x)(y - x - eta)) and
    # K(y - x) = eta/((y - x)(y - x + eta)) with no difference of
    # reciprocals, which cancels for a free point far from the rows
    gaps = np.abs(diffs)
    close = gaps < guard
    coincident = np.count_nonzero(close)
    if coincident:
        if (close & (gaps > _COINCIDE_TOL * scale)).any():
            raise PoleCollisionError(
                "column point ambiguously close to a row point "
                "(neither separated nor coincident)"
            )
        diffs = np.where(close, 1.0, diffs)
    mat = eta / diffs * (cols.g[..., None] / down - rho_y[..., None] / up)
    if coincident:
        to_xi = xs[..., None] - xi
        g_prime = rows.g * np.sum(1.0 / (to_xi + eta) - 1.0 / to_xi, axis=-1)
        rho_prime = rows.rho * np.sum(1.0 / rows.up - 1.0 / rows.down, axis=-1)
        limits = -g_prime - rho_prime - 2.0 * rows.g / eta
        mat = np.where(close, limits[..., None, :], mat)
    # x - y + eta = -(y - x - eta) over every row and free column
    pref = (-1.0) ** (r * m) * down.prod(axis=(-2, -1))
    powers = np.arange(m - r + (site is not None))
    if powers.size:
        y = ys[..., None]
        moments = cols.g[..., None] * y**powers - rho_y[..., None] * (y + eta) ** powers
        mat = np.concatenate([mat, moments], axis=-1)
    if site is not None:
        # the node's residue column: weights g = 1 and rho = 0, scaled by
        # mu a at the node
        node = xi[index][..., None]
        to_node = xs - node
        shifted = to_node + eta
        pref = np.multiply(pref, shifted.prod(axis=-1))
        full = np.empty(pref.shape + (m + 1, m + 1), dtype=complex)
        full[..., :m, :] = mat
        full[..., m, :r] = 1.0 / to_node - 1.0 / shifted
        full[..., m, r:] = node**powers
        mat = full
        # mu a at the node, given the stack's number of axes before it
        # multiplies: numpy rounds a complex product whose output holds one
        # element and whose operands differ in their number of axes (an
        # N = 1 table's stack) in its scalar loop, and a single element not
        node_a = np.multiply(mu, params.a_at_nodes[index])
        pref = np.multiply(pref, node_a[(None,) * (pref.ndim - node_a.ndim)])
        denom = np.multiply(denom, (ys - node).prod(axis=-1))
    value = np.multiply(pref, np.linalg.det(mat)) / denom
    return value, rows.d_product, cols.d_product


def slavnov_determinant(
    params: ChainParams, mu: complex, xs, ys
) -> complex | np.ndarray:
    """On-shell scalar-product determinant over equal-size point sets.

    Rows are indexed by the on-shell set, columns by the free set.  Row
    points must satisfy the twist-mu Bethe system; coinciding row and
    column points are handled through the closed-form limit entries, so
    the fully coinciding case (a norm) works directly.
    """
    if np.shape(xs)[-1] != np.shape(ys)[-1]:
        raise ValueError("the two point sets must have equal size")
    return _result(_on_shell(params, mu, xs, ys)[0])


def gen_slavnov_determinant(
    params: ChainParams, mu: complex, xs, ys
) -> complex | np.ndarray:
    """Rectangular extension of the on-shell determinant.

    The free set may exceed the on-shell set by ``s`` points; the matrix
    gains ``s`` rows of moment type: mu E+(y_k; xi) y_k^(p) minus the
    balanced shift ratio times (y_k + eta)^(p) for p = 0..s-1.  With
    equal sizes this reduces exactly to ``slavnov_determinant``.
    """
    if np.shape(ys)[-1] < np.shape(xs)[-1]:
        raise ValueError("the free set cannot be smaller than the on-shell set")
    return _result(_on_shell(params, mu, xs, ys)[0])


def gen_slavnov_sign(m: int, s: int) -> int:
    """Sign relating the rectangular determinant to the corresponding
    dressed Vandermonde functional: (-1)^m * (-1)^(s(s+1)/2)."""
    return (-1) ** (m + (s * (s + 1)) // 2)


def lattice_column_determinant(
    params: ChainParams, mu: complex, xs, ys_free, site: int
) -> complex | np.ndarray:
    """Limit of d(y) times the rectangular on-shell determinant as one
    free point y approaches the lattice node of ``site``.

    Appending a lattice node to the free set makes one column of the
    rectangular determinant blow up (the dressing has a pole there)
    while the accompanying d-product vanishes; the product of the two
    has a finite limit.  This evaluates that limit directly: the node's
    column is replaced by its pole residue -- weights g = 1 and rho = 0,
    so two-pole-kernel entries against the on-shell rows and bare node
    powers in the moment rows -- and the whole thing is scaled by mu
    times the eta-shifted lattice product at the node.  The remaining
    free points may still coincide with on-shell rows; those entries go
    through the usual closed-form limits.  ``site`` (an integer in
    1..N, or an integer array of the stack shape, one site per member)
    only enters the node's column; the free columns are weighed once per
    pair of sets.
    """
    if np.shape(ys_free)[-1] < np.shape(xs)[-1] - 1:
        raise ValueError("the free set cannot be smaller than the on-shell set")
    return _result(_on_shell(params, mu, xs, ys_free, site=site)[0])


def dressed_vandermonde_unbalanced_check(
    mu: complex, xs, ys, eta: complex
) -> tuple[complex | np.ndarray, complex | np.ndarray]:
    """Both sides of the unequal-size functional relation.

    lhs: the plus functional over the y set weighted by mu times the
    minus shift-ratio product of the x set; rhs: (1 - mu)^(|y| - |x|)
    times the minus functional over the x set weighted by mu times the
    plus shift-ratio product of the y set.  Callers compare the two.
    Stacks of sets, with ``mu`` and ``eta`` per set, give two arrays.
    """
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    power = ys.shape[-1] - xs.shape[-1]
    if power < 0 and np.any(np.asarray(mu) == 1.0):
        raise ValueError("the shrinking direction needs a twist different from 1")
    weight = _per_set(mu)
    lhs = dressed_vandermonde(ys, eta, weight * shift_ratio(xs, eta, ys, -1), +1)
    rhs_core = dressed_vandermonde(xs, eta, weight * shift_ratio(ys, eta, xs, +1), -1)
    rhs = (1.0 - np.asarray(mu)) ** power * rhs_core
    return _result(lhs), _result(rhs)


def richardson_limit(evaluator) -> tuple[complex, float]:
    """Polynomial extrapolation of ``evaluator(eps)`` to eps = 0.

    Neville's scheme on the geometric schedule eps = 1e-2 / 2^k,
    k = 0..5; returns the extrapolated value and an error estimate (the
    size of the final correction).  The limit is sum_k w_k v_k over the
    samples v_k, with w_k the weights of polynomial extrapolation to 0,
    so the samples' own rounding leaves it uncertain by about
    eps_mach sum_k |w_k| |v_k|.  A final correction more than
    ``_LIMIT_FLOOR_FACTOR`` times that floor means the samples are not a
    polynomial in eps to working precision -- a pole, a logarithm or a
    root at 0 -- and raises ``LimitFailureError``, as does a NaN or
    infinite sample or limit.
    """
    schedule = 1e-2 * 0.5 ** np.arange(6)
    vals = np.array([evaluator(float(e)) for e in schedule], dtype=complex)
    if not np.isfinite(vals).all():
        raise LimitFailureError("the evaluator returned a NaN or infinite sample")
    table = vals.copy()
    best = table[-1]
    # an overflow leaves a non-finite limit, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(1, schedule.size):
            new = np.zeros(schedule.size - level, dtype=complex)
            for i in range(new.size):
                e0, e1 = schedule[i], schedule[i + level]
                new[i] = (e0 * table[i + 1] - e1 * table[i]) / (e0 - e1)
            correction = abs(new[-1] - best)
            best = new[-1]
            table = new
    if not np.isfinite(best):
        raise LimitFailureError("the extrapolated limit is NaN or infinite")
    # w_k = prod over j != k of e_j / (e_j - e_k)
    eye = np.eye(schedule.size, dtype=bool)
    gaps = np.where(eye, 1.0, schedule - schedule[:, None])
    weights = np.where(eye, 1.0, schedule / gaps).prod(axis=1)
    floor = np.finfo(float).eps * np.sum(np.abs(weights) * np.abs(vals))
    if correction > _LIMIT_FLOOR_FACTOR * floor:
        raise LimitFailureError(
            f"extrapolation did not converge: final correction {correction:.3e} "
            f"against a rounding floor of {floor:.3e}"
        )
    return complex(best), float(correction)
