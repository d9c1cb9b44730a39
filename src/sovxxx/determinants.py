"""Determinant building blocks: dressed Vandermonde functionals and the
domain-wall / scalar-product determinants built from them.

The objects here are plain functions of point sets; no dense vectors
appear.  The central structure is a determinant of the form
``det[x_a^(b-1) - f(x_a) (x_a +- eta)^(b-1)] / V(x)``, a Vandermonde
dressed by per-point weight values, together with the two-pole kernel
determinants (Izergin and Slavnov types) that reduce to it.  Weight
functions always enter as value lists evaluated by the caller, never as
callbacks, so the identities can be tested point set by point set.

Every Slavnov-type matrix in the package -- on-shell, rectangular,
lattice-column and column-substituted -- is built by ``_kernel_matrix``,
alpha_k K(x_j - y_k) + beta_k K(y_k - x_j) with K(u) = 1/u - 1/(u + eta);
only the per-column weights differ.  Those weights, g = mu a/d and the
balanced shift ratio rho over the on-shell rows, come from one function
(``_weights``) at the rows and at the columns: at the rows they are the
on-shell gate (g/(-rho) = 1 on shell) and the coincident-entry limits,
at the columns the kernel weights.  Entries of the on-shell matrices
have removable singularities when a column point collides with an
on-shell row point; those entries are evaluated through their
closed-form limits, which is what makes norms (coinciding point sets)
directly computable.

Stacks: every point-set argument of a determinant evaluator is an
array whose last axis runs over the set and whose leading axes, if any,
index a stack of sets of that size; the sets of one call broadcast
against each other.  The free parameters of the chain-free evaluators
(``eta`` and ``mu`` of the dressed Vandermonde and Izergin forms) may be
arrays of the stack shape, one per set, as may the substituted column
and its point and the lattice column's site; the on-shell evaluators
take one chain and one twist per call.  One call makes one
guard pass, builds one (..., m, m) matrix stack and takes one batched
``det``, returning an array of the stack shape; a 1-D set is the
no-stack case of the same code and gives a ``complex``.  The on-shell
gate runs once per call: a row set shared by a stack of column sets is
weighed and checked in the same pass as the columns.
"""

from __future__ import annotations

import numpy as np

from .chain import (
    ChainParams,
    log_derivative_a,
    log_derivative_d,
    vandermonde,
)
from .errors import LimitFailureError, NotOnShellError, PoleCollisionError

# relative pole guard used throughout
_POLE_TOL = 1e-8
# below this relative separation two points are treated as intentionally
# equal and limit formulas are used
_COINCIDE_TOL = 1e-12


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


def _set_bound(points, floor=1.0) -> np.ndarray:
    """max(1, floor, max |x|) over each set of a stack: every pole guard
    here is relative to the largest of 1, |eta| and the points involved."""
    return np.maximum(np.maximum.reduce(np.abs(points), axis=-1, initial=1.0), floor)


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


def two_pole_kernel(x: complex, eta: complex) -> complex:
    """The kernel K(x) = 1/x - 1/(x + eta) = eta/(x (x + eta))."""
    return 1.0 / x - 1.0 / (x + eta)


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
    a coinciding set raises ``PoleCollisionError`` whatever the weights.
    Points, weights and ``eta`` may carry stack axes (module docstring).
    """
    points = np.asarray(points, dtype=complex)
    f_values = np.asarray(f_values, dtype=complex)
    if points.shape[-1] != f_values.shape[-1]:
        raise ValueError("need exactly one weight value per point")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    # factoring the plain power matrix out of the determinant leaves
    # det(I - diag(f) G) with G holding Lagrange cardinal values at the
    # shifted points; every entry is a product of point differences, so
    # no high powers or Vandermonde quotients are ever formed
    diffs = _require_distinct(points, _set_bound(points, abs(eta)))
    eye = np.eye(points.shape[-1], dtype=bool)
    # num[..., a, b, c] = x_a + sign*eta - x_c, with the c = b factor set to 1
    shifted = (points + sign * _per_set(eta))[..., :, None] - points[..., None, :]
    num = np.where(eye, 1.0, shifted[..., :, None, :])
    den = np.where(eye, 1.0, diffs)
    gmat = num.prod(axis=-1) / den.prod(axis=-1)[..., None, :]
    return _result(np.linalg.det(eye - f_values[..., :, None] * gmat))


def _kernel_differences(xs, ys, eta: complex):
    """Equal-size point sets, their differences x - y and x - y + eta and
    the pole guard's scale per set, refusing an x on a kernel pole (y or
    y - eta), two equal x or a NaN point."""
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    if xs.shape[-1] != ys.shape[-1]:
        raise ValueError("the two point sets must have equal size")
    scale = _set_bound(ys, _set_bound(xs, abs(eta)))
    guard = _POLE_TOL * scale[..., None, None]
    diffs = xs[..., :, None] - ys[..., None, :]
    if not (np.abs(diffs) > guard).all():
        raise PoleCollisionError("kernel pole: point sets overlap")
    shifted = diffs + _per_matrix(eta)
    if not (np.abs(shifted) > guard).all():
        raise PoleCollisionError("kernel pole: point sets overlap after shift")
    _require_distinct(xs, scale)
    return xs, ys, diffs, shifted, scale


def izergin_determinant(mu: complex, xs, ys, eta: complex) -> complex | np.ndarray:
    """Two-pole-kernel determinant over equal-size point sets.

    Product of all (x_a - y_b + eta) over the Vandermonde of the x set
    and the reversed-order Vandermonde of the y set, times
    det[mu/(x_a - y_b) - 1/(x_a - y_b + eta)].
    """
    xs, ys, diffs, shifted, scale = _kernel_differences(xs, ys, eta)
    _require_distinct(ys, scale)
    kernel = _per_matrix(mu) / diffs - 1.0 / shifted
    pref = np.prod(shifted, axis=(-2, -1))
    denom = vandermonde(xs) * vandermonde(ys[..., ::-1])
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
    xs, _, diffs, shifted, _ = _kernel_differences(xs, ys, eta)
    # column k holds the order-k divided difference over ys[:k+1]
    dd = _per_matrix(mu) / np.cumprod(diffs, axis=-1) - 1.0 / np.cumprod(
        shifted, axis=-1
    )
    pref = np.prod(shifted, axis=(-2, -1))
    m = xs.shape[-1]
    sign = (-1.0) ** (m * (m - 1) // 2)
    return _result(sign * pref * np.linalg.det(dd) / vandermonde(xs))


def _weights(params: ChainParams, mu: complex, xs, points):
    """The weights of the on-shell matrix at ``points``, the row points
    ``xs`` followed by any column points, in one evaluation:
    g = mu a(p)/d(p) and rho = the balanced shift ratio over the row set.

    A stack of points takes one row set per stack member, or one row set
    for all.  A row point within the pole guard of an inhomogeneity,
    relative to max(1, |eta|, max |xi|, max |x| over its set), raises
    ``PoleCollisionError``; so does a column point y, relative to
    max(1, |eta|, max |xi|, |y|), and a NaN point of either kind.
    """
    r = xs.shape[-1]
    to_xi = points[..., None] - params.xi
    gaps = np.abs(to_xi)
    bound = params.pole_scale
    row_scale = _set_bound(xs, bound)[..., None, None]
    if not (gaps[..., :r, :] > _POLE_TOL * row_scale).all():
        raise PoleCollisionError("Bethe root collides with an inhomogeneity")
    column_scale = np.maximum(np.abs(points[..., r:]), bound)[..., None]
    if not (gaps[..., r:, :] > _POLE_TOL * column_scale).all():
        raise PoleCollisionError("shift-ratio product evaluated on a set point")
    # a(p) and d(p), as ``chain.a_of`` and ``chain.d_of`` evaluate them
    g = mu * (to_xi + params.eta).prod(axis=-1) / to_xi.prod(axis=-1)
    return g, balanced_shift_ratio(xs, params.eta, points)


def _bethe_ratios(params: ChainParams, mu: complex, roots) -> np.ndarray:
    """mu a(x)/d(x) over -prod (x - x_m + eta)/(x - x_m - eta) (self factor
    -1) at every root x: 1 at each root of a twist-mu on-shell set."""
    roots = np.asarray(roots, dtype=complex)
    g, rho = _weights(params, mu, roots, roots)
    return g / -rho


def mu_bethe_residuals(params: ChainParams, mu: complex, roots) -> np.ndarray:
    """Per-root residuals of the twist-mu Bethe system
    mu a(x)/d(x) = - prod (x - x_m + eta)/(x - x_m - eta) (self factor -1).

    ``roots`` may be a stack of root sets, giving residuals of its shape.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.shape[-1] == 0:
        return np.zeros(roots.shape)
    return np.abs(_bethe_ratios(params, mu, roots) - 1.0)


def gaudin_matrix(params: ChainParams, roots) -> np.ndarray:
    """Derivative matrix of the logarithmic Bethe system, the Jacobian of
    log ``_bethe_ratios`` in the roots.

    Diagonal entries carry the logarithmic derivatives of a and d at the
    root plus the exchange sums over the other roots; off-diagonal
    entries carry the exchange kernel alone.  A stack of root sets gives
    a stack of matrices.
    """
    roots = np.asarray(roots, dtype=complex)
    eye = np.eye(roots.shape[-1], dtype=bool)
    diffs = roots[..., :, None] - roots[..., None, :]
    eta = params.eta
    exchange = np.where(eye, 0.0, 1.0 / (diffs - eta) - 1.0 / (diffs + eta))
    diag = (
        log_derivative_a(params, roots)
        - log_derivative_d(params, roots)
        + exchange.sum(axis=-1)
    )
    return np.where(eye, diag[..., None], -exchange)


def _on_shell_weights(params: ChainParams, mu: complex, xs, ys):
    """The on-shell gate and every weight of the on-shell matrix, from one
    ``_weights`` evaluation at the rows and the columns: refuses row
    points off the twist-mu Bethe system (worst residual |g/(-rho) - 1|
    over the rows above 1e-7 or NaN, the arithmetic of
    ``mu_bethe_residuals``) and returns ((g, rho) at the rows, (g, rho)
    at the columns), broadcast to the common stack shape."""
    r = xs.shape[-1]
    # rows then columns, each broadcast to the common stack shape
    points = np.concatenate(
        [xs + np.zeros(ys.shape[:-1] + (1,)), ys + np.zeros(xs.shape[:-1] + (1,))],
        axis=-1,
    )
    g, rho = _weights(params, mu, xs, points)
    worst = np.abs(g[..., :r] / -rho[..., :r] - 1.0).max(initial=0.0)
    if not worst <= 1e-7:
        raise NotOnShellError(
            f"row points violate the twist-{mu} Bethe system "
            f"(worst residual {worst:.3e})"
        )
    return (g[..., :r], rho[..., :r]), (g[..., r:], rho[..., r:])


def _kernel_matrix(diffs, alpha, beta, eta: complex) -> np.ndarray:
    """The two-pole kernel matrix alpha_k K(x_j - y_k) + beta_k K(y_k - x_j),
    K(u) = 1/u - 1/(u + eta), from the differences x_j - y_k of rows at
    the x and columns at the y.

    This is the one builder behind every Slavnov-type determinant of the
    package: the on-shell scalar products, their rectangular and
    lattice-column extensions and the column-substituted determinants
    differ only in the per-column weights.  Stacks of sets give a stack
    of matrices.
    """
    alpha = np.asarray(alpha, dtype=complex)[..., None, :]
    beta = np.asarray(beta, dtype=complex)[..., None, :]
    return alpha * two_pole_kernel(diffs, eta) + beta * two_pole_kernel(-diffs, eta)


def _coincident_entries(params: ChainParams, xs, g, rho) -> np.ndarray:
    """On-shell matrix entries in the limit where a column point reaches
    a row point x, one per row point, from the weights g and rho at the
    row points.

    The generic entry is g(y) K(x - y) - rho(y) K(y - x); on shell the
    two poles cancel as y -> x, leaving -g'(x) - rho'(x) - 2 g(x)/eta.
    """
    eta, xi = params.eta, params.xi
    to_xi = xs[..., None] - xi
    g_prime = g * np.sum(1.0 / (to_xi + eta) - 1.0 / to_xi, axis=-1)
    to_xs = xs[..., :, None] - xs[..., None, :]
    rho_prime = rho * np.sum(1.0 / (to_xs + eta) - 1.0 / (to_xs - eta), axis=-1)
    return -g_prime - rho_prime - 2.0 * g / eta


def _on_shell_matrix(
    params: ChainParams, xs, ys, diffs, row_weights, g, rho
) -> np.ndarray:
    """Kernel rows g K(x - y) - rho K(y - x) against the on-shell set,
    followed by |ys| - |xs| moment rows g y^p - rho (y + eta)^p;
    ``diffs`` holds every x - y and ``row_weights`` the weights at the
    rows.

    Entries whose column point coincides with their row point take the
    closed-form limit; a column point close to a row point but not
    coincident with it is refused.
    """
    eta = params.eta
    with np.errstate(divide="ignore", invalid="ignore"):
        mat = _kernel_matrix(diffs, g, -rho, eta)
    bound = _set_bound(xs, params.pole_scale)
    scale = np.maximum(bound[..., None], np.abs(ys))[..., None, :]
    gaps = np.abs(diffs)
    near = gaps < _POLE_TOL * scale
    if near.any():
        if (near & (gaps > _COINCIDE_TOL * scale)).any():
            raise PoleCollisionError(
                "column point ambiguously close to a row point "
                "(neither separated nor coincident)"
            )
        limits = _coincident_entries(params, xs, *row_weights)
        mat = np.where(near, limits[..., :, None], mat)
    extra = ys.shape[-1] - xs.shape[-1]
    if extra:
        powers = np.arange(extra)[:, None]
        g, rho, ys = g[..., None, :], rho[..., None, :], ys[..., None, :]
        moments = g * ys**powers - rho * (ys + eta) ** powers
        mat = np.concatenate([mat, moments], axis=-2)
    return mat


def _normalized_det(mat: np.ndarray, xs, ys, diffs, eta: complex) -> complex | np.ndarray:
    """pref det(mat) / (V(xs) V(reversed ys)), pref the product of every
    x - y + eta (``diffs`` holds every x - y)."""
    scale = _set_bound(ys, _set_bound(xs, abs(eta)))
    _require_distinct(xs, scale)
    _require_distinct(ys, scale)
    denom = vandermonde(xs) * vandermonde(ys[..., ::-1])
    pref = np.prod(diffs + eta, axis=(-2, -1))
    return _result(pref * np.linalg.det(mat) / denom)


def _on_shell_determinant(
    params: ChainParams, mu: complex, xs, ys
) -> complex | np.ndarray:
    rows, (g, rho) = _on_shell_weights(params, mu, xs, ys)
    diffs = xs[..., :, None] - ys[..., None, :]
    mat = _on_shell_matrix(params, xs, ys, diffs, rows, g, rho)
    return _normalized_det(mat, xs, ys, diffs, params.eta)


def slavnov_determinant(
    params: ChainParams, mu: complex, xs, ys
) -> complex | np.ndarray:
    """On-shell scalar-product determinant over equal-size point sets.

    Rows are indexed by the on-shell set, columns by the free set.  Row
    points must satisfy the twist-mu Bethe system; coinciding row and
    column points are handled through the closed-form limit entries, so
    the fully coinciding case (a norm) works directly.
    """
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    if xs.shape[-1] != ys.shape[-1]:
        raise ValueError("the two point sets must have equal size")
    return _on_shell_determinant(params, mu, xs, ys)


def gen_slavnov_determinant(
    params: ChainParams, mu: complex, xs, ys
) -> complex | np.ndarray:
    """Rectangular extension of the on-shell determinant.

    The free set may exceed the on-shell set by ``s`` points; the matrix
    gains ``s`` rows of moment type: mu E+(y_k; xi) y_k^(p) minus the
    balanced shift ratio times (y_k + eta)^(p) for p = 0..s-1.  With
    equal sizes this reduces exactly to ``slavnov_determinant``.
    """
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    if ys.shape[-1] < xs.shape[-1]:
        raise ValueError("the free set cannot be smaller than the on-shell set")
    return _on_shell_determinant(params, mu, xs, ys)


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
    through the usual closed-form limits.  ``site`` may be an array of
    the stack shape, one site per member; the weights of the free points
    do not depend on it and are evaluated once per pair of sets.
    """
    xs = np.asarray(xs, dtype=complex)
    ys_free = np.asarray(ys_free, dtype=complex)
    index = np.asarray(site) - 1
    if index.min() < 0 or index.max() >= params.n_sites:
        raise ValueError("site index out of range")
    m = ys_free.shape[-1]
    if m < xs.shape[-1] - 1:
        raise ValueError("the free set cannot be smaller than the on-shell set")
    rows, (g_free, rho_free) = _on_shell_weights(params, mu, xs, ys_free)
    # the node joins the free set as one more column, whose weights (those
    # of its pole residue, g = 1 and rho = 0) do not depend on the node;
    # each array is filled in place, with no concatenation
    stack = np.broadcast_shapes(ys_free.shape[:-1], index.shape)
    ys = np.empty(stack + (m + 1,), dtype=complex)
    ys[..., :m] = ys_free
    ys[..., m] = params.xi[index]
    g, rho = np.zeros((2,) + g_free.shape[:-1] + (m + 1,), dtype=complex)
    g[..., :m] = g_free
    g[..., m] = 1.0
    rho[..., :m] = rho_free
    diffs = xs[..., :, None] - ys[..., None, :]
    mat = _on_shell_matrix(params, xs, ys, diffs, rows, g, rho)
    residue = mu * params.a_at_nodes[index]
    return _result(residue * _normalized_det(mat, xs, ys, diffs, params.eta))


def column_substituted_slavnov(
    params: ChainParams, mu: complex, xs, ys, m, z
) -> complex | np.ndarray:
    """Scalar-product determinant with one column moved to a new point.

    Column ``m`` (1-based) of the matrix is evaluated at ``z`` in place
    of the m-th free point; the external products and Vandermonde
    normalization keep the original free set, so ``z`` equal to the m-th
    free point reproduces the plain determinant exactly.  At generic
    ``z`` the literal entries are used.  When ``z`` lands on an
    inhomogeneity the literal entry has a simple pole (through the
    lattice shift ratio); the returned value is then the residue of the
    determinant at that pole: the singular part of the column, which is
    the two-pole kernel column scaled by the pole-free part of the
    lattice shift ratio.  ``m`` and ``z`` are per-set scalars, so one
    call can substitute every column of one pair of sets.
    """
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    if xs.shape[-1] != ys.shape[-1]:
        raise ValueError("the two point sets must have equal size")
    column = np.asarray(m) - 1
    if np.any((column < 0) | (column >= ys.shape[-1])):
        raise ValueError("column index out of range")
    eta, xi = params.eta, params.xi
    z = np.asarray(z, dtype=complex)
    moved = np.arange(ys.shape[-1]) == column[..., None]
    cols = np.where(moved, z[..., None], ys)
    to_xi = z[..., None] - xi
    gaps = np.abs(to_xi)
    node = gaps.argmin(axis=-1)
    scale = np.maximum(_set_bound(xs, params.pole_scale), np.abs(z))
    on_node = gaps.min(axis=-1) < _POLE_TOL * scale
    # a column moved onto a node keeps the weights of its old point until
    # they are replaced by the residue below, so no pole is evaluated
    residue_column = moved & on_node[..., None]
    rows, (g, rho) = _on_shell_weights(
        params, mu, xs, np.where(residue_column, ys, cols)
    )
    if on_node.any():
        others = np.where(np.arange(xi.size) == node[..., None], 1.0, to_xi)
        residue = mu * (np.prod(to_xi + eta, axis=-1) / np.prod(others, axis=-1))
        g = np.where(residue_column, residue[..., None], g)
        rho = np.where(residue_column, 0.0, rho)
    mat = _on_shell_matrix(
        params, xs, cols, xs[..., :, None] - cols[..., None, :], rows, g, rho
    )
    return _normalized_det(mat, xs, ys, xs[..., :, None] - ys[..., None, :], eta)


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
    size of the final correction).  Corrections that grow instead of
    shrinking, and a NaN or infinite sample or limit, raise
    ``LimitFailureError``.
    """
    schedule = 1e-2 * 0.5 ** np.arange(6)
    vals = np.array([evaluator(float(e)) for e in schedule], dtype=complex)
    if not np.isfinite(vals).all():
        raise LimitFailureError("the evaluator returned a NaN or infinite sample")
    table = vals.copy()
    best = table[-1]
    corrections = []
    # an overflow leaves a non-finite limit, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(1, schedule.size):
            new = np.zeros(schedule.size - level, dtype=complex)
            for i in range(new.size):
                e0, e1 = schedule[i], schedule[i + level]
                new[i] = (e0 * table[i + 1] - e1 * table[i]) / (e0 - e1)
            corrections.append(abs(new[-1] - best))
            best = new[-1]
            table = new
    if not np.isfinite(best):
        raise LimitFailureError("the extrapolated limit is NaN or infinite")
    rounding_floor = 1e-14 * (abs(best) + 1.0)
    if (
        len(corrections) >= 2
        and corrections[-1] > rounding_floor
        and corrections[-1] > 10.0 * (corrections[0] + 1e-300)
    ):
        raise LimitFailureError(
            "extrapolation corrections grew instead of converging"
        )
    return complex(best), float(corrections[-1])
