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
lattice-column and column-substituted here, the closed form-factor
determinants in ``formfactors`` -- is built by ``_kernel_matrix``,
alpha_k K(x_j - y_k) + beta_k K(y_k - x_j) with K(u) = 1/u - 1/(u + eta);
only the per-column weights differ.  Entries of the on-shell matrices
have removable singularities when a column point collides with an
on-shell row point; those entries are evaluated through their
closed-form limits, which is what makes norms (coinciding point sets)
directly computable.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainParams, a_of, d_of, vandermonde
from .errors import LimitFailureError, NotOnShellError, PoleCollisionError

# relative pole guard used throughout
_POLE_TOL = 1e-8
# below this relative separation two points are treated as intentionally
# equal and limit formulas are used
_COINCIDE_TOL = 1e-12


def _require_distinct(points: np.ndarray, scale: float) -> None:
    """Refuse a point set holding two points closer than the pole guard.

    Every determinant here divides by the set's point differences (its
    Vandermonde); such a pair leaves the quotient a plausible-looking but
    wrong number rather than an exact zero.
    """
    pts = points.tolist()
    gaps = (abs(p - q) for a, p in enumerate(pts) for q in pts[:a])
    if any(gap < _POLE_TOL * scale for gap in gaps):
        raise PoleCollisionError("coinciding points within one set")


def two_pole_kernel(x: complex, eta: complex, mu: complex = 1.0) -> complex:
    """The kernel mu/x - 1/(x + eta); for mu = 1 this is
    eta/(x (x + eta))."""
    return mu / x - 1.0 / (x + eta)


def _guarded_ratio(points, eta: complex, y, up: complex, down: complex, what: str):
    """Product over the set of (y - x + up)/(y - x + down) at each entry of
    ``y``, guarding each denominator against max(1, |eta|, max|x|, |y_k|)."""
    points = np.asarray(points, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex)
    if points.size == 0:
        out = np.ones(y.shape, dtype=complex)
    else:
        diffs = y[..., None] - points
        den = diffs + down
        scale = np.maximum(np.abs(y), max(1.0, abs(eta), np.abs(points).max()))
        if (np.abs(den) < _POLE_TOL * scale[..., None]).any():
            raise PoleCollisionError(what)
        out = ((diffs + up) / den).prod(axis=-1)
    return complex(out) if out.ndim == 0 else out


def shift_ratio(points, eta: complex, y, sign: int):
    """Product over the set of (y - x + sign*eta)/(y - x); empty set gives 1.

    ``y`` may be an array of evaluation points, giving an array of its
    shape; a scalar ``y`` gives a ``complex``.  Evaluation on top of a set
    point is a pole and raises ``PoleCollisionError``.
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


def dressed_vandermonde(points, eta: complex, f_values, sign: int) -> complex:
    """det[x_a^(b-1) - f(x_a) (x_a + sign*eta)^(b-1)] / V(x).

    ``f_values`` lists the weight at each point.  The empty set gives 1;
    identically zero weights give 1 for any set of distinct points, while
    a coinciding set raises ``PoleCollisionError`` whatever the weights.
    """
    points = np.asarray(points, dtype=complex).ravel()
    f_values = np.asarray(f_values, dtype=complex).ravel()
    if points.size != f_values.size:
        raise ValueError("need exactly one weight value per point")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    m = points.size
    if m == 0:
        return 1.0 + 0.0j
    # factoring the plain power matrix out of the determinant leaves
    # det(I - diag(f) G) with G holding Lagrange cardinal values at the
    # shifted points; every entry is a product of point differences, so
    # no high powers or Vandermonde quotients are ever formed
    _require_distinct(points, max(1.0, abs(eta), np.abs(points).max()))
    diag = np.arange(m)
    # num[a, b, c] = x_a + sign*eta - x_c, with the c = b factor set to 1
    num = np.repeat((points + sign * eta)[:, None, None] - points, m, axis=1)
    num[:, diag, diag] = 1.0
    den = points[:, None] - points
    den[diag, diag] = 1.0
    gmat = num.prod(axis=2) / den.prod(axis=1)
    return complex(np.linalg.det(np.eye(m) - f_values[:, None] * gmat))


def _kernel_differences(xs, ys, eta: complex):
    """Equal-size point sets, their differences x - y and the pole guard's
    scale, refusing an x on a kernel pole (y or y - eta) or two equal x."""
    xs = np.asarray(xs, dtype=complex).ravel()
    ys = np.asarray(ys, dtype=complex).ravel()
    if xs.size != ys.size:
        raise ValueError("the two point sets must have equal size")
    scale = max(abs(eta), np.abs(xs).max(initial=1.0), np.abs(ys).max(initial=1.0))
    diffs = xs[:, None] - ys[None, :]
    if (np.abs(diffs) < _POLE_TOL * scale).any():
        raise PoleCollisionError("kernel pole: point sets overlap")
    if (np.abs(diffs + eta) < _POLE_TOL * scale).any():
        raise PoleCollisionError("kernel pole: point sets overlap after shift")
    _require_distinct(xs, scale)
    return xs, ys, diffs, scale


def izergin_determinant(mu: complex, xs, ys, eta: complex) -> complex:
    """Two-pole-kernel determinant over equal-size point sets.

    Product of all (x_a - y_b + eta) over the Vandermonde of the x set
    and the reversed-order Vandermonde of the y set, times
    det[mu/(x_a - y_b) - 1/(x_a - y_b + eta)].
    """
    xs, ys, diffs, scale = _kernel_differences(xs, ys, eta)
    _require_distinct(ys, scale)
    kernel = mu / diffs - 1.0 / (diffs + eta)
    pref = complex(np.prod(diffs + eta))
    denom = vandermonde(xs) * vandermonde(ys[::-1])
    return complex(pref * np.linalg.det(kernel) / denom)


def izergin_determinant_clustered(mu: complex, xs, ys, eta: complex) -> complex:
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
    xs, _, diffs, _ = _kernel_differences(xs, ys, eta)
    # column k holds the order-k divided difference over ys[:k+1]
    plain = np.cumprod(diffs, axis=1)
    shifted = np.cumprod(diffs + eta, axis=1)
    dd = mu / plain - 1.0 / shifted
    pref = complex(np.prod(diffs + eta))
    sign = (-1.0) ** (xs.size * (xs.size - 1) // 2)
    return complex(sign * pref * np.linalg.det(dd) / vandermonde(xs))


def mu_bethe_residuals(params: ChainParams, mu: complex, roots) -> np.ndarray:
    """Per-root residuals of the twist-mu Bethe system
    mu a(x)/d(x) = - prod (x - x_m + eta)/(x - x_m - eta) (self factor -1)."""
    roots = np.asarray(roots, dtype=complex).ravel()
    if roots.size == 0:
        return np.zeros(0)
    xi, eta = params.xi, params.eta
    scale = max(1.0, abs(eta), np.abs(roots).max(), np.abs(xi).max())
    if (np.abs(roots[:, None] - xi) < _POLE_TOL * scale).any():
        raise PoleCollisionError("Bethe root collides with an inhomogeneity")
    lhs = mu * a_of(params, roots) / d_of(params, roots)
    return np.abs(lhs / -balanced_shift_ratio(roots, eta, roots) - 1.0)


def _require_on_shell(params: ChainParams, mu: complex, xs, tol: float = 1e-7) -> None:
    res = mu_bethe_residuals(params, mu, xs)
    worst = res.max(initial=0.0)
    if worst > tol:
        raise NotOnShellError(
            f"row points violate the twist-{mu} Bethe system "
            f"(worst residual {worst:.3e})"
        )


def _kernel_matrix(xs, ys, alpha, beta, eta: complex) -> np.ndarray:
    """The two-pole kernel matrix alpha_k K(x_j - y_k) + beta_k K(y_k - x_j),
    K(u) = 1/u - 1/(u + eta), with rows at ``xs`` and columns at ``ys``.

    This is the one builder behind every Slavnov-type determinant of the
    package: the on-shell scalar products, their rectangular and
    lattice-column extensions, the column-substituted determinants and
    the closed form-factor determinants differ only in the per-column
    weights.
    """
    u = np.asarray(xs, dtype=complex)[:, None] - np.asarray(ys, dtype=complex)[None, :]
    alpha = np.asarray(alpha, dtype=complex)[None, :]
    beta = np.asarray(beta, dtype=complex)[None, :]
    return alpha * two_pole_kernel(u, eta) + beta * two_pole_kernel(-u, eta)


def _column_weights(
    params: ChainParams, mu: complex, xs, ys
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column weights of the on-shell matrix, once per column point y:
    g = mu E+(y; xi) and rho = the balanced shift ratio over the row set."""
    eta = params.eta
    return mu * shift_ratio(params.xi, eta, ys, +1), balanced_shift_ratio(xs, eta, ys)


def _coincident_entry(params: ChainParams, mu: complex, xs, x: complex) -> complex:
    """On-shell matrix entry in the limit where its column point reaches
    its row point x.

    The generic entry is g(y) K(x - y) - rho(y) K(y - x); on shell the
    two poles cancel as y -> x, leaving -g'(x) - rho'(x) - 2 g(x)/eta.
    """
    eta = params.eta
    g = mu * shift_ratio(params.xi, eta, x, +1)
    g_prime = g * complex(
        np.sum(1.0 / (x - params.xi + eta) - 1.0 / (x - params.xi))
    )
    rho = balanced_shift_ratio(xs, eta, x)
    rho_prime = rho * complex(np.sum(1.0 / (x - xs + eta) - 1.0 / (x - xs - eta)))
    return -g_prime - rho_prime - 2.0 * g / eta


def _on_shell_matrix(params: ChainParams, mu: complex, xs, ys, g, rho) -> np.ndarray:
    """Kernel rows g K(x - y) - rho K(y - x) against the on-shell set,
    followed by |ys| - |xs| moment rows g y^p - rho (y + eta)^p.

    Entries whose column point coincides with their row point take the
    closed-form limit; a column point close to a row point but not
    coincident with it is refused.
    """
    eta = params.eta
    with np.errstate(divide="ignore", invalid="ignore"):
        mat = _kernel_matrix(xs, ys, g, -rho, eta)
    bound = max(abs(eta), np.abs(xs).max(initial=1.0), np.abs(params.xi).max())
    scale = np.maximum(bound, np.abs(ys))
    gaps = np.abs(ys[None, :] - xs[:, None])
    near = gaps < _POLE_TOL * scale
    if np.any(near & (gaps > _COINCIDE_TOL * scale)):
        raise PoleCollisionError(
            "column point ambiguously close to a row point "
            "(neither separated nor coincident)"
        )
    for j, k in zip(*np.nonzero(near)):
        mat[j, k] = _coincident_entry(params, mu, xs, xs[j])
    powers = np.arange(ys.size - xs.size)[:, None]
    return np.vstack([mat, g * ys**powers - rho * (ys + eta) ** powers])


def _normalized_det(mat: np.ndarray, xs, ys, eta: complex) -> complex:
    """pref det(mat) / (V(xs) V(reversed ys)), pref the product of every
    x - y + eta."""
    scale = max(1.0, abs(eta), *np.abs(xs), *np.abs(ys))
    _require_distinct(xs, scale)
    _require_distinct(ys, scale)
    denom = vandermonde(xs) * vandermonde(ys[::-1])
    pref = complex(np.prod(xs[:, None] - ys[None, :] + eta))
    return complex(pref * np.linalg.det(mat) / denom)


def _on_shell_determinant(params: ChainParams, mu: complex, xs, ys) -> complex:
    _require_on_shell(params, mu, xs)
    g, rho = _column_weights(params, mu, xs, ys)
    mat = _on_shell_matrix(params, mu, xs, ys, g, rho)
    return _normalized_det(mat, xs, ys, params.eta)


def slavnov_determinant(params: ChainParams, mu: complex, xs, ys) -> complex:
    """On-shell scalar-product determinant over equal-size point sets.

    Rows are indexed by the on-shell set, columns by the free set.  Row
    points must satisfy the twist-mu Bethe system; coinciding row and
    column points are handled through the closed-form limit entries, so
    the fully coinciding case (a norm) works directly.
    """
    xs = np.asarray(xs, dtype=complex).ravel()
    ys = np.asarray(ys, dtype=complex).ravel()
    if xs.size != ys.size:
        raise ValueError("the two point sets must have equal size")
    return _on_shell_determinant(params, mu, xs, ys)


def gen_slavnov_determinant(params: ChainParams, mu: complex, xs, ys) -> complex:
    """Rectangular extension of the on-shell determinant.

    The free set may exceed the on-shell set by ``s`` points; the matrix
    gains ``s`` rows of moment type: mu E+(y_k; xi) y_k^(p) minus the
    balanced shift ratio times (y_k + eta)^(p) for p = 0..s-1.  With
    equal sizes this reduces exactly to ``slavnov_determinant``.
    """
    xs = np.asarray(xs, dtype=complex).ravel()
    ys = np.asarray(ys, dtype=complex).ravel()
    if ys.size < xs.size:
        raise ValueError("the free set cannot be smaller than the on-shell set")
    return _on_shell_determinant(params, mu, xs, ys)


def gen_slavnov_sign(m: int, s: int) -> int:
    """Sign relating the rectangular determinant to the corresponding
    dressed Vandermonde functional: (-1)^m * (-1)^(s(s+1)/2)."""
    return (-1) ** (m + (s * (s + 1)) // 2)


def lattice_column_determinant(
    params: ChainParams, mu: complex, xs, ys_free, site: int
) -> complex:
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
    through the usual closed-form limits.
    """
    xs = np.asarray(xs, dtype=complex).ravel()
    ys_free = np.asarray(ys_free, dtype=complex).ravel()
    if not 1 <= site <= params.n_sites:
        raise ValueError("site index out of range")
    node = params.xi[site - 1]
    ys = np.append(ys_free, node)
    if ys.size < xs.size:
        raise ValueError("the free set cannot be smaller than the on-shell set")
    _require_on_shell(params, mu, xs)
    g, rho = _column_weights(params, mu, xs, ys_free)
    mat = _on_shell_matrix(params, mu, xs, ys, np.append(g, 1.0), np.append(rho, 0.0))
    residue = complex(np.prod(node - params.xi + params.eta))
    return complex(mu * residue * _normalized_det(mat, xs, ys, params.eta))


def column_substituted_slavnov(
    params: ChainParams, mu: complex, xs, ys, m: int, z: complex
) -> complex:
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
    lattice shift ratio.
    """
    xs = np.asarray(xs, dtype=complex).ravel()
    ys = np.asarray(ys, dtype=complex).ravel()
    if xs.size != ys.size:
        raise ValueError("the two point sets must have equal size")
    if not 1 <= m <= ys.size:
        raise ValueError("column index out of range")
    _require_on_shell(params, mu, xs)
    eta = params.eta
    cols = ys.copy()
    cols[m - 1] = z
    gaps = np.abs(z - params.xi)
    node = int(np.argmin(gaps))
    scale = max(abs(eta), abs(z), np.abs(xs).max(initial=1.0), np.abs(params.xi).max())
    if gaps[node] < _POLE_TOL * scale:
        others = np.delete(params.xi, node)
        residue = mu * complex(np.prod(z - params.xi + eta) / np.prod(z - others))
        g, rho = _column_weights(params, mu, xs, np.delete(ys, m - 1))
        g = np.insert(g, m - 1, residue)
        rho = np.insert(rho, m - 1, 0.0)
    else:
        g, rho = _column_weights(params, mu, xs, cols)
    mat = _on_shell_matrix(params, mu, xs, cols, g, rho)
    return _normalized_det(mat, xs, ys, eta)


def dressed_vandermonde_unbalanced_check(
    mu: complex, xs, ys, eta: complex
) -> tuple[complex, complex]:
    """Both sides of the unequal-size functional relation.

    lhs: the plus functional over the y set weighted by mu times the
    minus shift-ratio product of the x set; rhs: (1 - mu)^(|y| - |x|)
    times the minus functional over the x set weighted by mu times the
    plus shift-ratio product of the y set.  Callers compare the two.
    """
    xs = np.asarray(xs, dtype=complex).ravel()
    ys = np.asarray(ys, dtype=complex).ravel()
    lhs = dressed_vandermonde(ys, eta, mu * shift_ratio(xs, eta, ys, -1), +1)
    rhs_core = dressed_vandermonde(xs, eta, mu * shift_ratio(ys, eta, xs, +1), -1)
    power = ys.size - xs.size
    if power < 0 and mu == 1.0:
        raise ValueError("the shrinking direction needs a twist different from 1")
    rhs = (1.0 - mu) ** power * rhs_core
    return complex(lhs), complex(rhs)


def richardson_limit(evaluator, schedule=None) -> tuple[complex, float]:
    """Polynomial extrapolation of ``evaluator(eps)`` to eps = 0.

    Neville's scheme on a geometric schedule; returns the extrapolated
    value and an error estimate (the size of the final correction).
    Corrections that grow instead of shrinking raise
    ``LimitFailureError``.
    """
    if schedule is None:
        schedule = [1e-2 * 0.5**k for k in range(6)]
    schedule = np.asarray(schedule, dtype=float)
    if schedule.size < 2:
        raise ValueError("extrapolation needs at least two scale points")
    vals = np.array([evaluator(float(e)) for e in schedule], dtype=complex)
    table = vals.copy()
    best = table[-1]
    corrections = []
    for level in range(1, schedule.size):
        new = np.zeros(schedule.size - level, dtype=complex)
        for i in range(new.size):
            e0, e1 = schedule[i], schedule[i + level]
            new[i] = (e0 * table[i + 1] - e1 * table[i]) / (e0 - e1)
        corrections.append(abs(new[-1] - best))
        best = new[-1]
        table = new
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
