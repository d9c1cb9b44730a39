"""Transfer-matrix spectrum through the discrete functional system.

The antiperiodic transfer matrix is diagonalized once at a generic
point; each eigenvalue is promoted to its polynomial in the spectral
parameter by interpolating Rayleigh quotients at the inhomogeneities.
The eigenvalue's leading coefficient fixes the degree of its auxiliary
polynomial, and the T-Q functional equation, collocated at generic
points away from the lattice, is an overdetermined linear system for
the polynomial's other coefficients (the antiperiodic T-Q system of
Niccoli, Nucl. Phys. B 870 (2013), arXiv:1205.4537).  Its roots solve
the Bethe system, for the eigenvalue and for its negative; Newton steps
on the Bethe system polish those roots and the polynomial is rebuilt
from them.  The two auxiliary polynomials of an eigenvalue pair combine
into the average-free decomposition whose Wronskian reproduces the
lower reference polynomial.

``full_spectrum`` runs every stage over all 2^N eigenpairs of a chain
at once: one product of stacked Rayleigh quotients with the nodes'
cardinal-coefficient matrix gives every eigenvalue polynomial; one
least-squares solve per degree (``tq_collocation``, which the
homogeneous stress sweep calls too) gives every auxiliary polynomial of
every eigenvalue and its negative (``solve_q_from_tau`` runs the same
solve on any stack of eigenvalue rows); the roots of each degree come
from one stacked companion eigensolve (``poly_roots``); the roots of
every degree are polished in one Newton loop over one stack padded to
the largest degree, one Bethe-ratio evaluation per iterate and one
batched Jacobian inverse per iteration; the roots of each degree
rebuild their polynomials in one expansion (``poly_from_roots``); every
residual is one array expression over the chain's one probe set, and the
eigenstate check builds one stack of separate states per root count.  The
N + 2 transfer matrices the records read (one per inhomogeneity, one at
the held-out point and one at the eigenstate-check point) are built once
per spectrum, one point at a time, and each is dropped after its one
contraction.

A polynomial is a row of ascending coefficients: each record holds its
eigenvalue and its two auxiliary polynomials as read-only rows of the
stacked coefficient arrays ``full_spectrum`` builds, and ``sectors``
stacks the records of each root count once for the consumers that work
per sector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .chain import ChainParams, a_of, d_of, require_generic
from .dense import (
    default_eval_point,
    diagonalize_transfer,
    transfer_antiperiodic,
)
from .determinants import _bethe_ratios, _columns, _rows, gaudin_matrix
from .errors import PairingError, SpectrumError
from .polynomials import (
    TRIM_TOL,
    cardinal_coefficients,
    poly_from_roots,
    poly_roots,
    poly_values,
)
from .sov import separate_state_dense, spec_from_roots

# largest distance of an eigenvalue's t_{N-1} / eta from the integer 2r - N
_DEGREE_TOL = 1e-6
# a polish stops earlier, at its first step that does not lower the residual
_MAX_NEWTON_STEPS = 8


@dataclass(frozen=True, eq=False)
class EigenRecord:
    """One transfer eigenvalue with its auxiliary-polynomial data.

    ``tau`` (width N), ``q_tau`` and ``q_minus_tau`` (width N + 1) are
    read-only rows of ascending coefficients, zero above each degree;
    ``tau`` is zero exactly where its trailing coefficients fell below
    ``TRIM_TOL`` of its largest.  The two auxiliary polynomials are
    monic; ``bethe_roots`` are the roots of ``q_tau`` and
    ``q_minus_roots`` those of ``q_minus_tau``, both Newton-polished, and
    each polynomial is rebuilt from its roots.
    ``tau_at_nodes`` holds the eigenvalue at each inhomogeneity, the
    values the discrete-system gate checked.  ``chain`` is the chain
    ``full_spectrum`` built the record on.  On first use the record
    builds, once, the twist -1 halves of the on-shell evaluator over its
    Bethe roots on that chain: ``rows`` as an on-shell set (a bra), with
    its gate, and ``columns`` as a free set (a ket); both hold read-only
    arrays.  ``rows_on`` and ``columns_on`` give them to
    ``formfactors.ff_sigma_minus`` and ``scalar.sp_with_eigenstate`` when
    those are called with that very chain, and build fresh halves on any
    other, where the gate refuses roots of another chain.
    ``residuals`` collects the relative residuals of every structural
    check performed while building the record, plus the recovery the
    polish made: ``bethe_unpolished``, the Bethe residual of the roots as
    extracted, and ``newton_steps``, the steps kept on both root sets.
    """

    tau: np.ndarray
    q_tau: np.ndarray
    q_minus_tau: np.ndarray
    bethe_roots: np.ndarray
    q_minus_roots: np.ndarray
    tau_at_nodes: np.ndarray
    chain: ChainParams
    residuals: dict = field(default_factory=dict)

    @property
    def n_roots(self) -> int:
        return self.bethe_roots.size

    @cached_property
    def rows(self):
        """The twist -1 row half of the on-shell evaluator over the Bethe
        roots on ``chain`` (``determinants._rows``), read-only."""
        return _read_only(_rows(self.chain, -1.0, self.bethe_roots))

    @cached_property
    def columns(self):
        """The twist -1 column half over the Bethe roots on ``chain``
        (``determinants._columns``), read-only."""
        return _read_only(_columns(self.chain, -1.0, self.bethe_roots))

    def rows_on(self, params: ChainParams):
        """``rows`` on the record's own chain; on any other chain the half
        is built there, where the on-shell gate refuses roots of another
        chain."""
        if params is self.chain:
            return self.rows
        return _rows(params, -1.0, self.bethe_roots)

    def columns_on(self, params: ChainParams):
        """``columns`` on the record's own chain, built on ``params`` on any
        other."""
        if params is self.chain:
            return self.columns
        return _columns(params, -1.0, self.bethe_roots)


def _read_only(half):
    """A half of the on-shell evaluator whose arrays are read-only views
    (the record's own arrays keep their flags)."""
    views = []
    for value in half:
        if isinstance(value, np.ndarray):
            value = value.view()
            value.setflags(write=False)
        views.append(value)
    return type(half)(*views)


class Sector(NamedTuple):
    """The m records of one root count r, stacked: their indices in the
    record list, Bethe roots (m, r), eigenvalues at the nodes (m, N) and
    ``q_tau`` rows (m, N + 1)."""

    members: np.ndarray
    roots: np.ndarray
    tau_at_nodes: np.ndarray
    q: np.ndarray


def sectors(records) -> dict[int, Sector]:
    """The records grouped by root count, in ascending order of the
    count, each group as one ``Sector`` of read-only arrays."""
    counts = np.array([rec.n_roots for rec in records])
    out = {}
    for r in sorted(set(counts.tolist())):
        members = np.flatnonzero(counts == r)
        group = [records[i] for i in members]
        out[r] = Sector(
            members,
            np.array([rec.bethe_roots for rec in group]).reshape(members.size, r),
            np.array([rec.tau_at_nodes for rec in group]),
            np.array([rec.q_tau for rec in group]),
        )
        for stack in out[r]:
            stack.setflags(write=False)
    return out


def _point_cloud(params: ChainParams, count: int, key) -> np.ndarray:
    """Generic points drawn from the Philox ``key``, scaled to the
    parameter spread."""
    rng = np.random.Generator(np.random.Philox(key=key))
    center = complex(np.mean(params.xi))
    spread = max(1.0, float(np.max(np.abs(params.xi - center))) + abs(params.eta))
    draws = rng.uniform(-1.2, 1.2, size=(count, 2))
    return center + spread * (draws[:, 0] + 1j * draws[:, 1])


def probe_points(params: ChainParams, count: int) -> np.ndarray:
    """Deterministic generic probe points scaled to the parameter spread."""
    return _point_cloud(params, count, 777)


def _tq_residuals(params: ChainParams, tau_values, q_coeffs, points) -> np.ndarray:
    """Largest relative residual of tau(z) q(z) + a(z) q(z - eta) -
    d(z) q(z + eta) over the points, for each row of a stack of
    eigenvalue values (rows of ``tau_values``) and auxiliary polynomials
    (rows of ``q_coeffs``)."""
    points = np.asarray(points, dtype=complex)
    eta = params.eta
    t1 = tau_values * poly_values(q_coeffs, points)
    t2 = a_of(params, points) * poly_values(q_coeffs, points - eta)
    t3 = d_of(params, points) * poly_values(q_coeffs, points + eta)
    scale = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), np.abs(t3))
    return np.max(np.abs(t1 + t2 - t3) / np.maximum(scale, 1e-300), axis=-1)


class _QSolution(NamedTuple):
    """One auxiliary solve: its polished roots, their worst Bethe residual
    before and after the polish, the steps kept and the rebuilt
    polynomial's functional residual at the probe points."""

    roots: np.ndarray
    bethe_unpolished: float
    bethe: float
    newton_steps: int
    functional: float = 0.0


def _polish(params: ChainParams, roots: np.ndarray, real: np.ndarray):
    """Newton steps on the logarithmic Bethe system for a padded stack of
    root sets: row k holds its set's roots where ``real[k]`` is True,
    first, then pads.  Returns the polished rows, the worst Bethe
    residual of each set before and after, and the number of steps kept
    per set; a set without roots takes no step.

    The Bethe system is F_m = 1 with F the ratios of ``_bethe_ratios``;
    the Jacobian of log F is ``gaudin_matrix`` G, so Newton's step for
    1 - 1/F = 0 is G^-1 (F - 1).  F is evaluated once per iterate, over
    every set still stepping: a kept trial's F - 1 is the next step's,
    and |F - 1| its residual.  A pad reads F = 1 and has an identity row
    in G, so it takes a zero step, and it enters no set's pole bound or
    guards; each pad repeats its set's first root, off every pole.  A set
    stops at the first step that does not lower its worst residual, and
    that step is dropped, so no set leaves worse than it came in.  The
    Jacobians are at most N x N and well conditioned at simple roots, and
    the corrections are of the roots' own rounding size, so one batched
    inverse per step resolves them.
    """
    roots = np.where(real, roots, roots[:, :1])
    raw = np.zeros(roots.shape[0])
    steps = np.zeros(roots.shape[0], dtype=int)
    active = np.flatnonzero(real.any(axis=-1))
    excess = _bethe_ratios(params, -1.0, roots[active], real[active]) - 1.0
    raw[active] = np.abs(excess).max(axis=-1, initial=0.0)
    worst = raw.copy()
    going = raw[active] > 0.0
    active, excess = active[going], excess[going]
    for _ in range(_MAX_NEWTON_STEPS):
        if active.size == 0:
            break
        current, mask = roots[active], real[active]
        jac_inv = np.linalg.inv(gaudin_matrix(params, current, mask))
        trial = current - (jac_inv @ excess[..., None])[..., 0]
        with np.errstate(all="ignore"):
            trial_excess = _bethe_ratios(params, -1.0, trial, mask) - 1.0
            trial_worst = np.abs(trial_excess).max(axis=-1)
        better = trial_worst < worst[active]
        kept = active[better]
        roots[kept] = trial[better]
        worst[kept] = trial_worst[better]
        steps[kept] += 1
        going = worst[kept] > 0.0
        active = kept[going]
        excess = trial_excess[better][going]
    return roots, raw, worst, steps


def _polished(
    params: ChainParams, q: np.ndarray, degrees: np.ndarray
) -> tuple[np.ndarray, list[_QSolution]]:
    """Roots of each row of a stack of monic polynomials (ascending
    coefficients, zero-padded above each row's ``degrees`` entry), else
    ``SpectrumError``: one ``poly_roots`` per degree, then one ``_polish``
    of every row's roots, padded to the largest degree, then one
    ``poly_from_roots`` rebuild from the polished roots per degree.
    Returns the rebuilt rows, padded like ``q``, and one ``_QSolution``
    per row."""
    groups = [(r, np.flatnonzero(degrees == r)) for r in sorted(set(degrees.tolist()))]
    real = np.arange(degrees.max(initial=0)) < degrees[:, None]
    roots = np.zeros(real.shape, dtype=complex)
    for r, members in groups:
        roots[members, :r] = poly_roots(q[members, : r + 1])
    polished, raw, worst, steps = _polish(params, roots, real)
    rebuilt = np.zeros_like(q)
    for r, members in groups:
        try:
            rebuilt[members, : r + 1] = poly_from_roots(polished[members, :r])
        except ValueError as exc:
            raise SpectrumError(
                f"auxiliary polynomials {members.tolist()}: {exc}"
            ) from exc
    out = [
        _QSolution(polished[k, :r], float(raw[k]), float(worst[k]), int(steps[k]))
        for k, r in enumerate(degrees.tolist())
    ]
    return rebuilt, out


def tq_collocation(
    params: ChainParams, tau_values, points, degrees
) -> np.ndarray:
    """Monic auxiliary polynomials by T-Q collocation.

    Row k of ``tau_values`` holds an eigenvalue's values at the
    ``points``, and ``degrees[k]`` is the degree r of its auxiliary
    polynomial Q.  The functional equation
    tau(z) Q(z) + a(z) Q(z - eta) - d(z) Q(z + eta) = 0 is linear in Q's
    coefficients: at a point z, coefficient k multiplies
    tau(z) z^k + a(z) (z - eta)^k - d(z) (z + eta)^k.  With the top
    coefficient fixed to 1, every point gives one equation in the r
    others; each equation is equilibrated and each group of equal
    degree is solved in one batched least-squares solve (QR).  Degree 0
    needs no solve: Q = 1.  Returns one row of ascending coefficients per
    system, zero-padded to N + 1.

    The system never touches the inhomogeneities, so it stays well posed
    as they cluster.
    """
    tau_values = np.asarray(tau_values, dtype=complex)
    points = np.asarray(points, dtype=complex)
    degrees = np.asarray(degrees, dtype=int)
    eta = params.eta
    powers = np.arange(params.n_sites + 1)
    z = points[:, None]
    shifted = (
        a_of(params, points)[:, None] * (z - eta) ** powers
        - d_of(params, points)[:, None] * (z + eta) ** powers
    )
    q = np.zeros((degrees.size, powers.size), dtype=complex)
    q[np.arange(degrees.size), degrees] = 1.0
    # not np.unique: its first call imports numpy.ma, about 10 ms of a
    # fresh process, more than the whole solve at N = 4
    for r in sorted(set(degrees.tolist()) - {0}):
        members = np.flatnonzero(degrees == r)
        rows = tau_values[members, :, None] * z ** powers[: r + 1] + shifted[:, : r + 1]
        rows /= np.abs(rows).max(axis=-1, keepdims=True)
        basis, tri = np.linalg.qr(rows[..., :r])
        rhs = -(basis.conj().swapaxes(-1, -2) @ rows[..., r:])
        q[members, :r] = np.linalg.solve(tri, rhs)[..., 0]
    return q


def _degrees(params: ChainParams, tau_coeffs: np.ndarray) -> np.ndarray:
    """Auxiliary degree r of each eigenvalue polynomial (rows of ascending
    coefficients, zero-padded to N), read off the leading coefficient
    t_{N-1} = (2r - N) eta of the functional equation at infinity; r must
    be an integer in [0, N], else ``SpectrumError``."""
    n = params.n_sites
    twice = tau_coeffs[:, n - 1] / params.eta + n
    degrees = np.rint(twice.real / 2.0).astype(int)
    bad = (np.abs(twice - 2 * degrees) > _DEGREE_TOL) | (degrees < 0) | (degrees > n)
    if bad.any():
        k = int(np.argmax(bad))
        raise SpectrumError(
            f"eigenvalue polynomial {k} has leading coefficient "
            f"{complex(tau_coeffs[k, n - 1]):.6g}, which is (2r - {n}) eta for "
            "no integer degree r in [0, N]"
        )
    return degrees


def _solve_q_stack(
    params: ChainParams, tau_coeffs: np.ndarray, probes: np.ndarray, seed: int
) -> tuple[np.ndarray, list[_QSolution]]:
    """Monic auxiliary polynomials of a stack of eigenvalue polynomials
    (rows of ascending coefficients, zero-padded to N).

    Each degree is read off the leading coefficient (``_degrees``); the
    polynomials are solved by ``tq_collocation`` at 2N + 2 points drawn
    from the Philox key ``[seed, 0xA5F0]``; their roots are polished by
    Newton steps on the Bethe system (``_polished``) and each polynomial
    is rebuilt from its roots, so polynomial and roots are one set.  The
    rebuilt polynomial must then satisfy the functional equation to
    relative 1e-8 at the probe points, else ``SpectrumError``.  Returns
    the rebuilt rows (zero-padded to N + 1) and one ``_QSolution`` each.
    """
    n = params.n_sites
    points = _point_cloud(params, 2 * n + 2, [seed, 0xA5F0])
    degrees = _degrees(params, tau_coeffs)
    q = tq_collocation(params, poly_values(tau_coeffs, points), points, degrees)
    rebuilt, solutions = _polished(params, q, degrees)
    resid = _tq_residuals(params, poly_values(tau_coeffs, probes), rebuilt, probes)
    worst = resid.max(initial=0.0)
    # NaN fails this comparison
    if not worst <= 1e-8:
        raise SpectrumError(
            f"auxiliary polynomial {int(np.argmax(resid))} failed the "
            f"functional gate (residual {worst:.3e})"
        )
    solutions = [sol._replace(functional=float(r)) for sol, r in zip(solutions, resid)]
    return rebuilt, solutions


def solve_q_from_tau(params: ChainParams, taus, seed: int = 0) -> np.ndarray:
    """Monic auxiliary polynomial of each eigenvalue polynomial in
    ``taus`` (finite coefficient rows of width N, else ``SpectrumError``),
    one row of width N + 1 each, in one stacked solve (``_solve_q_stack``):
    T-Q collocation at points drawn from ``seed``, Newton polish, and the
    functional gate at the chain's probe points."""
    require_generic(params)
    n = params.n_sites
    taus = np.asarray(taus, dtype=complex)
    if taus.ndim != 2 or taus.shape[1] != n or not np.isfinite(taus).all():
        raise SpectrumError(f"eigenvalue polynomials must be finite rows of width {n}")
    return _solve_q_stack(params, taus, probe_points(params, 2 * n + 2), seed)[0]


def _tau_stack(
    params: ChainParams, rights: np.ndarray, lefts: np.ndarray
) -> np.ndarray:
    """Eigenvalue polynomials of every biorthogonal eigenvector pair
    (columns of ``rights``, rows of ``lefts``), one coefficient row of
    width N each.

    The Rayleigh quotients at the inhomogeneities determine each
    polynomial (degree at most one less than the chain length) through
    one product with the nodes' cardinal-coefficient matrix.  A row that
    is not finite raises ``SpectrumError``; trailing coefficients below
    ``TRIM_TOL`` of a row's largest are noise and set to zero.  A
    held-out quotient at a generic point must agree to relative 1e-9.
    """
    pairing = np.einsum("kd,dk->k", lefts, rights)
    scale = np.linalg.norm(lefts, axis=1) * np.linalg.norm(rights, axis=0)
    if np.any(np.abs(pairing) < 1e-12 * scale):
        raise PairingError("left/right eigenvectors are numerically orthogonal")
    # one point at a time, transfer matrix and product both: a stack over
    # the points holds all four monodromy entries at every point, which
    # at N = 8 lifts the peak resident memory of the oracle, sov and
    # spectrum suites from 75 to 145 MB
    at_nodes = np.stack(
        [
            np.einsum("kd,dk->k", lefts, transfer_antiperiodic(params, x) @ rights)
            for x in params.xi
        ],
        axis=1,
    )
    taus = (at_nodes / pairing[:, None]) @ cardinal_coefficients(params.xi)
    if not np.isfinite(taus).all():
        raise SpectrumError("an eigenvalue polynomial has non-finite coefficients")
    big = np.abs(taus) > TRIM_TOL * np.abs(taus).max(axis=-1, keepdims=True)
    taus[~np.logical_or.accumulate(big[:, ::-1], axis=-1)[:, ::-1]] = 0.0
    held = default_eval_point(params, 3)
    at_held = transfer_antiperiodic(params, held)
    direct = np.einsum("kd,dk->k", lefts, at_held @ rights) / pairing
    interpolated = poly_values(taus, [held])[:, 0]
    if np.any(np.abs(interpolated - direct) > 1e-9 * np.maximum(1.0, np.abs(direct))):
        raise SpectrumError(
            "interpolated eigenvalue polynomial failed the held-out check"
        )
    return taus


def _pq_residuals(
    params: ChainParams, tau_at_probes, q_tau, q_minus, tau_is_lower, probes
) -> tuple[np.ndarray, np.ndarray]:
    """Wronskian and reconstruction residuals of every eigenvalue pair's
    average-free decomposition, over the probe points.

    Per pair, the lower-degree auxiliary polynomial is q (``q_tau`` where
    ``tau_is_lower``) and the other p; p is scaled so that the Wronskian
    (p(z) q(z - eta) + q(z) p(z - eta))/2 equals d at the probe point
    where d is largest, and the Wronskian must then reproduce d at every
    probe point.  The reconstruction
    (p(z - eta) q(z + eta) - q(z - eta) p(z + eta))/2 must reproduce the
    eigenvalue up to one overall sign, the better of the two.
    """
    eta = params.eta
    q = np.where(tau_is_lower[:, None], q_tau, q_minus)
    p = np.where(tau_is_lower[:, None], q_minus, q_tau)
    p_m, p_0, p_p = (poly_values(p, probes + h) for h in (-eta, 0.0, eta))
    q_m, q_0, q_p = (poly_values(q, probes + h) for h in (-eta, 0.0, eta))
    d_vals = d_of(params, probes)
    anchor = np.argmax(np.abs(d_vals))
    wron = 0.5 * (p_0 * q_m + q_0 * p_m)
    p_scale = (d_vals[anchor] / wron[:, anchor])[:, None]
    wron = p_scale * wron
    wron_res = np.abs(wron - d_vals) / np.maximum(
        np.maximum(np.abs(d_vals), np.abs(wron)), 1e-300
    )
    rec = 0.5 * p_scale * (p_m * q_p - q_m * p_p)
    floor = np.maximum(np.maximum(np.abs(tau_at_probes), np.abs(rec)), 1e-300)
    rec_res = np.minimum(
        (np.abs(rec - tau_at_probes) / floor).max(axis=-1),
        (np.abs(rec + tau_at_probes) / floor).max(axis=-1),
    )
    return wron_res.max(axis=-1), rec_res


def pairing_indices(records: list[EigenRecord]) -> list[int]:
    """For each record, the index of the first record carrying the negated
    eigenvalue polynomial, of equal length up to its last nonzero
    coefficient; raises ``SpectrumError`` when a partner is missing."""
    coeffs = np.array([rec.tau for rec in records])
    lengths = np.arange(1, coeffs.shape[-1] + 1) * (coeffs != 0)
    sizes = lengths.max(axis=-1, initial=1)
    scale = np.maximum(np.abs(coeffs).max(axis=-1), 1.0)
    gap = np.zeros((len(records), len(records)))
    for column in coeffs.T:
        gap = np.maximum(gap, np.abs(column[:, None] + column[None, :]))
    negated = (gap <= 1e-9 * scale[:, None]) & (sizes[:, None] == sizes[None, :])
    missing = np.flatnonzero(~negated.any(axis=-1))
    if missing.size:
        raise SpectrumError(f"no negated partner for eigenvalue record {missing[0]}")
    return [int(j) for j in np.argmax(negated, axis=-1)]


def full_spectrum(params: ChainParams, seed: int = 0) -> list[EigenRecord]:
    """All 2^N spectrum records, gated, paired and deterministically sorted.

    Every stage runs over all eigenpairs at once: eigenvalue polynomials
    from stacked Rayleigh quotients, the discrete-system gate, one stacked
    auxiliary solve for every eigenvalue and its negative (degrees read
    off the leading coefficients, T-Q collocation at points drawn from
    ``seed``, roots polished there), and the T-Q, Bethe, Wronskian,
    reconstruction and eigenstate residuals, all on the chain's one probe
    set.  The degrees of an eigenvalue and its negative sum to N by
    construction.
    """
    require_generic(params)
    n = params.n_sites
    eta = params.eta
    rights, lefts = diagonalize_transfer(params)
    probes = probe_points(params, 2 * n + 2)
    tau_coeffs = _tau_stack(params, rights, lefts)
    at_xi = poly_values(tau_coeffs, params.xi)
    prod_ad = params.a_at_nodes * d_of(params, params.xi - eta)
    ds_res = np.max(
        np.abs(at_xi * poly_values(tau_coeffs, params.xi - eta) + prod_ad)
        / np.maximum(np.abs(prod_ad), 1e-300),
        axis=-1,
    )
    if ds_res.max() > 1e-9:
        raise SpectrumError(f"discrete-system residual {ds_res.max():.3e} too large")
    at_probes = poly_values(tau_coeffs, probes)
    q, solutions = _solve_q_stack(
        params, np.concatenate([tau_coeffs, -tau_coeffs]), probes, seed
    )
    # the records hold rows of these, and every consumer shares them
    for rows in (tau_coeffs, at_xi, q):
        rows.setflags(write=False)
    count = len(tau_coeffs)
    plus, minus = solutions[:count], solutions[count:]
    q_plus, q_minus = q[:count], q[count:]
    wron_res, rec_res = _pq_residuals(
        params,
        at_probes,
        q_plus,
        q_minus,
        np.array([2 * sol.roots.size <= n for sol in plus]),
        probes,
    )
    # eigenvector property of the separate states built on the roots, one
    # stacked state build per root count
    counts = np.array([sol.roots.size for sol in plus])
    vecs = np.empty((count, params.dim), dtype=complex)
    for r in sorted(set(counts.tolist())):
        members = np.flatnonzero(counts == r)
        roots = np.array([plus[i].roots for i in members]).reshape(members.size, r)
        vecs[members] = separate_state_dense(
            params, spec_from_roots(params, roots, "right")
        )
    check = default_eval_point(params, 1)
    at_check = poly_values(tau_coeffs, [check])
    eig_res = np.linalg.norm(
        vecs @ transfer_antiperiodic(params, check).T - at_check * vecs, axis=-1
    ) / (np.abs(at_check[:, 0]) * np.linalg.norm(vecs, axis=-1))
    records = [
        EigenRecord(
            tau=tau_coeffs[k],
            q_tau=q_plus[k],
            q_minus_tau=q_minus[k],
            bethe_roots=up.roots,
            q_minus_roots=down.roots,
            tau_at_nodes=at_xi[k],
            chain=params,
            residuals={
                "discrete_system": float(ds_res[k]),
                "functional_tq": up.functional,
                "bethe": up.bethe,
                "bethe_unpolished": up.bethe_unpolished,
                "newton_steps": up.newton_steps + down.newton_steps,
                "wronskian": float(wron_res[k]),
                "reconstruction": float(rec_res[k]),
                "eigenstate": float(eig_res[k]),
            },
        )
        for k, (up, down) in enumerate(zip(plus, minus))
    ]
    lam_ref = default_eval_point(params, 0)
    vals = poly_values(tau_coeffs, [lam_ref])[:, 0]
    diff = np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(diff, np.inf)
    if np.min(diff) <= 1e-9 * max(1.0, float(np.max(np.abs(vals)))):
        raise SpectrumError("extracted eigenvalue polynomials are not distinct")
    pairing_indices(records)
    order = sorted(
        range(len(records)),
        key=lambda k: (round(vals[k].real, 9), round(vals[k].imag, 9)),
    )
    return [records[k] for k in order]
