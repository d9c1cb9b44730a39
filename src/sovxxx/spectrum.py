"""Transfer-matrix spectrum through the discrete functional system.

The antiperiodic transfer matrix is diagonalized once at a generic
point; each eigenvalue is promoted to its polynomial in the spectral
parameter by interpolating Rayleigh quotients at the inhomogeneities.
A well-posed linear system on the inhomogeneity lattice (plus one
auxiliary node fixing the overall scale) then produces the auxiliary
polynomial whose roots solve the Bethe system, for the eigenvalue and
for its negative; the two auxiliary polynomials of an eigenvalue pair
combine into the average-free decomposition whose Wronskian reproduces
the lower reference polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import ChainParams, a_of, d_of, require_generic
from .dense import (
    default_eval_point,
    diagonalize_transfer,
    transfer_antiperiodic,
)
from .determinants import mu_bethe_residuals
from .errors import PairingError, SpectrumError
from .polynomials import (
    ComplexPoly,
    effective_degree,
    lagrange_interpolate,
    poly_roots,
    truncate_to_degree,
)
from .sov import separate_state_dense, spec_from_roots

_MAX_Q_RETRIES = 8
_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class EigenRecord:
    """One transfer eigenvalue with its auxiliary-polynomial data.

    ``q_tau`` and ``q_minus_tau`` are monic; ``bethe_roots`` are the
    roots of ``q_tau`` and ``q_minus_roots`` those of ``q_minus_tau``.
    ``residuals`` collects the relative residuals of every structural
    check performed while building the record.
    """

    tau: ComplexPoly
    q_tau: ComplexPoly
    q_minus_tau: ComplexPoly
    bethe_roots: np.ndarray
    q_minus_roots: np.ndarray
    residuals: dict = field(default_factory=dict)

    @property
    def n_roots(self) -> int:
        return self.bethe_roots.size


@dataclass(frozen=True, eq=False)
class PQData:
    """Average-free decomposition of an eigenvalue pair: the lower- and
    higher-degree auxiliary polynomials, the overall sign in the
    eigenvalue reconstruction, and the residuals of the Wronskian
    normalization and of the reconstruction itself."""

    q: ComplexPoly
    p: ComplexPoly
    sign: int
    wronskian_residual: float
    reconstruction_residual: float


def probe_points(params: ChainParams, count: int, seed: int = 777) -> np.ndarray:
    """Deterministic generic probe points scaled to the parameter spread."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    center = complex(np.mean(params.xi))
    spread = max(1.0, float(np.max(np.abs(params.xi - center))) + abs(params.eta))
    draws = rng.uniform(-1.2, 1.2, size=(count, 2))
    return center + spread * (draws[:, 0] + 1j * draws[:, 1])


@dataclass(frozen=True, eq=False)
class SpectrumTransfers:
    """The antiperiodic transfer matrices every record of one spectrum
    reads, built once: at the inhomogeneities and at the held-out point
    (``extract_tau``), and at the eigenstate-check point
    (``build_record``)."""

    at_nodes: tuple[np.ndarray, ...]
    held_point: complex
    at_held: np.ndarray
    check_point: complex
    at_check: np.ndarray


def spectrum_transfers(params: ChainParams) -> SpectrumTransfers:
    held = default_eval_point(params, 3)
    check = default_eval_point(params, 1)
    return SpectrumTransfers(
        at_nodes=tuple(transfer_antiperiodic(params, x) for x in params.xi),
        held_point=held,
        at_held=transfer_antiperiodic(params, held),
        check_point=check,
        at_check=transfer_antiperiodic(params, check),
    )


def extract_tau(
    params: ChainParams,
    right: np.ndarray,
    left: np.ndarray,
    transfers: SpectrumTransfers,
) -> ComplexPoly:
    """Eigenvalue polynomial from one biorthogonal eigenvector pair.

    Rayleigh quotients at the inhomogeneities determine the polynomial
    (degree at most one less than the chain length) by interpolation;
    a held-out quotient at a generic point must agree to relative 1e-9.
    """
    pairing = complex(np.dot(left, right))
    scale = np.linalg.norm(left) * np.linalg.norm(right)
    if abs(pairing) < 1e-12 * scale:
        raise PairingError("left/right eigenvectors are numerically orthogonal")
    values = [
        complex(np.dot(left, tmat @ right)) / pairing for tmat in transfers.at_nodes
    ]
    tau = lagrange_interpolate(params.xi, values)
    held = transfers.held_point
    direct = complex(np.dot(left, transfers.at_held @ right)) / pairing
    if abs(tau(held) - direct) > 1e-9 * max(1.0, abs(direct)):
        raise SpectrumError(
            "interpolated eigenvalue polynomial failed the held-out check"
        )
    return tau


def check_discrete_system(params: ChainParams, tau: ComplexPoly) -> float:
    """Largest relative residual of the bilinear eigenvalue conditions
    tau(xi_n) tau(xi_n - eta) + a(xi_n) d(xi_n - eta) = 0."""
    worst = 0.0
    for x in params.xi:
        prod_ad = a_of(params, x) * d_of(params, x - params.eta)
        res = tau(x) * tau(x - params.eta) + prod_ad
        worst = max(worst, float(abs(res) / max(abs(prod_ad), 1e-300)))
    return worst


def tq_functional_residual(
    params: ChainParams, tau_values, q: ComplexPoly, points
) -> float:
    """Largest relative residual of the functional equation
    tau(z) q(z) + a(z) q(z - eta) - d(z) q(z + eta) = 0 over ``points``,
    given the eigenvalue's values ``tau_values`` there."""
    points = np.asarray(points, dtype=complex)
    eta = params.eta
    t1 = tau_values * q(points)
    t2 = a_of(params, points) * q(points - eta)
    t3 = d_of(params, points) * q(points + eta)
    scale = np.maximum(np.abs([t1, t2, t3]).max(axis=0), 1e-300)
    return float(np.max(np.abs(t1 + t2 - t3) / scale))


def _negated(poly: ComplexPoly) -> ComplexPoly:
    return ComplexPoly(-poly.coeffs)


def solve_q_from_tau(
    params: ChainParams, tau: ComplexPoly, seed: int = 0
) -> ComplexPoly:
    """Monic auxiliary polynomial of an eigenvalue polynomial.

    Values at the inhomogeneities solve an N x N linear system built
    from Lagrange cardinal polynomials on the inhomogeneities plus one
    auxiliary node, where the unknown is normalized to 1; the full
    polynomial is then interpolated, its noise-level leading
    coefficients trimmed, and the result validated against the
    functional equation at fresh probe points.  Ill-conditioned systems
    and vanishing values at the inhomogeneities trigger a retry with a
    new auxiliary node; persistent failure raises ``SpectrumError``.
    """
    require_generic(params)
    n = params.n_sites
    xi = params.xi
    eta = params.eta
    margin = params.margin if params.margin > 0 else 0.3 * abs(eta)
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xA5F0]))
    center = complex(np.mean(xi))
    spread = max(1.0, float(np.max(np.abs(xi - center))) + abs(eta))
    probes = probe_points(params, 2 * n + 2)
    failures: list[str] = []
    for _ in range(_MAX_Q_RETRIES):
        draw = rng.uniform(-2.0, 2.0, size=2)
        aux = center + spread * complex(draw[0], draw[1])
        seps = [abs(aux - x - h * eta) for x in xi for h in (-1, 0, 1)]
        if min(seps) < margin:
            failures.append("auxiliary node too close to the lattice")
            continue
        nodes = np.append(xi, aux)

        def cardinal(b: int, z: complex) -> complex:
            others = np.delete(nodes, b)
            return complex(np.prod((z - others) / (nodes[b] - others)))

        mat = np.zeros((n, n), dtype=complex)
        rhs = np.zeros(n, dtype=complex)
        for a in range(n):
            z = xi[a] - eta
            for b in range(n):
                mat[a, b] = cardinal(b, z)
            mat[a, a] += tau(xi[a]) / a_of(params, xi[a])
            rhs[a] = -cardinal(n, z)
        if np.linalg.cond(mat) > _COND_LIMIT:
            failures.append("linear system ill-conditioned")
            continue
        values = np.append(np.linalg.solve(mat, rhs), 1.0)
        if not np.all(np.isfinite(values)):
            failures.append("solved values are not finite")
            continue
        raw = lagrange_interpolate(nodes, values)
        degree = effective_degree(raw, tol=1e-8)
        if degree < 0:
            failures.append("solved polynomial vanished identically")
            continue
        q = truncate_to_degree(raw, degree).monic()
        at_xi = np.abs(np.asarray(q(xi), dtype=complex))
        if np.min(at_xi) <= 1e-8 * np.max(at_xi):
            failures.append("auxiliary polynomial vanished at an inhomogeneity")
            continue
        resid = tq_functional_residual(params, tau(probes), q, probes)
        if resid > 1e-8:
            failures.append(f"functional residual {resid:.3e}")
            continue
        return q
    raise SpectrumError(
        "auxiliary-polynomial solve failed after retries: " + "; ".join(failures[-3:])
    )


def _pq_from_polys(
    params: ChainParams, tau: ComplexPoly, q_tau: ComplexPoly, q_minus: ComplexPoly
) -> PQData:
    n = params.n_sites
    eta = params.eta
    if q_tau.degree <= q_minus.degree:
        q, p = q_tau, q_minus
    else:
        q, p = q_minus, q_tau
    if q.degree > n // 2:
        raise SpectrumError(
            f"lower auxiliary degree {q.degree} exceeds the admissible bound {n // 2}"
        )
    probes = probe_points(params, 2 * n, seed=778)
    # fix the joint scale through the Wronskian normalization at the probe
    # point where the reference polynomial is largest
    anchor = max(probes, key=lambda z: abs(d_of(params, z)))
    wron = 0.5 * (p(anchor) * q(anchor - eta) + q(anchor) * p(anchor - eta))
    scale_fix = d_of(params, anchor) / wron
    p = p.scaled(scale_fix)
    wron_res = 0.0
    for z in probes:
        w = 0.5 * (p(z) * q(z - eta) + q(z) * p(z - eta))
        dz = d_of(params, z)
        wron_res = max(wron_res, float(abs(w - dz) / max(abs(dz), abs(w), 1e-300)))
    # determine the sign of the eigenvalue reconstruction
    best_sign, best_res = 1, np.inf
    for sign in (1, -1):
        rec_res = 0.0
        for z in probes:
            w = 0.5 * sign * (p(z - eta) * q(z + eta) - q(z - eta) * p(z + eta))
            tz = tau(z)
            rec_res = max(rec_res, float(abs(w - tz) / max(abs(tz), abs(w), 1e-300)))
        if rec_res < best_res:
            best_sign, best_res = sign, rec_res
    return PQData(
        q=q,
        p=p,
        sign=best_sign,
        wronskian_residual=wron_res,
        reconstruction_residual=best_res,
    )


def build_record(
    params: ChainParams,
    right: np.ndarray,
    left: np.ndarray,
    transfers: SpectrumTransfers,
    seed: int = 0,
) -> EigenRecord:
    """Full record for one eigenvector pair, with every structural gate."""
    n = params.n_sites
    tau = extract_tau(params, right, left, transfers)
    ds_res = check_discrete_system(params, tau)
    if ds_res > 1e-9:
        raise SpectrumError(f"discrete-system residual {ds_res:.3e} too large")
    q_tau = solve_q_from_tau(params, tau, seed=seed)
    q_minus = solve_q_from_tau(params, _negated(tau), seed=seed)
    if q_tau.degree + q_minus.degree != n:
        raise SpectrumError(
            "auxiliary degrees of an eigenvalue pair must sum to the chain length"
        )
    roots = poly_roots(q_tau) if q_tau.degree > 0 else np.zeros(0, dtype=complex)
    mroots = poly_roots(q_minus) if q_minus.degree > 0 else np.zeros(0, dtype=complex)
    b_res = mu_bethe_residuals(params, -1.0, roots)
    probes = probe_points(params, 2 * n + 2)
    func_res = tq_functional_residual(params, tau(probes), q_tau, probes)
    pq = _pq_from_polys(params, tau, q_tau, q_minus)
    # eigenvector property of the separate state built on the auxiliary values
    vec = separate_state_dense(params, spec_from_roots(params, roots, "right"))
    lam_ref = transfers.check_point
    eig_res = float(
        np.linalg.norm(transfers.at_check @ vec - tau(lam_ref) * vec)
        / (abs(tau(lam_ref)) * np.linalg.norm(vec))
    )
    residuals = {
        "discrete_system": ds_res,
        "functional_tq": func_res,
        "bethe": float(b_res.max(initial=0.0)),
        "wronskian": pq.wronskian_residual,
        "eigenstate": eig_res,
    }
    return EigenRecord(
        tau=tau,
        q_tau=q_tau,
        q_minus_tau=q_minus,
        bethe_roots=roots,
        q_minus_roots=mroots,
        residuals=residuals,
    )


def pairing_indices(records: list[EigenRecord]) -> list[int]:
    """For each record, the index of the record carrying the negated
    eigenvalue polynomial; raises ``SpectrumError`` when a partner is
    missing."""
    out = []
    for i, rec in enumerate(records):
        coeffs = rec.tau.coeffs
        scale = float(np.max(np.abs(coeffs)))
        partner = -1
        for j, other in enumerate(records):
            oc = other.tau.coeffs
            if oc.size != coeffs.size:
                continue
            if np.max(np.abs(oc + coeffs)) <= 1e-9 * max(scale, 1.0):
                partner = j
                break
        if partner < 0:
            raise SpectrumError(f"no negated partner for eigenvalue record {i}")
        out.append(partner)
    return out


def full_spectrum(params: ChainParams, seed: int = 0) -> list[EigenRecord]:
    """All 2^N spectrum records, gated, paired and deterministically sorted."""
    require_generic(params)
    triples = diagonalize_transfer(params)
    transfers = spectrum_transfers(params)
    records = [build_record(params, r, l, transfers, seed=seed) for _, r, l in triples]
    lam_ref = default_eval_point(params, 0)
    vals = np.array([rec.tau(lam_ref) for rec in records])
    diff = np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(diff, np.inf)
    if np.min(diff) <= 1e-9 * max(1.0, float(np.max(np.abs(vals)))):
        raise SpectrumError("extracted eigenvalue polynomials are not distinct")
    pairing_indices(records)
    records.sort(
        key=lambda rec: (
            round(rec.tau(lam_ref).real, 9),
            round(rec.tau(lam_ref).imag, 9),
        )
    )
    return records
