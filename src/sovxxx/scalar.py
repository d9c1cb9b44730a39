"""Scalar products of separate states in determinant form.

A left and a right separate state pair into a single N x N determinant
over the inhomogeneity lattice; when the weight functions are monic
polynomials the same pairing collapses to dressed Vandermonde
functionals over the root sets, to a domain-wall determinant when the
root counts saturate the chain length, and to on-shell determinants
when one factor is a transfer eigenstate.  Each closed form is exposed
separately so they can be cross-validated against the dense pairing and
against one another; the norm of an eigenstate gets its dedicated
derivative-matrix determinant.
"""

from __future__ import annotations

import numpy as np

from .chain import (
    ChainParams,
    a_of,
    d_of,
    log_derivative_a,
    log_derivative_d,
    vandermonde,
)
from .determinants import (
    dressed_vandermonde,
    gen_slavnov_determinant,
    gen_slavnov_sign,
    izergin_determinant,
    izergin_determinant_clustered,
    shift_ratio,
    slavnov_determinant,
)
from .dense import diagonalize_transfer, transfer_antiperiodic
from .errors import LimitFailureError, PoleCollisionError, SpectrumError
from .polynomials import ComplexPoly, poly_roots
from .sov import SeparateStateSpec, bilinear, separate_state_dense, spec_from_roots
from .spectrum import EigenRecord, bethe_residuals


def sp_dense(
    params: ChainParams, left_spec: SeparateStateSpec, right_spec: SeparateStateSpec
) -> complex:
    """Reference pairing: build both dense vectors and contract them."""
    return bilinear(
        separate_state_dense(params, left_spec),
        separate_state_dense(params, right_spec),
    )


def raw_pairing_matrix(
    params: ChainParams, left_spec: SeparateStateSpec, right_spec: SeparateStateSpec
) -> np.ndarray:
    """The N x N lattice matrix whose determinant gives the pairing.

    Row a sums the two occupation branches of site a: the plain power
    row at xi_a weighted by both functions there, plus the power row at
    xi_a - eta weighted by both functions there, the right one dressed
    by -a(xi_a)/d(xi_a - eta).  Its rows degenerate together with the
    lattice, which is what the conditioning sweep measures.
    """
    if left_spec.side != "left" or right_spec.side != "right":
        raise ValueError("the raw pairing matrix pairs a left spec with a right spec")
    n = params.n_sites
    if left_spec.values_at_xi.size != n or right_spec.values_at_xi.size != n:
        raise ValueError("separate-state values must cover every site")
    xi = params.xi
    eta = params.eta
    dressing = -a_of(params, xi) / d_of(params, xi - eta)
    w_top = left_spec.values_at_xi * right_spec.values_at_xi
    w_bot = (
        left_spec.values_at_xi_minus_eta
        * dressing
        * right_spec.values_at_xi_minus_eta
    )
    powers = np.arange(n)
    return (
        xi[:, None] ** powers[None, :] * w_top[:, None]
        + (xi - eta)[:, None] ** powers[None, :] * w_bot[:, None]
    )


def sp_direct(
    params: ChainParams, left_spec: SeparateStateSpec, right_spec: SeparateStateSpec
) -> complex:
    """N x N determinant form of the pairing of two separate states: the
    raw lattice matrix determinant divided by the Vandermonde of the
    inhomogeneities."""
    mat = raw_pairing_matrix(params, left_spec, right_spec)
    return complex(np.linalg.det(mat) / vandermonde(params.xi))


def _root_prefactor(params: ChainParams, roots) -> complex:
    roots = np.asarray(roots, dtype=complex).ravel()
    if roots.size == 0:
        return 1.0 + 0.0j
    return complex(np.prod(d_of(params, roots)))


def sp_a_form(params: ChainParams, left_roots, right_roots) -> complex:
    """Polynomial-pair pairing as a plus-dressed Vandermonde functional
    over the inhomogeneities, weighted by the minus shift-ratio product
    of the pooled root set."""
    left_roots = np.asarray(left_roots, dtype=complex).ravel()
    right_roots = np.asarray(right_roots, dtype=complex).ravel()
    pooled = np.concatenate([left_roots, right_roots])
    n = params.n_sites
    sign = (-1.0) ** (n * pooled.size)
    pref = _root_prefactor(params, left_roots) * _root_prefactor(params, right_roots)
    f_vals = -shift_ratio(pooled, params.eta, params.xi, -1)
    return complex(
        sign * pref * dressed_vandermonde(params.xi, params.eta, f_vals, +1)
    )


def sp_b_form(params: ChainParams, left_roots, right_roots) -> complex:
    """Polynomial-pair pairing as a minus-dressed Vandermonde functional
    over the pooled root set, weighted by the plus shift-ratio product
    of the inhomogeneities.

    This is the form whose evaluation stays smooth as the
    inhomogeneities cluster, since the determinant runs over the roots
    rather than the lattice.
    """
    left_roots = np.asarray(left_roots, dtype=complex).ravel()
    right_roots = np.asarray(right_roots, dtype=complex).ravel()
    pooled = np.concatenate([left_roots, right_roots])
    n = params.n_sites
    sign = (-1.0) ** (n * pooled.size)
    pref = _root_prefactor(params, left_roots) * _root_prefactor(params, right_roots)
    f_vals = -shift_ratio(params.xi, params.eta, pooled, +1)
    return complex(
        sign
        * 2.0 ** (n - pooled.size)
        * pref
        * dressed_vandermonde(pooled, params.eta, f_vals, -1)
    )


def sp_izergin_form(params: ChainParams, left_roots, right_roots) -> complex:
    """Polynomial-pair pairing as a twist-(-1) domain-wall determinant;
    only defined when the pooled root count equals the chain length."""
    left_roots = np.asarray(left_roots, dtype=complex).ravel()
    right_roots = np.asarray(right_roots, dtype=complex).ravel()
    pooled = np.concatenate([left_roots, right_roots])
    n = params.n_sites
    if pooled.size != n:
        raise ValueError(
            "the domain-wall form needs the pooled root count to equal the "
            "chain length"
        )
    sign = (-1.0) ** (n * (pooled.size + 1))
    pref = _root_prefactor(params, left_roots) * _root_prefactor(params, right_roots)
    return complex(
        sign * pref * izergin_determinant(-1.0, pooled, params.xi, params.eta)
    )


def sp_izergin_form_clustered(
    params: ChainParams, left_roots, right_roots
) -> complex:
    """Domain-wall pairing evaluated stably against a clustered lattice.

    Identical in value to ``sp_izergin_form`` but routed through the
    divided-difference evaluation of the domain-wall determinant, so the
    result keeps full precision when the inhomogeneities nearly
    coincide.
    """
    left_roots = np.asarray(left_roots, dtype=complex).ravel()
    right_roots = np.asarray(right_roots, dtype=complex).ravel()
    pooled = np.concatenate([left_roots, right_roots])
    n = params.n_sites
    if pooled.size != n:
        raise ValueError(
            "the domain-wall form needs the pooled root count to equal the "
            "chain length"
        )
    sign = (-1.0) ** (n * (pooled.size + 1))
    pref = _root_prefactor(params, left_roots) * _root_prefactor(params, right_roots)
    return complex(
        sign
        * pref
        * izergin_determinant_clustered(-1.0, pooled, params.xi, params.eta)
    )


def sp_with_eigenstate(
    params: ChainParams, left_roots, record: EigenRecord
) -> complex:
    """Pairing of a polynomial left separate state with an eigenstate.

    Dispatch on the left root count M against the eigenstate root count
    R: below R the pairing vanishes identically; at M = R it is the
    twist-(-1) on-shell determinant (equal to the twist-(+1) domain-wall
    form over the left roots pooled with the complementary roots); above
    R the rectangular on-shell determinant takes over.
    """
    left_roots = np.asarray(left_roots, dtype=complex).ravel()
    m = left_roots.size
    r = record.n_roots
    n = params.n_sites
    if m < r:
        return 0.0 + 0.0j
    pref = _root_prefactor(params, left_roots) * _root_prefactor(
        params, record.bethe_roots
    )
    if m == r:
        return complex(
            (-1.0) ** m
            * 2.0 ** (n - 2 * m)
            * pref
            * slavnov_determinant(params, -1.0, record.bethe_roots, left_roots)
        )
    sign = (-1.0) ** (n * (r + m)) * gen_slavnov_sign(r, m - r)
    return complex(
        sign
        * 2.0 ** (n - m - r)
        * pref
        * gen_slavnov_determinant(params, -1.0, record.bethe_roots, left_roots)
    )


def gaudin_matrix(params: ChainParams, roots) -> np.ndarray:
    """Derivative matrix of the logarithmic Bethe system.

    Diagonal entries carry the logarithmic derivatives of a and d at the
    root plus the exchange sums over the other roots; off-diagonal
    entries carry the exchange kernel alone.
    """
    roots = np.asarray(roots, dtype=complex).ravel()
    r = roots.size
    eta = params.eta
    mat = np.zeros((r, r), dtype=complex)
    for m in range(r):
        lam = roots[m]
        diag = complex(log_derivative_a(params, lam) - log_derivative_d(params, lam))
        for b in range(r):
            if b == m:
                continue
            diag += 1.0 / (lam - roots[b] - eta) - 1.0 / (lam - roots[b] + eta)
        mat[m, m] = diag
        for nn in range(r):
            if nn == m:
                continue
            mat[m, nn] = -1.0 / (lam - roots[nn] - eta) + 1.0 / (lam - roots[nn] + eta)
    return mat


def gaudin_norm(params: ChainParams, record: EigenRecord) -> complex:
    """Norm of an eigenstate as a derivative-matrix determinant.

    2^(N-2R) times the squared product of d over the roots, times the
    exchange-product ratio over root pairs, times the determinant of the
    derivative matrix of the logarithmic Bethe system.
    """
    roots = record.bethe_roots
    r = roots.size
    n = params.n_sites
    if r == 0:
        return complex(2.0**n)
    diffs = roots[:, None] - roots[None, :]
    off = ~np.eye(r, dtype=bool)
    scale = max(1.0, float(np.max(np.abs(roots))))
    if r > 1 and np.min(np.abs(diffs[off])) < 1e-10 * scale:
        raise PoleCollisionError("coinciding roots in the norm formula")
    num = complex(np.prod(diffs + params.eta))
    den = complex(np.prod(diffs[off])) if r > 1 else 1.0 + 0.0j
    pref = _root_prefactor(params, roots) ** 2
    det_phi = complex(np.linalg.det(gaudin_matrix(params, roots)))
    return complex(2.0 ** (n - 2 * r) * pref * (num / den) * det_phi)


def near_homogeneous_params(
    n_sites: int, eps: float, eta: complex = 1.0
) -> ChainParams:
    """Chain whose inhomogeneities collapse linearly onto the origin:
    site a carries eps times a.  The recorded margin tracks the actual
    separation so the basis construction still accepts the family."""
    xi = eps * np.arange(1, n_sites + 1, dtype=float)
    return ChainParams(
        n_sites=n_sites,
        eta=eta,
        xi=np.asarray(xi, dtype=complex),
        margin=0.5 * abs(eps),
    )


def _tq_collocation_roots(
    params: ChainParams,
    tau_values: np.ndarray,
    probes: np.ndarray,
    degree: int,
    residual_tol: float = 1e-8,
) -> np.ndarray:
    """Roots of the monic auxiliary polynomial solved by collocation.

    The functional equation relating the eigenvalue polynomial to its
    auxiliary polynomial is linear in the auxiliary coefficients, so
    evaluating it at generic well-separated points gives an
    overdetermined linear system that stays well-conditioned even when
    the inhomogeneities cluster — the regime where the lattice-node
    solve degenerates together with its Lagrange basis.  Rows are
    equilibrated, the system is solved in the least-squares sense, and
    the result is gated by the worst relative functional residual over
    the collocation set.
    """
    eta = params.eta
    count = probes.size
    if count < degree + 1:
        raise ValueError("need more collocation points than unknowns")
    mat = np.zeros((count, degree), dtype=complex)
    rhs = np.zeros(count, dtype=complex)
    for i, z in enumerate(probes):
        av = a_of(params, z)
        dv = d_of(params, z)
        tv = tau_values[i]
        row = np.array(
            [
                tv * z**k + av * (z - eta) ** k - dv * (z + eta) ** k
                for k in range(degree + 1)
            ]
        )
        s = float(np.max(np.abs(row)))
        if s == 0.0:
            raise SpectrumError("collocation row vanished identically")
        mat[i] = row[:degree] / s
        rhs[i] = -row[degree] / s
    coeffs = np.linalg.lstsq(mat, rhs, rcond=None)[0]
    q = ComplexPoly(np.append(coeffs, 1.0))
    worst = 0.0
    for i, z in enumerate(probes):
        t1 = tau_values[i] * q(z)
        t2 = a_of(params, z) * q(z - eta)
        t3 = d_of(params, z) * q(z + eta)
        scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
        worst = max(worst, float(abs(t1 + t2 - t3) / scale))
    if worst > residual_tol:
        raise SpectrumError(
            f"collocation solve failed the functional gate (residual {worst:.3e})"
        )
    if q.degree != degree:
        raise SpectrumError("collocation solve lost the leading coefficient")
    return poly_roots(q)


def homogeneous_stress_sweep(
    n_sites: int = 4,
    eps_values=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
    seed: int = 11,
) -> list[dict]:
    """Conditioning study of the pairing routes as the lattice collapses.

    For each collapse scale the chain's inhomogeneities are eps times
    the site index; one transfer eigenvalue family in the half-filling
    sector is followed continuously through the sweep (matched by its
    value at a fixed probe point), its auxiliary roots are solved from
    the linear functional equation collocated at generic points, and the
    pairing against a fixed eps-independent polynomial state is
    evaluated along every closed route: the root-set dressed Vandermonde
    form, the on-shell determinant over the roots, and the domain-wall
    determinant against the lattice — the latter both in its stable
    divided-difference evaluation and in the plain evaluation whose
    accuracy degrades by one Vandermonde order per collapsing point.
    The condition number of the raw lattice pairing matrix is recorded
    alongside; it grows like an inverse power of eps while the smooth
    routes settle down, which is the point of the comparison.
    """
    sector = n_sites // 2
    if sector == 0:
        raise ValueError("the sweep needs a chain long enough for one root")
    rng = np.random.Generator(np.random.Philox(key=seed))
    left_roots = np.array(
        [
            0.9 + 0.7 * k + 0.1 * rng.uniform() + 1j * (0.35 + 0.3 * rng.uniform())
            for k in range(sector)
        ],
        dtype=complex,
    )
    probe_rng = np.random.Generator(np.random.Philox(key=[seed, 0x51EE9]))
    draws = probe_rng.uniform(0.8, 2.2, size=(2 * n_sites + 2, 2))
    probes = np.array([complex(u, v) for u, v in draws])
    prev_tau = None
    rows: list[dict] = []
    for eps in eps_values:
        params = near_homogeneous_params(n_sites, float(eps))
        triples = diagonalize_transfer(params)
        probe_mats = [transfer_antiperiodic(params, z) for z in probes]
        tau_table = []
        for _, right, left in triples:
            pairing = complex(np.dot(left, right))
            tau_table.append(
                np.array(
                    [complex(np.dot(left, m @ right)) / pairing for m in probe_mats]
                )
            )
        if prev_tau is None:
            candidates = []
            for idx, tau_vals in enumerate(tau_table):
                try:
                    roots = _tq_collocation_roots(params, tau_vals, probes, sector)
                    if float(np.max(bethe_residuals(params, roots))) > 1e-6:
                        continue
                except (SpectrumError, PoleCollisionError, RuntimeError):
                    continue
                candidates.append(idx)
            if not candidates:
                raise LimitFailureError(
                    "no eigenvalue family in the target sector passed the gates"
                )
            pick = min(
                candidates,
                key=lambda i: (
                    round(tau_table[i][0].real, 9),
                    round(tau_table[i][0].imag, 9),
                ),
            )
        else:
            pick = int(np.argmin([abs(tv[0] - prev_tau) for tv in tau_table]))
        prev_tau = tau_table[pick][0]
        roots = _tq_collocation_roots(params, tau_table[pick], probes, sector)
        worst_bethe = float(np.max(bethe_residuals(params, roots)))
        pref = _root_prefactor(params, left_roots) * _root_prefactor(params, roots)
        m = left_roots.size
        slavnov_value = complex(
            (-1.0) ** m
            * 2.0 ** (params.n_sites - 2 * m)
            * pref
            * slavnov_determinant(params, -1.0, roots, left_roots)
        )
        b_value = sp_b_form(params, left_roots, roots)
        if m + roots.size == params.n_sites:
            izergin_value = sp_izergin_form_clustered(params, left_roots, roots)
            izergin_lattice = sp_izergin_form(params, left_roots, roots)
        else:
            izergin_value = None
            izergin_lattice = None
        left_spec = spec_from_roots(params, left_roots, "left")
        right_spec = spec_from_roots(params, roots, "right")
        condition = float(
            np.linalg.cond(raw_pairing_matrix(params, left_spec, right_spec))
        )
        rows.append(
            {
                "eps": float(eps),
                "b_form": b_value,
                "slavnov_form": slavnov_value,
                "izergin_form": izergin_value,
                "izergin_form_lattice": izergin_lattice,
                "raw_condition": condition,
                "bethe_residual": worst_bethe,
            }
        )
    return rows


def stress_trends(rows: list[dict]) -> dict:
    """Successive-difference and growth summaries of a conditioning sweep.

    Returns the absolute successive differences of each smooth route,
    the ratios of consecutive condition numbers, and the fitted growth
    exponent of the condition number against 1/eps.
    """
    eps = np.array([row["eps"] for row in rows])
    out: dict = {"eps": eps.tolist()}
    for key in ("b_form", "slavnov_form", "izergin_form", "izergin_form_lattice"):
        values = [row.get(key) for row in rows]
        if any(v is None for v in values):
            out[key + "_diffs"] = None
            continue
        arr = np.array(values, dtype=complex)
        out[key + "_diffs"] = np.abs(np.diff(arr)).tolist()
    conds = np.array([row["raw_condition"] for row in rows])
    out["condition_numbers"] = conds.tolist()
    if len(conds) > 1:
        slope = np.polyfit(np.log(1.0 / eps), np.log(conds), 1)[0]
        out["condition_growth_exponent"] = float(slope)
    return out
