"""Scalar products of separate states in determinant form.

A left and a right separate state pair into a single N x N determinant
over the inhomogeneity lattice; when the weight functions are monic
polynomials the same pairing collapses to dressed Vandermonde
functionals over the root sets, to a domain-wall determinant when the
root counts saturate the chain length, and to one on-shell rule
(``sp_on_shell``) when one factor is a transfer eigenstate.  Each closed
form is exposed separately so they can be cross-validated against the
dense pairing and against one another; the norm of an eigenstate gets
its dedicated derivative-matrix determinant.  The on-shell rule takes
stacks of root sets (one determinant call per stack);
``sp_with_eigenstate`` is its one-element case, which reads the row half
its record holds (``spectrum.EigenRecord``) instead of redoing the work
on the record's roots.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .chain import ChainParams, d_of, vandermonde
from .determinants import (
    _on_shell,
    _result,
    dressed_vandermonde,
    gaudin_matrix,
    gen_slavnov_sign,
    izergin_determinant,
    izergin_determinant_clustered,
    mu_bethe_residuals,
    shift_ratio,
)
from .dense import diagonalize_transfer, transfer_antiperiodic
from .errors import LimitFailureError, PoleCollisionError, SpectrumError
from .polynomials import cardinal_coefficients, poly_roots
from .sov import SeparateStateSpec, separate_state_dense, spec_from_roots
from .spectrum import EigenRecord, _tq_residuals, tq_collocation


def sp_dense(
    params: ChainParams, left_spec: SeparateStateSpec, right_spec: SeparateStateSpec
) -> complex | np.ndarray:
    """Reference pairing: build both dense vectors and contract them.
    Stacks of states of one shape give one pairing per member."""
    left = separate_state_dense(params, left_spec)
    right = separate_state_dense(params, right_spec)
    return _result(np.einsum("...i,...i->...", left, right))


def raw_pairing_matrix(
    params: ChainParams, left_spec: SeparateStateSpec, right_spec: SeparateStateSpec
) -> np.ndarray:
    """The N x N lattice matrix whose determinant gives the pairing.

    Row a sums the two occupation branches of site a: the plain power
    row at xi_a weighted by both functions there, plus the power row at
    xi_a - eta weighted by both functions there, the right one dressed
    by -a(xi_a)/d(xi_a - eta).  Its rows degenerate together with the
    lattice, which is what the conditioning sweep measures.  Stacks of
    states give a stack of matrices.
    """
    if left_spec.side != "left" or right_spec.side != "right":
        raise ValueError("the raw pairing matrix pairs a left spec with a right spec")
    n = params.n_sites
    if left_spec.values_at_xi.shape[-1] != n or right_spec.values_at_xi.shape[-1] != n:
        raise ValueError("separate-state values must cover every site")
    xi = params.xi
    eta = params.eta
    dressing = -params.a_at_nodes / d_of(params, xi - eta)
    w_top = left_spec.values_at_xi * right_spec.values_at_xi
    w_bot = (
        left_spec.values_at_xi_minus_eta
        * dressing
        * right_spec.values_at_xi_minus_eta
    )
    powers = np.arange(n)
    return (
        xi[:, None] ** powers[None, :] * w_top[..., :, None]
        + (xi - eta)[:, None] ** powers[None, :] * w_bot[..., :, None]
    )


def sp_direct(
    params: ChainParams, left_spec: SeparateStateSpec, right_spec: SeparateStateSpec
) -> complex | np.ndarray:
    """N x N determinant form of the pairing of two separate states: the
    raw lattice matrix determinant divided by the Vandermonde of the
    inhomogeneities.  Stacks of states give one pairing per member."""
    mat = raw_pairing_matrix(params, left_spec, right_spec)
    return _result(np.linalg.det(mat) / vandermonde(params.xi))


def _pooled_roots(
    params: ChainParams, left_roots, right_roots
) -> tuple[np.ndarray, complex | np.ndarray]:
    """The left roots followed by the right roots, and the prefactor every
    pooled-root form shares: (-1)^(N P) times the d-product over both
    sets, P the pooled count.  The root sets may be stacks of one shape
    (last axis: the roots), giving one pooled set and prefactor per
    member."""
    pooled = np.concatenate(
        [np.asarray(left_roots, dtype=complex), np.asarray(right_roots, dtype=complex)],
        axis=-1,
    )
    pref = np.prod(d_of(params, pooled), axis=-1)
    return pooled, (-1.0) ** (params.n_sites * pooled.shape[-1]) * pref


def sp_a_form(params: ChainParams, left_roots, right_roots) -> complex | np.ndarray:
    """Polynomial-pair pairing as a plus-dressed Vandermonde functional
    over the inhomogeneities, weighted by the minus shift-ratio product
    of the pooled root set.  Stacks of root sets (``_pooled_roots``) give
    one pairing per member from one determinant call."""
    pooled, pref = _pooled_roots(params, left_roots, right_roots)
    f_vals = -shift_ratio(pooled, params.eta, params.xi, -1)
    return _result(pref * dressed_vandermonde(params.xi, params.eta, f_vals, +1))


def sp_b_form(params: ChainParams, left_roots, right_roots) -> complex | np.ndarray:
    """Polynomial-pair pairing as a minus-dressed Vandermonde functional
    over the pooled root set, weighted by the plus shift-ratio product
    of the inhomogeneities.  Stacks of root sets (``_pooled_roots``) give
    one pairing per member from one determinant call.

    This is the form whose evaluation stays smooth as the
    inhomogeneities cluster, since the determinant runs over the roots
    rather than the lattice.
    """
    pooled, pref = _pooled_roots(params, left_roots, right_roots)
    f_vals = -shift_ratio(params.xi, params.eta, pooled, +1)
    return _result(
        2.0 ** (params.n_sites - pooled.shape[-1])
        * pref
        * dressed_vandermonde(pooled, params.eta, f_vals, -1)
    )


def _domain_wall_form(
    params: ChainParams, left_roots, right_roots, evaluate
) -> complex | np.ndarray:
    """Polynomial-pair pairing as the twist-(-1) domain-wall determinant
    ``evaluate`` of the pooled roots against the lattice."""
    pooled, pref = _pooled_roots(params, left_roots, right_roots)
    n = params.n_sites
    if pooled.shape[-1] != n:
        raise ValueError(
            "the domain-wall form needs the pooled root count to equal the "
            "chain length"
        )
    return _result(
        (-1.0) ** n * pref * evaluate(-1.0, pooled, params.xi, params.eta)
    )


def sp_izergin_form(
    params: ChainParams, left_roots, right_roots
) -> complex | np.ndarray:
    """Polynomial-pair pairing as a twist-(-1) domain-wall determinant;
    only defined when the pooled root count equals the chain length.
    Stacks of root sets give one pairing per member."""
    return _domain_wall_form(params, left_roots, right_roots, izergin_determinant)


def sp_izergin_form_clustered(
    params: ChainParams, left_roots, right_roots
) -> complex | np.ndarray:
    """Domain-wall pairing evaluated stably against a clustered lattice.

    Identical in value to ``sp_izergin_form`` but routed through the
    divided-difference evaluation of the domain-wall determinant, so the
    result keeps full precision when the inhomogeneities nearly
    coincide.
    """
    return _domain_wall_form(
        params, left_roots, right_roots, izergin_determinant_clustered
    )


def _on_shell_weight(n_sites: int, m: int, r: int) -> float:
    """Sign and power of two taking the on-shell determinant of R on-shell
    roots against M >= R free roots to their pairing:
    (-1)^(N(R+M)) gen_slavnov_sign(R, M - R) 2^(N-M-R)."""
    sign = (-1.0) ** (n_sites * (r + m)) * gen_slavnov_sign(r, m - r)
    return sign * 2.0 ** (n_sites - m - r)


def _pairing(params: ChainParams, left_roots, r: int, on_shell):
    """``sp_on_shell`` over R = ``r`` on-shell roots: ``on_shell()`` gives
    the roots or their row half (``determinants._rows``), and is asked
    for only from M = R on, so a pairing that vanishes runs no gate."""
    left_roots = np.asarray(left_roots, dtype=complex)
    m = left_roots.shape[-1]
    if m < r:
        return _result(np.zeros(left_roots.shape[:-1], dtype=complex))
    # the rectangular determinant and the d-products over both root sets
    det, d_on_shell, d_left = _on_shell(params, -1.0, on_shell(), left_roots)
    return _result(_on_shell_weight(params.n_sites, m, r) * (d_left * d_on_shell) * det)


def sp_on_shell(params: ChainParams, left_roots, on_shell_roots):
    """Pairing of a polynomial left separate state with the eigenstate of
    an on-shell root set: the one rule behind every pairing with an
    eigenstate, its norm limit and (through ``formfactors.ff_sigma_minus``)
    the lattice-column form factors.

    Below the on-shell count R the pairing vanishes identically; from
    M = R on it is the rectangular on-shell determinant (the square one
    at M = R) times the sign and power of two of ``_on_shell_weight``
    and the d-products over both root sets.  The two root sets may be
    stacks of one shape (last axis: the roots), giving an array of the
    stack shape from one determinant call; two single sets give a
    ``complex``.
    """
    r = np.shape(on_shell_roots)[-1]
    return _pairing(params, left_roots, r, lambda: on_shell_roots)


def sp_with_eigenstate(
    params: ChainParams, left_roots, record: EigenRecord
) -> complex:
    """Pairing of a polynomial left separate state with the eigenstate of
    a spectrum record (``sp_on_shell`` over its Bethe roots), from the
    record's row half (``EigenRecord.rows_on``): on the record's own chain
    the work on its roots is done once per record."""
    return _pairing(params, left_roots, record.n_roots, partial(record.rows_on, params))


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
    # NaN for a NaN root, so the comparison below refuses it even alone
    scale = np.abs(roots).max(initial=1.0)
    if not np.abs(diffs[off]).min(initial=np.inf) >= 1e-10 * scale:
        raise PoleCollisionError("coinciding or NaN roots in the norm formula")
    num = complex(np.prod(diffs + params.eta))
    den = complex(np.prod(diffs[off])) if r > 1 else 1.0 + 0.0j
    pref = complex(np.prod(d_of(params, roots))) ** 2
    det_phi = complex(np.linalg.det(gaudin_matrix(params, roots)))
    return complex(2.0 ** (n - 2 * r) * pref * (num / den) * det_phi)


def near_homogeneous_params(n_sites: int, eps: float) -> ChainParams:
    """Chain with eta = 1 whose inhomogeneities collapse linearly onto the
    origin: site a carries eps times a.  The recorded margin tracks the
    actual separation so the basis construction still accepts the
    family."""
    xi = eps * np.arange(1, n_sites + 1, dtype=float)
    return ChainParams(
        n_sites=n_sites,
        eta=1.0,
        xi=np.asarray(xi, dtype=complex),
        margin=0.5 * abs(eps),
    )


def _gated_roots(
    params: ChainParams, tau_values: np.ndarray, q: np.ndarray,
    points: np.ndarray, degree: int,
) -> np.ndarray:
    """Roots of a collocation solution (``tq_collocation``) that meets
    the functional equation to relative 1e-8 at the collocation points
    and keeps its degree (``poly_roots``' leading-coefficient gate);
    ``SpectrumError`` otherwise, a non-finite row included."""
    worst = _tq_residuals(params, tau_values[None], q[None], points)[0]
    # NaN fails this comparison
    if not worst <= 1e-8:
        raise SpectrumError(
            f"collocation solve failed the functional gate (residual {worst:.3e})"
        )
    return poly_roots(q[: degree + 1])


def _first_family(
    params: ChainParams, tau_table: np.ndarray, q_rows: np.ndarray,
    points: np.ndarray, degree: int,
) -> tuple[int, np.ndarray]:
    """The eigenvalue family a conditioning sweep follows, and its roots:
    of the rows in the sector of ``degree`` roots whose collocation
    solution passes ``_gated_roots`` and whose roots meet the Bethe
    system to 1e-6, the least in (value at the first point rounded to 9
    digits, row index).  A row's sector is read off the leading
    coefficient of its eigenvalue, (2r - N) eta for r roots, interpolated
    at the first N points.  Rows are gated lazily in that order and the
    first to pass is taken, which is that least row without gating the
    others."""
    n = params.n_sites
    lead = tau_table[:, :n] @ cardinal_coefficients(points[:n])[:, n - 1]
    in_sector = np.rint((lead / params.eta).real) + n == 2 * degree
    first = tau_table[:, 0]
    order = sorted(
        np.flatnonzero(in_sector).tolist(),
        key=lambda i: (round(first[i].real, 9), round(first[i].imag, 9), i),
    )
    for idx in order:
        try:
            roots = _gated_roots(params, tau_table[idx], q_rows[idx], points, degree)
            if mu_bethe_residuals(params, -1.0, roots).max() > 1e-6:
                continue
        except (SpectrumError, PoleCollisionError, RuntimeError):
            continue
        return idx, roots
    raise LimitFailureError(
        "no eigenvalue family in the target sector passed the gates"
    )


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
    the linear functional equation collocated at generic points away from
    the collapsing lattice (``spectrum.tq_collocation``, one call per
    collapse scale for every eigenvalue), and the pairing against a fixed eps-independent
    polynomial state is evaluated along every closed route: the root-set
    dressed Vandermonde form, the on-shell determinant over the roots,
    and the domain-wall determinant against the lattice — the latter
    both in its stable divided-difference evaluation and in the plain
    evaluation whose accuracy degrades by one Vandermonde order per
    collapsing point.
    The condition number of the raw lattice pairing matrix is recorded
    alongside; it grows like an inverse power of eps while the smooth
    routes settle down, which is the point of the comparison.

    Each collapse scale builds the transfer matrices at all probe points
    in one stacked call and reads every eigenvalue's probe values off one
    contraction with the left and right eigenvectors.  The first scale
    picks its family with ``_first_family``, which gates candidates in
    order and stops at the first that passes; later scales gate only the
    matched family (``_gated_roots``).
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
        rights, lefts = diagonalize_transfer(params)
        # every eigenvalue at every probe: one stacked transfer build and
        # one contraction against both eigenvector sets
        probed = transfer_antiperiodic(params, probes) @ rights
        tau_table = np.einsum("kj,pjk->kp", lefts, probed) / np.einsum(
            "kj,jk->k", lefts, rights
        )[:, None]
        q_rows = tq_collocation(
            params, tau_table, probes, np.full(len(tau_table), sector)
        )
        if prev_tau is None:
            pick, roots = _first_family(params, tau_table, q_rows, probes, sector)
        else:
            pick = int(np.argmin(np.abs(tau_table[:, 0] - prev_tau)))
            roots = _gated_roots(params, tau_table[pick], q_rows[pick], probes, sector)
        prev_tau = tau_table[pick, 0]
        worst_bethe = float(mu_bethe_residuals(params, -1.0, roots).max())
        slavnov_value = sp_on_shell(params, left_roots, roots)
        b_value = sp_b_form(params, left_roots, roots)
        if left_roots.size + roots.size == params.n_sites:
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
