"""Product-form eigenstates of the diagonally twisted chain and their
exact dictionary to the separated eigenstates of the antiperiodic chain.

Rotating every site by the orthogonal 2x2 matrix that diagonalizes the
spin-flip twist turns the antiperiodic transfer matrix into a diagonally
twisted one.  The twisted chain admits the classic product-form
eigenvectors: a string of off-diagonal monodromy entries applied to a
fully polarized reference state, one factor per Bethe root.  This module
builds those product states densely, verifies the eigenrelations, and
measures the proportionality constant that links them -- after the
site-wise rotation -- to the separated eigenstates.

It also runs the determinant-level cross-check tying the two frameworks
together at the level of matrix elements: the lowering-operator element
of the antiperiodic chain and the z-operator element of the twisted
chain both expand over the same family of column-substituted scalar
product determinants, with different per-column weights, and the two
weighted sums agree.  The substituted column evaluated exactly on an
inhomogeneity is singular as a literal entry substitution (the lattice
shift ratio has a pole there); the finite object entering the expansion
is the residue column, dressed per column by the a/d ratio at the
replaced root.  The substituted determinants come from
``determinants.column_substituted_slavnov``, built on the same two-pole
kernel matrix builder as every other Slavnov-type determinant.  Any
remaining column-independent normalization drops out of the difference
of the two sums, which is the testable content.
"""

from __future__ import annotations

import numpy as np

from . import dense
from .chain import ChainParams, a_of, d_of
from .determinants import column_substituted_slavnov, slavnov_determinant
from .errors import PairingError
from .formfactors import ff_sigma_minus
from .spectrum import EigenRecord

_MASK_TOL = 1e-12

LOWER_ON_UP = "lower_on_up"
RAISE_ON_DOWN = "raise_on_down"


def bethe_state(params: ChainParams, roots, flavor: str = RAISE_ON_DOWN) -> np.ndarray:
    """Dense product state of the twisted chain.

    ``flavor="raise_on_down"`` applies the lower-left monodromy entry at
    each root to the all-down reference state; ``flavor="lower_on_up"``
    applies the upper-right entry to the all-up reference state.  With
    no roots the bare reference state is returned.  On shared Bethe
    roots the raise-on-down state is a twisted-transfer eigenvector with
    the antiperiodic eigenvalue, the lower-on-up state with its
    negative.
    """
    roots = np.asarray(roots, dtype=complex).ravel()
    if flavor == RAISE_ON_DOWN:
        state = dense.flipped_reference_state(params)
        which = (1, 0)
    elif flavor == LOWER_ON_UP:
        state = dense.reference_state(params)
        which = (0, 1)
    else:
        raise ValueError('flavor must be "raise_on_down" or "lower_on_up"')
    for lam in roots:
        state = dense.monodromy(params, lam)[which[0]][which[1]] @ state
    return state


def left_bethe_state(params: ChainParams, roots) -> np.ndarray:
    """Dense row state pairing with raise-on-down kets: the all-down
    reference contracted from the left through upper-right monodromy
    entries, one per root."""
    roots = np.asarray(roots, dtype=complex).ravel()
    state = dense.flipped_reference_state(params)
    for lam in roots:
        state = state @ dense.monodromy(params, lam)[0][1]
    return state


def twisted_eigen_residual(
    params: ChainParams, record: EigenRecord, flavor: str = RAISE_ON_DOWN
) -> float:
    """Relative eigenrelation residual of the product state built from a
    spectrum record's roots under the twisted transfer matrix.

    The raise-on-down state is checked against the record's eigenvalue,
    the lower-on-up state against its negative.
    """
    lam = dense.default_eval_point(params, 2)
    state = bethe_state(params, record.bethe_roots, flavor)
    scale = float(np.max(np.abs(state)))
    if scale == 0.0:
        raise PairingError("product state vanished identically")
    tau_val = record.tau(lam)
    if flavor == LOWER_ON_UP:
        tau_val = -tau_val
    resid = dense.transfer_twisted(params, lam) @ state - tau_val * state
    return float(np.max(np.abs(resid)) / scale)


def product_bethe_residuals(params: ChainParams, roots) -> np.ndarray:
    """Residuals of the pairwise-ratio form of the root system.

    At each root the product over companion roots of
    (difference + eta)/(difference - eta) equals minus the a/d ratio
    there; including the self-pairing factor (which is identically -1)
    flips the sign to plus.  Returned per root, normalized by the a/d
    magnitude.
    """
    roots = np.asarray(roots, dtype=complex).ravel()
    out = np.zeros(roots.size)
    for b, lam in enumerate(roots):
        others = np.delete(roots, b)
        prod = complex(np.prod((lam - others + params.eta) / (lam - others - params.eta)))
        ratio = complex(a_of(params, lam) / d_of(params, lam))
        out[b] = abs(prod + ratio) / max(abs(ratio), 1.0)
    return out


def _masked_ratio(target: np.ndarray, candidate: np.ndarray) -> tuple[complex, float]:
    """Componentwise target/candidate over the well-conditioned support;
    returns the mean ratio and the largest spread around it."""
    mask = np.abs(candidate) > _MASK_TOL * float(np.max(np.abs(candidate)))
    if not np.any(mask):
        raise PairingError("candidate state has no usable components")
    ratios = target[mask] / candidate[mask]
    ratio = complex(np.mean(ratios))
    spread = float(np.max(np.abs(ratios - ratio)))
    return ratio, spread


def expected_correspondence_constant(n_sites: int, n_roots: int) -> complex:
    """Proportionality constant between a separated eigenstate and the
    rotated product state sharing its roots: a sign set by the parity of
    sites times (roots - 1), times a half-integer power of two."""
    return complex(
        (-1.0) ** (n_sites * (n_roots - 1)) * 2.0 ** (n_sites / 2.0 - n_roots)
    )


def correspondence_report(
    params: ChainParams, record: EigenRecord, vectors: tuple[np.ndarray, np.ndarray]
) -> dict:
    """Both sides of the eigenstate dictionary for one record.

    ``vectors`` is the record's dense (left row, right column) eigenstate
    pair, as ``formfactors.eigenstate_vectors`` builds it.  Keys:
    ``ratio``/``spread`` for the right (column) states,
    ``left_ratio``/``left_spread`` for the row states, and the shared
    ``expected`` constant.  The same constant governs both sides.
    """
    left_target, target = vectors
    rotation = dense.basis_rotation(params)
    candidate = rotation.T @ bethe_state(params, record.bethe_roots, RAISE_ON_DOWN)
    ratio, spread = _masked_ratio(target, candidate)
    left_candidate = left_bethe_state(params, record.bethe_roots) @ rotation
    left_ratio, left_spread = _masked_ratio(left_target, left_candidate)
    return {
        "ratio": ratio,
        "spread": spread,
        "left_ratio": left_ratio,
        "left_spread": left_spread,
        "expected": expected_correspondence_constant(params.n_sites, record.n_roots),
    }


def reference_state_identity(params: ChainParams) -> float:
    """Relative deviation of the closed dense form of the root-free
    separated state: the constant-one separate state equals
    (-sqrt(2))^sites times the back-rotated all-down reference."""
    from .sov import separate_state_dense, spec_constant_one

    target = separate_state_dense(params, spec_constant_one(params, "right"))
    constant = (-np.sqrt(2.0)) ** params.n_sites
    candidate = constant * (
        dense.basis_rotation(params).T @ dense.flipped_reference_state(params)
    )
    return float(
        np.max(np.abs(target - candidate)) / max(np.max(np.abs(target)), 1e-300)
    )


def weighted_expansion_terms(
    params: ChainParams, bra: EigenRecord, ket: EigenRecord, site: int
) -> tuple[complex, np.ndarray, np.ndarray, np.ndarray]:
    """Base determinant, substituted-column determinants and the two
    weight families entering the matrix-element cross-expansion.

    Returns ``(base, terms, weights_sov, weights_aba)`` where ``terms[m]``
    is the residue-regularized substituted determinant dressed per
    column by the a/d ratio at the replaced ket root, ``weights_sov``
    carries the separated-chain weights (combination of a, d and the bra
    Q at the ket roots) and ``weights_aba`` the product-state weights
    (twice the ratio of shifted Q polynomials).  On shared eigenvalues
    every separated weight collapses to 2 and the two families agree
    term by term.
    """
    if bra.n_roots != ket.n_roots:
        raise ValueError("the cross-expansion needs equal root counts")
    xs = np.asarray(bra.bethe_roots, dtype=complex)
    ys = np.asarray(ket.bethe_roots, dtype=complex)
    node = params.xi[site - 1]
    base = slavnov_determinant(params, -1, xs, ys)
    r = xs.size
    terms = np.zeros(r, dtype=complex)
    w_sov = np.zeros(r, dtype=complex)
    w_aba = np.zeros(r, dtype=complex)
    for m in range(r):
        ym = ys[m]
        a_val = complex(a_of(params, ym))
        d_val = complex(d_of(params, ym))
        q_minus = bra.q_tau(ym - params.eta)
        q_plus = bra.q_tau(ym + params.eta)
        w_sov[m] = (a_val * q_minus + d_val * q_plus) / (a_val * q_minus)
        w_aba[m] = 2.0 * ket.q_tau(ym - params.eta) / q_minus
        column = column_substituted_slavnov(params, -1, xs, ys, m + 1, node)
        terms[m] = (a_val / d_val) * column
    return base, terms, w_sov, w_aba


def weighted_expansion_crosscheck(
    params: ChainParams, bra: EigenRecord, ket: EigenRecord, site: int
) -> tuple[complex, complex, float]:
    """Equality of the two weighted determinant expansions of the
    equal-sector matrix element.

    Returns ``(sov_value, aba_value, diff)``: the separated-chain sum,
    the product-state sum, and the magnitude of their difference.  The
    difference is accumulated directly from the weight gaps (the two
    sums share every determinant, so subtracting the assembled totals
    would only add cancellation noise); it is the same quantity.
    """
    base, terms, w_sov, w_aba = weighted_expansion_terms(params, bra, ket, site)
    sov_value = complex(base + np.sum(w_sov * terms))
    aba_value = complex(base + np.sum(w_aba * terms))
    diff = float(abs(np.sum((w_sov - w_aba) * terms)))
    return sov_value, aba_value, diff


_TRANSLATION_CASES = {
    0: "z",
    1: "+",
    -1: "-",
}


def translation_constant(n_sites: int, n_bra_roots: int, sector_gap: int) -> complex:
    """Constant linking the separated-chain lowering element to the
    matching twisted-frame product-state element.

    ``sector_gap`` is bra roots minus ket roots.  Equal sectors pair
    with the z operator and constant 2^(sites - 2 bra - 1); a bra excess
    of one pairs with the raising operator and (-1)^(sites+1)
    2^(sites - 2 bra); a ket excess of one pairs with the lowering
    operator and (-1)^sites 2^(sites - 2 bra - 2).
    """
    n, r = n_sites, n_bra_roots
    if sector_gap == 0:
        return complex(2.0 ** (n - 2 * r - 1))
    if sector_gap == 1:
        return complex((-1.0) ** (n + 1) * 2.0 ** (n - 2 * r))
    if sector_gap == -1:
        return complex((-1.0) ** n * 2.0 ** (n - 2 * r - 2))
    raise ValueError("sector gap beyond one has no matching single operator")


def _translation_gap(
    params: ChainParams,
    bra: EigenRecord,
    ket: EigenRecord,
    sov_side: complex,
    row: np.ndarray,
    col: np.ndarray,
    sigma: np.ndarray,
) -> tuple[complex, complex, float]:
    """One translated element from its lowering element ``sov_side`` and
    prebuilt product states: the bra's left ``row``, the ket's raise-on-down
    ``col`` and the ``sigma`` matching the sector gap (at most one)."""
    gap = bra.n_roots - ket.n_roots
    element = complex(row @ (sigma @ col))
    aba_side = translation_constant(params.n_sites, bra.n_roots, gap) * element
    scale = max(abs(sov_side), abs(aba_side), 1e-300)
    return sov_side, aba_side, float(abs(sov_side - aba_side) / scale)


def translation_check(
    params: ChainParams, bra: EigenRecord, ket: EigenRecord, site: int
) -> tuple[complex, complex, float]:
    """Separated-chain lowering element against its twisted-frame
    translation.

    Returns ``(sov_side, aba_side, rel_err)`` where ``sov_side`` is the
    determinant form factor, ``aba_side`` the matching product-state
    element times the translation constant, and ``rel_err`` their
    relative gap.  Sector gaps beyond one return exact zeros.
    """
    gap = bra.n_roots - ket.n_roots
    sov_side = ff_sigma_minus(params, bra, ket, site)
    if abs(gap) > 1:
        return sov_side, 0.0 + 0.0j, float(abs(sov_side))
    return _translation_gap(
        params,
        bra,
        ket,
        sov_side,
        left_bethe_state(params, bra.bethe_roots),
        bethe_state(params, ket.bethe_roots, RAISE_ON_DOWN),
        dense.site_sigma(params, site, _TRANSLATION_CASES[gap]),
    )


def translation_residual(params: ChainParams, records, lowering) -> float:
    """Worst relative gap of ``translation_check`` over every ordered pair
    of records at most one sector apart and every site.

    ``lowering[i, j, site - 1]`` is ``ff_sigma_minus`` between records i
    and j.  Each record's two product states and each site operator are
    built once for the whole sweep instead of once per element.
    """
    rows = [left_bethe_state(params, rec.bethe_roots) for rec in records]
    cols = [bethe_state(params, rec.bethe_roots, RAISE_ON_DOWN) for rec in records]
    sigmas = {
        (site, op): dense.site_sigma(params, site, op)
        for site in range(1, params.n_sites + 1)
        for op in _TRANSLATION_CASES.values()
    }
    worst = 0.0
    for i, bra in enumerate(records):
        for j, ket in enumerate(records):
            gap = bra.n_roots - ket.n_roots
            if abs(gap) > 1:
                continue
            op = _TRANSLATION_CASES[gap]
            for site in range(1, params.n_sites + 1):
                sov_side, sigma = lowering[i, j, site - 1], sigmas[site, op]
                rel = _translation_gap(
                    params, bra, ket, sov_side, rows[i], cols[j], sigma
                )[2]
                worst = max(worst, rel)
    return worst


def isospectrality_check(params: ChainParams, lam: complex | None = None) -> float:
    """Largest gap between the sorted dense spectra of the antiperiodic
    and the twisted transfer matrices at one spectral point."""
    if lam is None:
        lam = dense.default_eval_point(params, 3)
    anti = np.linalg.eigvals(dense.transfer_antiperiodic(params, lam))
    twisted = np.linalg.eigvals(dense.transfer_twisted(params, lam))
    order = lambda v: v[np.lexsort((v.imag, v.real))]
    anti, twisted = order(anti), order(twisted)
    scale = max(float(np.max(np.abs(anti))), 1e-300)
    return float(np.max(np.abs(anti - twisted)) / scale)


def completeness_check(
    params: ChainParams, records, tol: float = 1e-7
) -> dict:
    """Counts backing the completeness transfer: every spectrum record
    yields a product state, each one a twisted-transfer eigenvector, and
    the root multisets are pairwise distinct.

    Returns a dict with ``n_records``, ``n_eigen`` (eigen-residual at or
    below ``tol``), ``n_distinct`` root multisets and ``max_residual``.
    """
    fingerprints = set()
    n_eigen = 0
    worst = 0.0
    for record in records:
        residual = twisted_eigen_residual(params, record, RAISE_ON_DOWN)
        worst = max(worst, residual)
        if residual <= tol:
            n_eigen += 1
        roots = np.asarray(record.bethe_roots, dtype=complex)
        ordered = roots[np.lexsort((roots.imag, roots.real))]
        fingerprints.add(
            (roots.size,)
            + tuple(
                (round(float(z.real), 6), round(float(z.imag), 6)) for z in ordered
            )
        )
    return {
        "n_records": len(records),
        "n_eigen": n_eigen,
        "n_distinct": len(fingerprints),
        "max_residual": worst,
    }
