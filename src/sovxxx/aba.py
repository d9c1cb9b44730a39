"""Product-form eigenstates of the diagonally twisted chain and their
exact dictionary to the separated eigenstates of the antiperiodic chain.

Rotating every site by the orthogonal 2x2 matrix that diagonalizes the
spin-flip twist turns the antiperiodic transfer matrix into a diagonally
twisted one.  The twisted chain admits the classic product-form
eigenvectors: a string of off-diagonal monodromy entries applied to a
fully polarized reference state, one factor per Bethe root.  This module
builds those product states densely (``product_states`` builds each
record's pair once for every check that reads it), verifies the
eigenrelations, and measures the proportionality constant that links
them -- after the site-wise rotation -- to the separated eigenstates.

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
of the two sums, which is the testable content.  One core evaluates both
expansions over stacks of bras, kets and sites with one stacked
determinant call; ``weighted_expansion_table`` calls it once per root
count for a whole spectrum.
"""

from __future__ import annotations

import numpy as np

from . import dense
from .chain import ChainParams, a_of, d_of
from .determinants import column_substituted_slavnov
from .errors import PairingError
from .polynomials import poly_values
from .spectrum import sectors

_MASK_TOL = 1e-12


def bethe_state(params: ChainParams, roots) -> np.ndarray:
    """Dense product state of the twisted chain: the lower-left monodromy
    entry at each root applied to the all-down reference state (the bare
    reference state when there are no roots).  On shared Bethe roots it
    is a twisted-transfer eigenvector with the antiperiodic eigenvalue.
    The entries at every root come from one stacked monodromy build.
    """
    roots = np.asarray(roots, dtype=complex).ravel()
    state = dense.flipped_reference_state(params)
    for entry in dense.monodromy(params, roots)[1][0]:
        state = entry @ state
    return state


def left_bethe_state(params: ChainParams, roots) -> np.ndarray:
    """Dense row state pairing with ``bethe_state`` kets: the all-down
    reference contracted from the left through upper-right monodromy
    entries, one per root, from one stacked monodromy build."""
    roots = np.asarray(roots, dtype=complex).ravel()
    state = dense.flipped_reference_state(params)
    for entry in dense.monodromy(params, roots)[0][1]:
        state = state @ entry
    return state


def product_states(params: ChainParams, records) -> tuple[np.ndarray, np.ndarray]:
    """Every record's product-state pair, built once: ``rows[i]`` is
    ``left_bethe_state`` and ``cols[:, i]`` is ``bethe_state`` of record
    i's roots.  The correspondence, completeness and translation checks
    all read this one pair."""
    rows = np.stack([left_bethe_state(params, rec.bethe_roots) for rec in records])
    cols = np.stack([bethe_state(params, rec.bethe_roots) for rec in records], axis=1)
    return rows, cols


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


def correspondence_report(params: ChainParams, records, states, vectors) -> list[dict]:
    """Both sides of the eigenstate dictionary, one dict per record.

    ``states`` is the records' ``product_states`` pair and ``vectors``
    holds each record's dense (left row, right column) eigenstate pair,
    as ``formfactors.eigenstate_vectors`` builds it.  Keys: ``ratio``/
    ``spread`` for the right (column) states, ``left_ratio``/
    ``left_spread`` for the row states, and the shared ``expected``
    constant.  The same constant governs both sides.
    """
    rotation = dense.basis_rotation(params)
    reports = []
    for record, row, col, (left_target, target) in zip(
        records, states[0], states[1].T, vectors
    ):
        ratio, spread = _masked_ratio(target, rotation.T @ col)
        left_ratio, left_spread = _masked_ratio(left_target, row @ rotation)
        reports.append(
            {
                "ratio": ratio,
                "spread": spread,
                "left_ratio": left_ratio,
                "left_spread": left_spread,
                "expected": expected_correspondence_constant(
                    params.n_sites, record.n_roots
                ),
            }
        )
    return reports


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


def _weighted_expansions(params: ChainParams, xs, ys, bra_q, ket_q_minus, site):
    """Both weighted determinant expansions of the equal-sector matrix
    element and their gap, over broadcastable stacks of the bra roots
    ``xs`` and the ket roots ``ys`` (last axis: the roots), the bra's Q
    at ``ys - eta`` and ``ys + eta`` (``bra_q``, a pair shaped like
    ``ys``), the ket's own Q at ``ys - eta`` and the site.

    The substituted-column determinants are one stack: the base (column
    1 at its own point, which reproduces the plain determinant), then
    every column moved onto the site's node, where the returned residue
    is dressed per column by the a/d ratio at the replaced ket root.
    The separated-chain weights combine a, d and the bra Q at the ket
    roots; the product-state weights are twice the ratio of shifted Q
    polynomials.  On shared eigenvalues every separated weight collapses
    to 2 and the two families agree term by term.  Returns
    ``(sov_value, aba_value, diff)``, each of the stack shape; the gap
    is accumulated from the weight gaps (the two sums share every
    determinant, so subtracting the assembled totals would only add
    cancellation noise).
    """
    r = ys.shape[-1]
    q_minus, q_plus = bra_q
    a_val, d_val = a_of(params, ys), d_of(params, ys)
    w_sov = (a_val * q_minus + d_val * q_plus) / (a_val * q_minus)
    w_aba = 2.0 * ket_q_minus / q_minus
    stack = np.broadcast_shapes(ys.shape[:-1], np.shape(site))
    node = params.xi[np.asarray(site) - 1]
    points = np.concatenate(
        [
            np.broadcast_to(ys[..., :1], stack + (1,)),
            np.broadcast_to(node[..., None], stack + (r,)),
        ],
        axis=-1,
    )
    columns = np.append(1, np.arange(1, r + 1))
    dets = column_substituted_slavnov(
        params, -1, xs[..., None, :], ys[..., None, :], columns, points
    )
    base, terms = dets[..., 0], (a_val / d_val) * dets[..., 1:]
    return (
        base + np.sum(w_sov * terms, axis=-1),
        base + np.sum(w_aba * terms, axis=-1),
        np.abs(np.sum((w_sov - w_aba) * terms, axis=-1)),
    )


def weighted_expansion_table(
    params: ChainParams, records
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both weighted expansions of the equal-sector matrix element and
    their gap (``_weighted_expansions``) between records i and j at site
    s, at ``[i, j, s - 1]`` of each of its three arrays: one
    ``_weighted_expansions`` call per nonzero root count
    (``spectrum.sectors``), over every bra and ket of that sector and
    every site (stack axes bra, ket, site).
    Pairs of unequal root counts and root-free records hold zeros.
    """
    n = params.n_sites
    shape = (len(records), len(records), n)
    out = (np.zeros(shape, complex), np.zeros(shape, complex), np.zeros(shape))
    sites = np.arange(1, n + 1)
    for r, (members, roots, _, q_rows) in sectors(records).items():
        if r == 0:
            continue
        shifted = roots + np.array([[[-1.0]], [[1.0]]]) * params.eta
        # each bra's Q at every ket's roots, shifted down and up: axes
        # (shift, bra, ket, root); each ket's own Q is on the diagonal
        q = poly_values(q_rows, shifted).swapaxes(0, 1)
        ket_q_minus = np.diagonal(q[0]).T
        values = _weighted_expansions(
            params,
            roots[:, None, None, :],
            roots[None, :, None, :],
            q[:, :, :, None, :],
            ket_q_minus[None, :, None, :],
            sites,
        )
        for table, value in zip(out, values):
            table[np.ix_(members, members)] = value
    return out


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


def translation_residual(params: ChainParams, records, states, lowering) -> float:
    """Worst relative gap between the separated-chain lowering element and
    its twisted-frame translation -- the product-state element of the
    sector gap's operator times ``translation_constant`` -- over every
    ordered pair of records at most one sector apart and every site.

    ``states`` is the records' ``product_states`` pair and
    ``lowering[i, j, site - 1]`` is ``ff_sigma_minus`` between records i
    and j.  Each (sector gap, site) takes one product of the stacked bra
    rows, the site operator of that gap and the stacked ket columns.
    """
    rows, cols = states
    n, counts = params.n_sites, [rec.n_roots for rec in records]
    gaps = np.subtract.outer(counts, counts)
    worst = 0.0
    for gap, op in _TRANSLATION_CASES.items():
        pairs = gaps == gap
        constants = np.array([translation_constant(n, r, gap) for r in counts])[:, None]
        for site in range(1, n + 1):
            sov_side = lowering[..., site - 1]
            aba_side = constants * (rows @ dense.site_sigma(params, site, op) @ cols)
            scale = np.maximum(np.maximum(np.abs(sov_side), np.abs(aba_side)), 1e-300)
            rel = np.abs(sov_side - aba_side) / scale
            worst = max(worst, float(rel[pairs].max(initial=0.0)))
    return worst


def isospectrality_check(params: ChainParams) -> float:
    """Largest gap between the sorted dense spectra of the antiperiodic
    and the twisted transfer matrices at one generic spectral point."""
    lam = dense.default_eval_point(params, 3)
    anti = np.linalg.eigvals(dense.transfer_antiperiodic(params, lam))
    twisted = np.linalg.eigvals(dense.transfer_twisted(params, lam))
    order = lambda v: v[np.lexsort((v.imag, v.real))]
    anti, twisted = order(anti), order(twisted)
    scale = max(float(np.max(np.abs(anti))), 1e-300)
    return float(np.max(np.abs(anti - twisted)) / scale)


def completeness_check(params: ChainParams, records, states) -> dict:
    """Counts backing the completeness transfer: every spectrum record
    yields a product state, each one a twisted-transfer eigenvector, and
    the root multisets are pairwise distinct.

    ``states`` is the records' ``product_states`` pair; each column state
    is held against its record's eigenvalue under one twisted transfer
    matrix, by the largest residual entry over the largest state entry.
    Returns a dict with ``n_records``, ``n_eigen`` (eigen-residual at or
    below 1e-7), ``n_distinct`` root multisets and ``max_residual``.
    """
    cols = states[1]
    scale = np.max(np.abs(cols), axis=0, initial=0.0)
    if np.any(scale == 0.0):
        raise PairingError("product state vanished identically")
    lam = dense.default_eval_point(params, 2)
    taus = poly_values(np.array([record.tau for record in records]), lam)
    resid = dense.transfer_twisted(params, lam) @ cols - taus * cols
    residuals = np.max(np.abs(resid), axis=0) / scale
    fingerprints = set()
    for record in records:
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
        "n_eigen": int(np.count_nonzero(residuals <= 1e-7)),
        "n_distinct": len(fingerprints),
        "max_residual": float(residuals.max(initial=0.0)),
    }
