"""Single-site spin matrix elements between transfer-matrix eigenstates.

Three layers, each checked against the one below it in the tests:

* operator reconstruction -- the lowering operator at one site equals a
  string of transfer-matrix values at the lattice nodes around a single
  diagonal monodromy entry, closed by the global spin flip (the product
  of ALL node transfer values over their dominant-term normalizations
  is exactly the global flip, which is what makes the string finite);
* a uniform evaluation for every sector, obtained by sandwiching the
  reconstruction between eigenstates: the element reduces to a pairing
  with a root-augmented partner polynomial and is evaluated through the
  lattice-column determinant;
* the closed determinants of the three adjacent cases (sector lowering,
  sector raising and equal sector), one evaluator over the package's
  single two-pole kernel matrix builder (``determinants._kernel_matrix``)
  whose cases differ only in which record supplies the rows and in how
  the site's node column enters, with sign prefactors pinned by the
  dense oracle.

Raw bilinear normalization throughout: values are pairings of the
un-normalized left and right separate states, so they can be compared
entrywise with the dense tensor-product computation.
"""

from __future__ import annotations

import numpy as np

from .chain import (
    ChainParams,
    a_of,
    a_site_split,
    d_of,
    d_site_split,
    vandermonde,
)
from . import dense
from .determinants import (
    _kernel_matrix,
    gen_slavnov_sign,
    lattice_column_determinant,
)
from .errors import PairingError, PoleCollisionError
from .sov import SeparateStateSpec, bilinear, separate_state_dense
from .spectrum import EigenRecord

# below this relative size a determinant-formula divisor counts as a
# pole hit and the evaluation falls back to the lattice-column route
_DIVISOR_TOL = 1e-10


def _node_string(params: ChainParams, sites) -> np.ndarray:
    out = np.eye(2**params.n_sites, dtype=complex)
    for j in sites:
        node = params.xi[j]
        out = out @ (dense.transfer_antiperiodic(params, node) / a_of(params, node))
    return out


def reconstruct_sigma_minus(params: ChainParams, site: int) -> np.ndarray:
    """Dense lowering operator at one site from transfer values.

    Forward node string up to the site, the D monodromy entry at the
    site's node, the forward string past the site, then the global
    flip.  Without the trailing flip the string has an even number of
    transfer factors whenever the chain length is even, which is the
    wrong parity for a single lowering operator; the flip (equal to the
    full node product) restores it.
    """
    if not 1 <= site <= params.n_sites:
        raise ValueError("site index out of range")
    n = params.n_sites
    node = params.xi[site - 1]
    d_entry = dense.monodromy(params, node)[1][1] / a_of(params, node)
    return (
        _node_string(params, range(site - 1))
        @ d_entry
        @ _node_string(params, range(site, n))
        @ dense.global_flip(params)
    )


def reconstruct_sigma_plus(params: ChainParams, site: int) -> np.ndarray:
    """Dense raising operator at one site: same string as the lowering
    reconstruction with the A monodromy entry in place of D."""
    if not 1 <= site <= params.n_sites:
        raise ValueError("site index out of range")
    n = params.n_sites
    node = params.xi[site - 1]
    a_entry = dense.monodromy(params, node)[0][0] / a_of(params, node)
    return (
        _node_string(params, range(site - 1))
        @ a_entry
        @ _node_string(params, range(site, n))
        @ dense.global_flip(params)
    )


def _eigen_spec(params: ChainParams, record: EigenRecord, side: str) -> SeparateStateSpec:
    return SeparateStateSpec(
        side=side,
        values_at_xi=np.asarray(record.q_tau(params.xi), dtype=complex),
        values_at_xi_minus_eta=np.asarray(
            record.q_tau(params.xi - params.eta), dtype=complex
        ),
        roots=np.asarray(record.bethe_roots, dtype=complex),
    )


def eigenstate_vectors(
    params: ChainParams, record: EigenRecord
) -> tuple[np.ndarray, np.ndarray]:
    """Dense (left row, right column) pair for one eigenvalue record."""
    left = separate_state_dense(params, _eigen_spec(params, record, "left"))
    right = separate_state_dense(params, _eigen_spec(params, record, "right"))
    return left, right


def ff_dense(
    params: ChainParams,
    bra_record: EigenRecord,
    ket_record: EigenRecord,
    site: int,
    op: str,
) -> complex:
    """Brute-force matrix element of a single-site operator.

    ``op`` is one of "-", "+", "z".  This is the oracle the determinant
    representations are measured against.
    """
    left, _ = eigenstate_vectors(params, bra_record)
    _, right = eigenstate_vectors(params, ket_record)
    return bilinear(left, dense.site_sigma(params, site, op) @ right)


def is_same_eigenstate(bra_record: EigenRecord, ket_record: EigenRecord) -> bool:
    """Whether two records describe the same eigenvalue (diagonal element)."""
    ca = np.asarray(bra_record.tau.coeffs, dtype=complex)
    cb = np.asarray(ket_record.tau.coeffs, dtype=complex)
    if ca.size != cb.size:
        return False
    scale = max(np.max(np.abs(ca)), np.max(np.abs(cb)), 1.0)
    return bool(np.max(np.abs(ca - cb)) <= 1e-8 * scale)


def _tau_node_prefactor(
    params: ChainParams,
    bra_record: EigenRecord,
    ket_record: EigenRecord,
    site: int,
) -> complex:
    """Product of bra eigenvalues before the site and ket eigenvalues
    after it, over the full a-product on the nodes."""
    n = params.n_sites
    num = 1.0 + 0.0j
    for j in range(site - 1):
        num *= bra_record.tau(params.xi[j])
    for j in range(site, n):
        num *= ket_record.tau(params.xi[j])
    denom = complex(np.prod(a_of(params, params.xi)))
    return num / denom


def ff_sigma_minus_unified(
    params: ChainParams,
    bra_record: EigenRecord,
    ket_record: EigenRecord,
    site: int,
) -> complex:
    """Lowering-operator matrix element through the lattice-column route.

    Valid in every sector, diagonal elements included.  The element
    factorizes into transfer eigenvalues at the nodes times the pairing
    of the bra eigenstate with the partner polynomial (ket polynomial
    times a monic linear factor rooted at the site's node); the pairing
    is the lattice-column determinant dressed with the standard
    rectangular-pairing prefactors.
    """
    if not 1 <= site <= params.n_sites:
        raise ValueError("site index out of range")
    r_bra = bra_record.n_roots
    r_ket = ket_record.n_roots
    if abs(r_bra - r_ket) > 1:
        return 0.0 + 0.0j
    n = params.n_sites
    free = np.asarray(ket_record.bethe_roots, dtype=complex)
    m = r_ket + 1
    d_free = complex(np.prod(d_of(params, free))) if free.size else 1.0 + 0.0j
    rows = np.asarray(bra_record.bethe_roots, dtype=complex)
    d_rows = complex(np.prod(d_of(params, rows))) if rows.size else 1.0 + 0.0j
    core = lattice_column_determinant(params, -1.0, rows, free, site)
    if m == r_bra:
        pairing = (-1.0) ** m * 2.0 ** (n - 2 * m) * d_free * d_rows * core
    else:
        sign = (-1.0) ** (n * (r_bra + m)) * gen_slavnov_sign(r_bra, m - r_bra)
        pairing = sign * 2.0 ** (n - m - r_bra) * d_free * d_rows * core
    pre = _tau_node_prefactor(params, bra_record, ket_record, site)
    return complex((-1.0) ** r_ket * pre * pairing)


def _ff_det(
    params: ChainParams,
    bra_record: EigenRecord,
    ket_record: EigenRecord,
    site: int,
) -> complex:
    """Closed determinant for an adjacent-sector element between DISTINCT
    eigenstates.

    Rows follow the roots of the record with more roots (the bra when
    the sectors are equal), columns the other record's roots, with the
    kernel weights alpha = (a/d)(y) q(y - eta) and beta = q(y + eta)
    taken from the row record's polynomial q.  Sector lowering and
    raising append a last column holding the two-pole kernel against
    the site's node, and evaluate the outer polynomial ratio at the node
    and at the down-shifted node respectively; the equal sector adds
    the node kernel as a rank-one term weighted by alpha + beta
    instead.  Sign prefactors are pinned by the dense oracle.
    """
    eta = params.eta
    n = params.n_sites
    node = params.xi[site - 1]
    raising = ket_record.n_roots == bra_record.n_roots + 1
    rows, cols = (ket_record, bra_record) if raising else (bra_record, ket_record)
    at = node - eta if raising else node
    x = np.asarray(rows.bethe_roots, dtype=complex)
    y = np.asarray(cols.bethe_roots, dtype=complex)
    denom_q = cols.q_tau(at)
    scale = max(1.0, float(np.max(np.abs(params.xi))))
    if abs(denom_q) < _DIVISOR_TOL * scale ** max(y.size, 1):
        raise PoleCollisionError("column polynomial vanishes next to the site's node")
    q = rows.q_tau
    alpha = a_of(params, y) / d_of(params, y) * q(y - eta)
    beta = q(y + eta)
    mat = _kernel_matrix(x, y, alpha, beta, eta)
    node_column = _kernel_matrix(x, [node], [1.0], [0.0], eta)
    if x.size == y.size:
        mat = mat + node_column * (alpha + beta)
        sign = 0.5
    else:
        mat = np.hstack([mat, node_column])
        sign = (-1.0) ** (n + x.size + (not raising))
    site_a = complex(np.prod(a_site_split(params, site, bra_record.bethe_roots)))
    site_d = complex(np.prod(d_site_split(params, site, ket_record.bethe_roots)))
    pref = (
        sign
        * 2.0 ** (n - 2 * x.size)
        * (q(at) / denom_q)
        * site_a
        * site_d
        / (vandermonde(x) * vandermonde(y[::-1]))
    )
    return complex(pref * np.linalg.det(mat))


def ff_sigma_minus(
    params: ChainParams,
    bra_record: EigenRecord,
    ket_record: EigenRecord,
    site: int,
) -> complex:
    """Lowering-operator matrix element, case-dispatched.

    Sectors further than one root apart vanish identically.  The three
    adjacent cases use their closed determinants; the diagonal element
    (same eigenvalue on both sides) goes through the lattice-column
    route, because the equal-sector determinant's entrywise limit onto
    coinciding root sets does not reproduce the true element.  Any pole
    hit inside a closed determinant also falls back to the
    lattice-column route.
    """
    if not 1 <= site <= params.n_sites:
        raise ValueError("site index out of range")
    r_bra = bra_record.n_roots
    r_ket = ket_record.n_roots
    if abs(r_bra - r_ket) > 1:
        return 0.0 + 0.0j
    if is_same_eigenstate(bra_record, ket_record):
        return ff_sigma_minus_unified(params, bra_record, ket_record, site)
    try:
        return _ff_det(params, bra_record, ket_record, site)
    except PoleCollisionError:
        return ff_sigma_minus_unified(params, bra_record, ket_record, site)


def ff_sigma_plus(
    params: ChainParams,
    bra_record: EigenRecord,
    ket_record: EigenRecord,
    site: int,
) -> complex:
    """Raising-operator matrix element: the lowering element times the
    parity of the sector difference (the flip symmetry exchanges the two
    operators and multiplies each eigenstate by its flip parity)."""
    diff = bra_record.n_roots - ket_record.n_roots
    return complex(
        (-1.0) ** diff * ff_sigma_minus(params, bra_record, ket_record, site)
    )


def ff_sigma_z(
    params: ChainParams,
    bra_record: EigenRecord,
    ket_record: EigenRecord,
    site: int,
) -> complex:
    """Z-operator matrix element: twice the sector difference (bra count
    minus ket count) times the lowering element; equal sectors give 0."""
    diff = bra_record.n_roots - ket_record.n_roots
    if diff == 0:
        return 0.0 + 0.0j
    return complex(
        2.0 * diff * ff_sigma_minus(params, bra_record, ket_record, site)
    )


def sx_eigenvalue_check(
    params: ChainParams, record: EigenRecord
) -> tuple[int, complex]:
    """Total-x-magnetization eigenvalue on one eigenstate.

    Returns (predicted, measured): the prediction is twice the root
    count minus the chain length, the measurement is the dense Rayleigh
    quotient.  The two must agree (the often-quoted opposite sign does
    not).
    """
    left, right = eigenstate_vectors(params, record)
    overlap = bilinear(left, right)
    if abs(overlap) < 1e-12 * max(np.max(np.abs(left)) * np.max(np.abs(right)), 1e-300):
        raise PairingError("left/right overlap vanished; cannot form quotient")
    measured = bilinear(left, dense.total_sx(params) @ right) / overlap
    predicted = 2 * record.n_roots - params.n_sites
    return predicted, complex(measured)
