"""Single-site spin matrix elements between transfer-matrix eigenstates.

Two layers, each checked against the dense oracle in the tests:

* operator reconstruction -- the lowering operator at one site equals a
  string of transfer-matrix values at the lattice nodes around a single
  diagonal monodromy entry, closed by the global spin flip (the product
  of ALL node transfer values over their dominant-term normalizations
  is exactly the global flip, which is what makes the string finite);
* one evaluation for every sector, obtained by sandwiching the
  reconstruction between eigenstates: the element reduces to a pairing
  of the bra eigenstate with a root-augmented partner polynomial, which
  is the one on-shell pairing rule of ``scalar.sp_on_shell`` evaluated
  through the lattice-column determinant.

Raw bilinear normalization throughout: values are pairings of the
un-normalized left and right separate states, so they can be compared
entrywise with the dense tensor-product computation.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainParams, a_of, d_of
from . import dense
from .determinants import lattice_column_determinant
from .errors import PairingError
from .scalar import _on_shell_weight
from .sov import bilinear, separate_state_dense, spec_from_roots
from .spectrum import EigenRecord


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


def eigenstate_vectors(
    params: ChainParams, record: EigenRecord
) -> tuple[np.ndarray, np.ndarray]:
    """Dense (left row, right column) pair for one eigenvalue record."""
    roots = record.bethe_roots
    left = separate_state_dense(params, spec_from_roots(params, roots, "left"))
    right = separate_state_dense(params, spec_from_roots(params, roots, "right"))
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


def ff_sigma_minus(
    params: ChainParams,
    bra_record: EigenRecord,
    ket_record: EigenRecord,
    site: int,
) -> complex:
    """Lowering-operator matrix element through the lattice-column route.

    Sectors further than one root apart vanish identically; every other
    element, diagonal ones included, factorizes into transfer
    eigenvalues at the nodes (the bra's before the site and the ket's
    after it, over the full a-product on the nodes) times the pairing of
    the bra eigenstate with the partner polynomial (ket polynomial times
    a monic linear factor rooted at the site's node).  The pairing is
    the lattice-column determinant dressed with the prefactors of
    ``scalar.sp_on_shell``.  A bra record with roots from another chain
    fails the determinant's on-shell gate: ``NotOnShellError``.
    """
    if not 1 <= site <= params.n_sites:
        raise ValueError("site index out of range")
    r_bra = bra_record.n_roots
    r_ket = ket_record.n_roots
    if abs(r_bra - r_ket) > 1:
        return 0.0 + 0.0j
    free = ket_record.bethe_roots
    rows = bra_record.bethe_roots
    core = lattice_column_determinant(params, -1.0, rows, free, site)
    # the partner polynomial has the ket roots and the site's node, whose
    # d factor the lattice-column limit has absorbed
    weight = _on_shell_weight(params.n_sites, r_ket + 1, r_bra)
    xi = params.xi
    # the node eigenvalues and the d-products over both root sets
    factors = np.concatenate(
        [
            bra_record.tau(xi[: site - 1]),
            ket_record.tau(xi[site:]),
            d_of(params, np.concatenate([free, rows])),
        ]
    )
    pref = factors.prod() / a_of(params, xi).prod()
    return complex((-1.0) ** r_ket * weight * pref * core)


def ff_from_lowering(
    bra_record: EigenRecord, ket_record: EigenRecord, lowering: complex
) -> dict[str, complex]:
    """The three single-site elements of one (bra, ket, site), keyed like
    ``dense.site_sigma``, from its lowering element.

    The raising element is the lowering one times the parity of the
    sector difference (the flip symmetry exchanges the two operators and
    multiplies each eigenstate by its flip parity); the z element is
    twice the sector difference (bra count minus ket count) times it, so
    equal sectors give 0.
    """
    diff = bra_record.n_roots - ket_record.n_roots
    return {
        "-": lowering,
        "+": complex((-1.0) ** diff * lowering),
        "z": complex(2.0 * diff * lowering) if diff else 0.0 + 0.0j,
    }


def ff_sigma_plus(
    params: ChainParams,
    bra_record: EigenRecord,
    ket_record: EigenRecord,
    site: int,
) -> complex:
    """Raising-operator matrix element (see ``ff_from_lowering``)."""
    lowering = ff_sigma_minus(params, bra_record, ket_record, site)
    return ff_from_lowering(bra_record, ket_record, lowering)["+"]


def ff_sigma_z(
    params: ChainParams,
    bra_record: EigenRecord,
    ket_record: EigenRecord,
    site: int,
) -> complex:
    """Z-operator matrix element (see ``ff_from_lowering``)."""
    if bra_record.n_roots == ket_record.n_roots:
        return 0.0 + 0.0j  # no lowering element needed
    lowering = ff_sigma_minus(params, bra_record, ket_record, site)
    return ff_from_lowering(bra_record, ket_record, lowering)["z"]


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
