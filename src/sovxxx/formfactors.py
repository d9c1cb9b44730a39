"""Single-site spin matrix elements between transfer-matrix eigenstates.

The lowering operator at one site equals a string of transfer-matrix
values at the lattice nodes around a single diagonal monodromy entry,
closed by the global spin flip (the product of ALL node transfer values
over their dominant-term normalizations is exactly the global flip,
which is what makes the string finite); the tests check that
reconstruction against the dense operator.  Sandwiching it between
eigenstates gives one evaluation for every sector: the element reduces
to a pairing of the bra eigenstate with a root-augmented partner
polynomial, which is the one on-shell pairing rule of
``scalar.sp_on_shell`` evaluated through the lattice-column determinant.
One core (``_lowering``) evaluates it over stacks of one pair of
sectors, from the row half of the bra roots and the column half of the
ket roots (``determinants``): ``lowering_table`` builds both halves of
every sector once and calls the core once per sector pair for a whole
spectrum, and ``ff_sigma_minus`` is its one-element case, reading the
halves each record holds (``spectrum.EigenRecord``), so the work on one
record's roots is done once however many elements it enters.  The raising
and z elements follow from the lowering one (``ff_from_lowering``); the
dense oracle for all three is a test reference in
``tests/test_formfactors.py``.

Raw bilinear normalization throughout: values are pairings of the
un-normalized left and right separate states, so they can be compared
entrywise with the dense tensor-product computation.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainParams
from . import dense
from .determinants import _columns, _on_shell, _one_based, _rows
from .scalar import _on_shell_weight
from .sov import bilinear, separate_state_dense, spec_from_roots
from .spectrum import EigenRecord, sectors


def eigenstate_vectors(
    params: ChainParams, record: EigenRecord
) -> tuple[np.ndarray, np.ndarray]:
    """Dense (left row, right column) pair for one eigenvalue record."""
    roots = record.bethe_roots
    left = separate_state_dense(params, spec_from_roots(params, roots, "left"))
    right = separate_state_dense(params, spec_from_roots(params, roots, "right"))
    return left, right


def _lowering(params: ChainParams, rows, columns, bra_nodes, ket_nodes, site):
    """Lowering elements of one sector pair, from the twist -1 row half
    of the bra Bethe roots and the column half of the ket's
    (``determinants._rows``, ``determinants._columns``), over
    broadcastable stacks of those roots, of their eigenvalues at the nodes
    (last axis: the nodes) and of the site.

    Every element factorizes into transfer eigenvalues at the nodes (the
    bra's before the site and the ket's after it, over the full
    a-product on the nodes) times the pairing of the bra eigenstate with
    the partner polynomial (ket polynomial times a monic linear factor
    rooted at the site's node): the lattice-column determinant dressed
    with the prefactors of ``scalar.sp_on_shell``.  Both root counts are
    fixed by the stack shapes, so the sign and power of two are one
    number per call.
    """
    n = params.n_sites
    r_bra, r_ket = rows.xs.shape[-1], columns.ys.shape[-1]
    # the lattice-column determinant and the d-products over both root sets
    core, d_bra, d_ket = _on_shell(params, -1.0, rows, columns, site=site)
    # the partner polynomial has the ket roots and the site's node, whose
    # d factor the lattice-column limit has absorbed
    weight = (-1.0) ** r_ket * _on_shell_weight(n, r_ket + 1, r_bra)
    node = np.arange(1, n + 1)
    at = np.asarray(site)[..., None]
    nodes = np.where(node < at, bra_nodes, np.where(node > at, ket_nodes, 1.0))
    # complex products as ufunc calls, so one element rounds as its member
    # of a stack does (numpy's scalar complex product rounds differently)
    pref = np.multiply(np.multiply(nodes.prod(axis=-1), d_bra), d_ket)
    return np.multiply(weight * pref / params.a_node_product, core)


def lowering_table(params: ChainParams, records) -> np.ndarray:
    """``ff_sigma_minus`` between records i and j at site s, at
    ``[i, j, s - 1]``: one ``_lowering`` call per pair of sectors
    (``spectrum.sectors``) at most one root apart, over every bra and ket
    of those sectors and every site, from one row half and one column half
    per sector, and exact zeros between sectors further apart."""
    groups = sectors(records)
    table = np.zeros((len(records), len(records), params.n_sites), dtype=complex)
    sites = np.arange(1, params.n_sites + 1)
    # stack axes: bra, ket, site
    halves = {
        r: (
            _rows(params, -1.0, sector.roots[:, None, None, :]),
            _columns(params, -1.0, sector.roots[None, :, None, :]),
        )
        for r, sector in groups.items()
    }
    for r_bra, bra in groups.items():
        for r_ket, ket in groups.items():
            if abs(r_bra - r_ket) <= 1:
                table[np.ix_(bra.members, ket.members)] = _lowering(
                    params,
                    halves[r_bra][0],
                    halves[r_ket][1],
                    bra.tau_at_nodes[:, None, None, :],
                    ket.tau_at_nodes[None, :, None, :],
                    sites,
                )
    return table


def ff_sigma_minus(
    params: ChainParams,
    bra_record: EigenRecord,
    ket_record: EigenRecord,
    site: int,
) -> complex:
    """Lowering-operator matrix element through the lattice-column route
    (``_lowering`` for one element), from the bra record's row half and
    the ket record's column half (``EigenRecord.rows_on``, ``columns_on``):
    on the records' own chain each is built once per record.

    Sectors further than one root apart vanish identically.  A bra
    record with roots from another chain fails the determinant's
    on-shell gate: ``NotOnShellError``.
    """
    if abs(bra_record.n_roots - ket_record.n_roots) > 1:
        # the determinant validates the site of every other element
        _one_based(site, params.n_sites)
        return 0.0 + 0.0j
    return complex(
        _lowering(
            params,
            bra_record.rows_on(params),
            ket_record.columns_on(params),
            bra_record.tau_at_nodes,
            ket_record.tau_at_nodes,
            site,
        )
    )


def ff_from_lowering(diff, lowering) -> dict:
    """The three single-site elements, keyed like ``dense.site_sigma``,
    from the lowering element and the sector difference ``diff`` (bra
    minus ket root count), as scalars or as arrays that broadcast, such
    as a ``lowering_table`` and its table of differences.  The raising
    element is the lowering one times the parity of ``diff`` (the flip
    symmetry exchanges the two operators and multiplies each eigenstate
    by its flip parity); the z element is 2 ``diff`` times it, so equal
    sectors give 0.
    """
    return {
        "-": lowering,
        "+": (-1.0) ** diff * lowering,
        "z": 2.0 * diff * lowering,
    }
