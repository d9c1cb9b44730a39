"""Determinant matrix elements of single-site operators vs the dense oracle."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from sovxxx import formfactors, spectrum
from sovxxx.chain import ChainParams, a_of, d_of, fixture_params, vandermonde
from sovxxx.determinants import _columns, _rows
from sovxxx.dense import global_flip, monodromy, site_sigma, transfer_antiperiodic
from sovxxx.errors import NotOnShellError, PairingError
from sovxxx.formfactors import (
    eigenstate_vectors,
    ff_from_lowering,
    ff_sigma_minus,
    lowering_table,
)
from sovxxx.scalar import sp_on_shell, sp_with_eigenstate
from sovxxx.sov import bilinear
from sovxxx.spectrum import full_spectrum

from conftest import cached_params, cached_spectrum, total_sx, two_pole_kernel


def ff_dense(params, bra, ket, site, op):
    """Brute-force matrix element of the single-site operator ``op`` ("-",
    "+" or "z") between the dense eigenstates of two records: the oracle
    the determinant representations are measured against."""
    left, _ = eigenstate_vectors(params, bra)
    _, right = eigenstate_vectors(params, ket)
    return bilinear(left, site_sigma(params, site, op) @ right)


def ff(params, bra, ket, site, op):
    """The single-site element of ``op`` ("-", "+" or "z") through the
    lowering route."""
    lowering = ff_sigma_minus(params, bra, ket, site)
    return ff_from_lowering(bra.n_roots - ket.n_roots, lowering)[op]


def _node_string(params, sites):
    out = np.eye(2**params.n_sites, dtype=complex)
    for j in sites:
        out = out @ (transfer_antiperiodic(params, params.xi[j]) / params.a_at_nodes[j])
    return out


def reconstruct_sigma(params, site, kind):
    """Dense lowering ("-") or raising ("+") operator at one site from
    transfer values.

    Forward node string up to the site, the D (lowering) or A (raising)
    monodromy entry at the site's node, the forward string past the
    site, then the global flip.  Without the trailing flip the string has
    an even number of transfer factors whenever the chain length is
    even, which is the wrong parity for a single lowering operator; the
    flip (equal to the full node product) restores it.
    """
    entry = {"-": (1, 1), "+": (0, 0)}[kind]
    blocks = monodromy(params, params.xi[site - 1])
    return (
        _node_string(params, range(site - 1))
        @ (blocks[entry[0]][entry[1]] / params.a_at_nodes[site - 1])
        @ _node_string(params, range(site, params.n_sites))
        @ global_flip(params)
    )


def sx_eigenvalue_check(params, record):
    """Total-x-magnetization eigenvalue on one eigenstate.

    Returns (predicted, measured): the prediction is twice the root
    count minus the chain length, the measurement is the dense Rayleigh
    quotient.  The two must agree (the often-quoted opposite sign does
    not).
    """
    left, right = formfactors.eigenstate_vectors(params, record)
    overlap = bilinear(left, right)
    if abs(overlap) < 1e-12 * max(np.max(np.abs(left)) * np.max(np.abs(right)), 1e-300):
        raise PairingError("left/right overlap vanished; cannot form quotient")
    measured = bilinear(left, total_sx(params) @ right) / overlap
    predicted = 2 * record.n_roots - params.n_sites
    return predicted, complex(measured)


def _pair_scale(params, bra, ket):
    left, _ = eigenstate_vectors(params, bra)
    _, right = eigenstate_vectors(params, ket)
    return float(np.linalg.norm(left) * np.linalg.norm(right))


def test_all_matrix_elements_match_dense_across_full_spectrum():
    n_sites = 3
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    for bra in records:
        for ket in records:
            scale = _pair_scale(params, bra, ket)
            for site in range(1, n_sites + 1):
                for op_key in ("-", "+", "z"):
                    value = ff(params, bra, ket, site, op_key)
                    dense_val = ff_dense(params, bra, ket, site, op_key)
                    assert abs(value - dense_val) <= 1e-8 * scale, (
                        bra.n_roots,
                        ket.n_roots,
                        site,
                        op_key,
                    )


def test_distant_sectors_vanish_in_both_routes():
    n_sites = 4
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    checked = 0
    for bra in records:
        for ket in records:
            if abs(bra.n_roots - ket.n_roots) <= 1:
                continue
            scale = _pair_scale(params, bra, ket)
            for site in (1, n_sites):
                for op_key in ("-", "+", "z"):
                    assert abs(ff(params, bra, ket, site, op_key)) == 0.0
                    assert abs(ff_dense(params, bra, ket, site, op_key)) <= (
                        1e-9 * scale
                    )
                    checked += 1
    assert checked > 0


def test_diagonal_z_element_is_exactly_zero():
    params = cached_params(3, 0)
    records = cached_spectrum(3, 0)
    for rec in records:
        for site in range(1, 4):
            assert ff(params, rec, rec, site, "z") == 0.0
            scale = _pair_scale(params, rec, rec)
            assert abs(ff_dense(params, rec, rec, site, "z")) <= 1e-9 * scale


@pytest.mark.parametrize("n_sites", [3, 4, 5])
def test_operator_reconstruction_from_transfer_data(n_sites):
    params = cached_params(n_sites, 0)
    for site in range(1, n_sites + 1):
        for kind in ("-", "+"):
            built = reconstruct_sigma(params, site, kind)
            target = site_sigma(params, site, kind)
            assert np.linalg.norm(built - target, ord=2) <= 1e-9


def test_global_flip_conjugation_exchanges_ladder_elements():
    n_sites = 3
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    flip = global_flip(params)
    for bra in records[:4]:
        for ket in records[:4]:
            left, _ = eigenstate_vectors(params, bra)
            _, right = eigenstate_vectors(params, ket)
            scale = float(np.linalg.norm(left) * np.linalg.norm(right))
            for site in (1, 2):
                conj = left @ (
                    flip @ site_sigma(params, site, "-") @ flip @ right
                )
                direct = left @ (site_sigma(params, site, "+") @ right)
                assert abs(conj - direct) <= 1e-10 * scale


def test_x_magnetization_eigenvalue_sign():
    params = cached_params(3, 0)
    for rec in cached_spectrum(3, 0):
        predicted, measured = sx_eigenvalue_check(params, rec)
        assert predicted == 2 * rec.n_roots - params.n_sites
        assert abs(measured - predicted) <= 1e-8
        if predicted != 0:
            assert abs(measured + predicted) > 1.0


def test_single_site_fixture_hand_values():
    params = fixture_params(1)
    records = full_spectrum(params, 0)
    up = next(r for r in records if r.n_roots == 1)
    down = next(r for r in records if r.n_roots == 0)
    assert ff_sigma_minus(params, down, up, 1) == pytest.approx(-0.5, abs=1e-10)
    assert ff(params, down, up, 1, "+") == pytest.approx(0.5, abs=1e-10)
    assert ff(params, down, up, 1, "z") == pytest.approx(1.0, abs=1e-10)
    # the bilinear pairing is symmetric, so the reversed orientation
    # gives the same value (the sector gap and the lowering element both
    # flip sign)
    assert ff(params, up, down, 1, "z") == pytest.approx(1.0, abs=1e-10)


def test_z_sign_convention_is_the_derived_one():
    """The z element carries +2×(sector gap): flipping that overall sign
    breaks the single-site fixture and the dense comparison."""
    params = fixture_params(1)
    records = full_spectrum(params, 0)
    up = next(r for r in records if r.n_roots == 1)
    down = next(r for r in records if r.n_roots == 0)
    minus = ff_sigma_minus(params, down, up, 1)
    zval = ff(params, down, up, 1, "z")
    gap = down.n_roots - up.n_roots
    assert zval == pytest.approx(2.0 * gap * minus, abs=1e-12)
    dense_val = ff_dense(params, down, up, 1, "z")
    wrong_sign = -zval
    assert abs(zval - dense_val) <= 1e-10
    assert abs(wrong_sign - dense_val) > 1.0


def test_site_index_bounds_are_enforced():
    params = cached_params(3, 0)
    records = cached_spectrum(3, 0)
    with pytest.raises(ValueError):
        ff_sigma_minus(params, records[0], records[1], 0)
    with pytest.raises(ValueError):
        ff_sigma_minus(params, records[0], records[1], 4)


@pytest.mark.parametrize(
    "site", [2.0, True, np.float64(1.0)], ids=["float", "bool", "numpy_float"]
)
def test_non_integer_sites_raise_value_errors(site):
    # a whole float once passed the range check and then indexed the
    # nodes; True passed as site 1
    params = cached_params(3, 0)
    records = cached_spectrum(3, 0)
    pairs = [(bra, ket) for bra in records for ket in records]
    adjacent = next(p for p in pairs if p[1].n_roots == p[0].n_roots + 1)
    distant = next(p for p in pairs if p[1].n_roots >= p[0].n_roots + 2)
    for bra, ket in (adjacent, distant):
        with pytest.raises(ValueError):
            ff_sigma_minus(params, bra, ket, site)


def _a_site_split(params, site, lam):
    """Product of (lam - xi_j + eta) for j <= site times (lam - xi_j) beyond."""
    lam = np.asarray(lam, dtype=complex)
    xi = params.xi
    left = np.prod(lam[..., None] - xi[:site] + params.eta, axis=-1)
    return left * np.prod(lam[..., None] - xi[site:], axis=-1)


def _d_site_split(params, site, lam):
    """Product of (lam - xi_j) for j <= site times (lam - xi_j + eta) beyond."""
    lam = np.asarray(lam, dtype=complex)
    xi = params.xi
    left = np.prod(lam[..., None] - xi[:site], axis=-1)
    return left * np.prod(lam[..., None] - xi[site:] + params.eta, axis=-1)


def _ff_det(params, bra, ket, site):
    """Closed Slavnov-type determinant of an adjacent-sector lowering
    element between DISTINCT eigenstates, a reference independent of the
    lattice-column route.

    Rows follow the roots of the record with more roots (the bra when
    the sectors are equal), columns the other record's roots, with the
    kernel weights alpha = (a/d)(y) q(y - eta) and beta = q(y + eta)
    taken from the row record's polynomial q.  Sector lowering and
    raising append a last column holding the two-pole kernel against
    the site's node, and evaluate the outer polynomial ratio at the node
    and at the down-shifted node respectively; the equal sector adds
    the node kernel as a rank-one term weighted by alpha + beta
    instead.  The sign and power of two were fixed against the dense
    oracle.
    """
    eta = params.eta
    n = params.n_sites
    node = params.xi[site - 1]
    raising = ket.n_roots == bra.n_roots + 1
    rows, cols = (ket, bra) if raising else (bra, ket)
    at = node - eta if raising else node
    x = np.asarray(rows.bethe_roots, dtype=complex)
    y = np.asarray(cols.bethe_roots, dtype=complex)
    q = rows.q_tau
    alpha = a_of(params, y) / d_of(params, y) * npoly.polyval(y - eta, q)
    beta = npoly.polyval(y + eta, q)
    # alpha K(x - y) + beta K(y - x), and the node's kernel column
    diffs = x[:, None] - y
    mat = alpha * two_pole_kernel(diffs, eta) + beta * two_pole_kernel(-diffs, eta)
    node_column = two_pole_kernel(x[:, None] - node, eta)
    if x.size == y.size:
        mat = mat + node_column * (alpha + beta)
        sign = 0.5
    else:
        mat = np.hstack([mat, node_column])
        sign = (-1.0) ** (n + x.size + (not raising))
    site_a = np.prod(_a_site_split(params, site, bra.bethe_roots))
    site_d = np.prod(_d_site_split(params, site, ket.bethe_roots))
    pref = (
        sign
        * 2.0 ** (n - 2 * x.size)
        * (npoly.polyval(at, q) / npoly.polyval(at, cols.q_tau))
        * site_a
        * site_d
        / (vandermonde(x) * vandermonde(y[::-1]))
    )
    return complex(pref * np.linalg.det(mat))


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_lowering_element_matches_slavnov_type_reference(n_sites):
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    worst = 0.0
    for bra in records:
        for ket in records:
            if bra is ket or abs(bra.n_roots - ket.n_roots) > 1:
                continue
            for site in range(1, n_sites + 1):
                value = ff_sigma_minus(params, bra, ket, site)
                reference = _ff_det(params, bra, ket, site)
                err = abs(value - reference) / max(abs(reference), 1e-300)
                worst = max(worst, err)
    assert worst <= 1e-10


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
def test_lowering_table_holds_each_element(n_sites):
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    sites = range(1, n_sites + 1)
    table = lowering_table(params, records)
    single = np.array(
        [
            [[ff_sigma_minus(params, bra, ket, s) for s in sites] for ket in records]
            for bra in records
        ]
    )
    # one stacked call per sector pair rounds like one call per element,
    # bit for bit, and the exact zeros of distant sectors fall in the
    # same places
    assert np.array_equal(table, single)


def _record_elements(params, records, seed):
    """Every lowering element and every pairing with an eigenstate at
    M = R..N+1 (left roots drawn from ``seed``), each as (value through the
    records' halves, value through halves built from raw arrays)."""
    n = params.n_sites
    for bra in records:
        for ket in records:
            if abs(bra.n_roots - ket.n_roots) > 1:
                continue
            raw = (
                _rows(params, -1.0, bra.bethe_roots),
                _columns(params, -1.0, ket.bethe_roots),
            )
            for site in range(1, n + 1):
                yield ff_sigma_minus(params, bra, ket, site), complex(
                    formfactors._lowering(
                        params, *raw, bra.tau_at_nodes, ket.tau_at_nodes, site
                    )
                )
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x5E7]))
    for rec in records:
        for m in range(rec.n_roots, n + 2):
            left = 2.5 + rng.normal(size=m) + 1j * rng.normal(size=m)
            yield (
                sp_with_eigenstate(params, left, rec),
                sp_on_shell(params, left, rec.bethe_roots),
            )


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_record_halves_give_the_raw_values(n_sites, seed):
    params = cached_params(n_sites, seed)
    records = cached_spectrum(n_sites, seed)
    pairs = list(_record_elements(params, records, seed))
    for held, raw in pairs:
        assert type(held) is complex
        assert np.array(held).tobytes() == np.array(raw).tobytes()
    # every record served as a bra through its own cached halves
    assert all("rows" in vars(rec) and "columns" in vars(rec) for rec in records)


def test_record_halves_are_read_only_and_built_once(monkeypatch):
    params = cached_params(3, 0)
    records = [replace(rec) for rec in cached_spectrum(3, 0)]
    built = []

    def counted(name):
        build = getattr(spectrum, name)

        def counting(*args):
            built.append(name)
            return build(*args)

        return counting

    for name in ("_rows", "_columns"):
        monkeypatch.setattr(spectrum, name, counted(name))
    for bra in records:
        for ket in records:
            for site in (1, 2, 3):
                ff_sigma_minus(params, bra, ket, site)
    # one row half per bra and one column half per ket, all records being
    # both (each sector neighbours one), however many elements read them
    assert sorted(built) == ["_columns"] * len(records) + ["_rows"] * len(records)
    for rec in records:
        assert rec.rows is rec.rows and rec.columns is rec.columns
        for half in (rec.rows, rec.columns):
            arrays = [value for value in half if isinstance(value, np.ndarray)]
            assert arrays
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
        # the halves hold views: the record's roots keep their flags
        assert rec.n_roots == 0 or np.shares_memory(rec.rows.xs, rec.bethe_roots)
        assert rec.bethe_roots.flags.writeable


def test_an_equal_valued_chain_builds_its_own_halves():
    params = cached_params(3, 0)
    records = cached_spectrum(3, 0)
    twin = ChainParams(params.n_sites, params.eta, params.xi, params.margin)
    assert twin is not params
    fresh = [replace(rec) for rec in records]
    for (held, _), (twin_value, _) in zip(
        _record_elements(params, records, 0), _record_elements(twin, fresh, 0)
    ):
        assert np.array(twin_value).tobytes() == np.array(held).tobytes()
    # the twin's halves were built per call, never cached on the records
    assert not any("rows" in vars(rec) or "columns" in vars(rec) for rec in fresh)


def test_records_of_another_chain_are_refused():
    params = cached_params(3, 0)
    foreign = cached_spectrum(3, 1)
    checked = 0
    for bra in foreign:
        for ket in foreign:
            if bra.n_roots == 0 or abs(bra.n_roots - ket.n_roots) > 1:
                continue
            with pytest.raises(NotOnShellError):
                ff_sigma_minus(params, bra, ket, 1)
            checked += 1
    assert checked > 0


def test_sx_check_raises_pairing_error_on_vanishing_overlap(monkeypatch):
    params = cached_params(2, 0)
    rec = cached_spectrum(2, 0)[0]
    dim = 2**params.n_sites
    left = np.zeros(dim, dtype=complex)
    right = np.zeros(dim, dtype=complex)
    left[0] = right[1] = 1.0
    monkeypatch.setattr(formfactors, "eigenstate_vectors", lambda p, r: (left, right))
    with pytest.raises(PairingError, match="overlap vanished"):
        sx_eigenvalue_check(params, rec)
