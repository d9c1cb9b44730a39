"""Determinant matrix elements of single-site operators vs the dense oracle."""

from __future__ import annotations

import numpy as np
import pytest

from sovxxx.chain import fixture_params
from sovxxx.dense import global_flip, site_sigma
from sovxxx.formfactors import (
    eigenstate_vectors,
    ff_dense,
    ff_sigma_minus,
    ff_sigma_minus_unified,
    ff_sigma_plus,
    ff_sigma_z,
    is_same_eigenstate,
    reconstruct_sigma_minus,
    reconstruct_sigma_plus,
    sx_eigenvalue_check,
)
from sovxxx.spectrum import full_spectrum

from conftest import cached_params, cached_spectrum

OPS = {"-": ff_sigma_minus, "+": ff_sigma_plus, "z": ff_sigma_z}


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
                for op_key, op_fn in OPS.items():
                    value = op_fn(params, bra, ket, site)
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
                for op_key, op_fn in OPS.items():
                    assert abs(op_fn(params, bra, ket, site)) == 0.0
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
            assert ff_sigma_z(params, rec, rec, site) == 0.0
            scale = _pair_scale(params, rec, rec)
            assert abs(ff_dense(params, rec, rec, site, "z")) <= 1e-9 * scale


@pytest.mark.parametrize("n_sites", [3, 4, 5])
def test_operator_reconstruction_from_transfer_data(n_sites):
    params = cached_params(n_sites, 0)
    for site in range(1, n_sites + 1):
        for builder, kind in (
            (reconstruct_sigma_minus, "-"),
            (reconstruct_sigma_plus, "+"),
        ):
            built = builder(params, site)
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
    assert ff_sigma_plus(params, down, up, 1) == pytest.approx(0.5, abs=1e-10)
    assert ff_sigma_z(params, down, up, 1) == pytest.approx(1.0, abs=1e-10)
    # the bilinear pairing is symmetric, so the reversed orientation
    # gives the same value (the sector gap and the lowering element both
    # flip sign)
    assert ff_sigma_z(params, up, down, 1) == pytest.approx(1.0, abs=1e-10)


def test_z_sign_convention_is_the_derived_one():
    """The z element carries +2×(sector gap): flipping that overall sign
    breaks the single-site fixture and the dense comparison."""
    params = fixture_params(1)
    records = full_spectrum(params, 0)
    up = next(r for r in records if r.n_roots == 1)
    down = next(r for r in records if r.n_roots == 0)
    minus = ff_sigma_minus(params, down, up, 1)
    zval = ff_sigma_z(params, down, up, 1)
    gap = down.n_roots - up.n_roots
    assert zval == pytest.approx(2.0 * gap * minus, abs=1e-12)
    dense_val = ff_dense(params, down, up, 1, "z")
    wrong_sign = -zval
    assert abs(zval - dense_val) <= 1e-10
    assert abs(wrong_sign - dense_val) > 1.0


def test_same_eigenstate_detection():
    records = cached_spectrum(3, 0)
    for i, rec in enumerate(records):
        for j, other in enumerate(records):
            assert is_same_eigenstate(rec, other) == (i == j)


def test_site_index_bounds_are_enforced():
    params = cached_params(3, 0)
    records = cached_spectrum(3, 0)
    with pytest.raises(ValueError):
        ff_sigma_minus(params, records[0], records[1], 0)
    with pytest.raises(ValueError):
        ff_sigma_minus(params, records[0], records[1], 4)


def test_lattice_column_route_matches_dense_on_every_adjacent_element():
    n_sites = 3
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    checked = 0
    for bra in records:
        for ket in records:
            if abs(bra.n_roots - ket.n_roots) > 1:
                continue
            scale = _pair_scale(params, bra, ket)
            for site in range(1, n_sites + 1):
                value = ff_sigma_minus_unified(params, bra, ket, site)
                dense_val = ff_dense(params, bra, ket, site, "-")
                assert abs(value - dense_val) <= 1e-8 * scale
                checked += 1
    assert checked > 0
