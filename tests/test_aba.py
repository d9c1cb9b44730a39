"""Bridge between separated eigenstates and algebraic product states."""

from __future__ import annotations

import numpy as np
import pytest

from sovxxx.aba import (
    weighted_expansion_crosscheck,
    bethe_state,
    column_substituted_slavnov,
    completeness_check,
    correspondence_report,
    expected_correspondence_constant,
    isospectrality_check,
    reference_state_identity,
    translation_check,
    translation_constant,
    translation_residual,
    twisted_eigen_residual,
    weighted_expansion_table,
)
from sovxxx.chain import fixture_params
from sovxxx.determinants import mu_bethe_residuals, slavnov_determinant
from sovxxx.formfactors import eigenstate_vectors, ff_sigma_minus

from conftest import cached_params, cached_spectrum, separated_cloud


@pytest.mark.parametrize("n_sites", [2, 3])
def test_eigenstate_dictionary_constant_on_both_sides(n_sites):
    params = cached_params(n_sites, 0)
    for rec in cached_spectrum(n_sites, 0):
        report = correspondence_report(params, rec, eigenstate_vectors(params, rec))
        assert report["spread"] <= 1e-9
        assert report["left_spread"] <= 1e-9
        expected = report["expected"]
        assert abs(report["ratio"] - expected) <= 1e-9 * abs(expected)
        assert abs(report["left_ratio"] - expected) <= 1e-9 * abs(expected)


def test_expected_constant_values():
    assert expected_correspondence_constant(2, 0) == pytest.approx(2.0)
    assert expected_correspondence_constant(2, 1) == pytest.approx(1.0)
    assert expected_correspondence_constant(2, 2) == pytest.approx(0.5)
    assert expected_correspondence_constant(3, 1) == pytest.approx(2.0 ** 0.5)
    assert expected_correspondence_constant(3, 2) == pytest.approx(-(2.0 ** -0.5))
    assert expected_correspondence_constant(4, 3) == pytest.approx(0.5)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 5])
def test_root_free_state_closed_form(n_sites):
    params = cached_params(n_sites, 0)
    assert reference_state_identity(params) <= 1e-12


@pytest.mark.parametrize("n_sites", [2, 3, 4, 6])
def test_antiperiodic_and_twisted_frames_share_spectra(n_sites):
    params = cached_params(n_sites, 0)
    assert isospectrality_check(params) <= 1e-9


def test_product_states_are_twisted_eigenvectors_with_low_residual():
    n_sites = 3
    params = cached_params(n_sites, 0)
    for rec in cached_spectrum(n_sites, 0):
        assert twisted_eigen_residual(params, rec) <= 1e-8
        res = mu_bethe_residuals(params, -1.0, rec.bethe_roots)
        assert res.max(initial=0.0) <= 1e-7


@pytest.mark.parametrize("n_sites", [2, 3])
def test_spectrum_transfer_is_complete(n_sites):
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    report = completeness_check(params, records)
    assert report["n_records"] == 2 ** n_sites
    assert report["n_eigen"] == 2 ** n_sites
    assert report["n_distinct"] == 2 ** n_sites


def test_equal_sector_weighted_expansions_agree():
    n_sites = 2
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    pairs = [
        (b, k)
        for b in records
        for k in records
        if b.n_roots == k.n_roots and 1 <= b.n_roots <= n_sites - 1
    ]
    assert pairs
    for bra, ket in pairs:
        for site in range(1, n_sites + 1):
            sov_value, aba_value, diff = weighted_expansion_crosscheck(
                params, bra, ket, site
            )
            scale = max(abs(sov_value), abs(aba_value), 1.0)
            assert diff <= 1e-9 * scale


@pytest.mark.parametrize("n_sites", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weighted_expansion_table_equals_each_crosscheck(n_sites, seed):
    params = cached_params(n_sites, seed)
    records = cached_spectrum(n_sites, seed)
    table = weighted_expansion_table(params, records)
    for i, bra in enumerate(records):
        for j, ket in enumerate(records):
            for site in range(1, n_sites + 1):
                stacked = [part[i, j, site - 1] for part in table]
                if bra.n_roots != ket.n_roots or bra.n_roots == 0:
                    assert stacked == [0.0, 0.0, 0.0]
                    continue
                one = weighted_expansion_crosscheck(params, bra, ket, site)
                for got, want in zip(stacked, one):
                    assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300)


def test_translation_constants_table():
    assert translation_constant(3, 1, 0) == pytest.approx(1.0)
    assert translation_constant(3, 2, 1) == pytest.approx(0.5)
    assert translation_constant(3, 1, -1) == pytest.approx(-0.5)
    assert translation_constant(4, 1, 1) == pytest.approx(-4.0)
    with pytest.raises(ValueError):
        translation_constant(3, 1, 2)


@pytest.mark.parametrize("n_sites", [2, 3])
def test_lowering_element_translates_to_product_frame(n_sites):
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    for bra in records:
        for ket in records:
            if abs(bra.n_roots - ket.n_roots) > 1:
                continue
            for site in range(1, n_sites + 1):
                _, _, rel = translation_check(params, bra, ket, site)
                assert rel <= 1e-9, (bra.n_roots, ket.n_roots, site)


@pytest.mark.parametrize("n_sites", [2, 3])
def test_translation_sweep_is_the_worst_single_element(n_sites):
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    sites = range(1, n_sites + 1)
    lowering = np.array(
        [
            [[ff_sigma_minus(params, bra, ket, s) for s in sites] for ket in records]
            for bra in records
        ]
    )
    worst = 0.0
    for bra in records:
        for ket in records:
            if abs(bra.n_roots - ket.n_roots) > 1:
                continue
            for site in sites:
                worst = max(worst, translation_check(params, bra, ket, site)[2])
    # the sweep's matrix products round differently from one element at a
    # time, by a few units in the last place of each element
    assert translation_residual(params, records, lowering) == pytest.approx(
        worst, abs=1e-14
    )
    counts = np.array([rec.n_roots for rec in records])
    gaps = np.abs(counts[:, None] - counts[None, :])
    # one adjacent-sector element off by 1e-6 shows as the worst gap, and
    # an element between distant sectors is not read
    near = tuple(np.argwhere(gaps <= 1)[-1]) + (n_sites - 1,)
    far = tuple(np.argwhere(gaps > 1)[0]) + (0,)
    perturbed = lowering.copy()
    perturbed[near] *= 1.0 + 1e-6
    perturbed[far] = 1.0
    assert translation_residual(params, records, perturbed) == pytest.approx(
        1e-6, rel=1e-5
    )


def test_single_site_product_state_is_bare_spin():
    params = fixture_params(1)
    empty = bethe_state(params, np.zeros(0, dtype=complex))
    assert np.allclose(empty, np.array([0.0, 1.0]))


def test_substituting_a_column_by_its_own_point_is_the_plain_determinant():
    params = cached_params(3, 0)
    rng = np.random.Generator(np.random.Philox(key=811))
    xi = np.asarray(params.xi, dtype=complex)
    checked = 0
    for rec in cached_spectrum(3, 0):
        if rec.n_roots == 0:
            continue
        xs = rec.bethe_roots
        ys = separated_cloud(
            rng, xs.size, params.eta, avoid=np.concatenate([xs, xi])
        )
        plain = slavnov_determinant(params, -1.0, xs, ys)
        for m in range(1, xs.size + 1):
            value = column_substituted_slavnov(params, -1.0, xs, ys, m, ys[m - 1])
            assert abs(value - plain) <= 1e-13 * abs(plain)
            checked += 1
    assert checked > 0
