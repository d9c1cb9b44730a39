"""Bridge between separated eigenstates and algebraic product states."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from sovxxx.aba import (
    _weighted_expansions,
    bethe_state,
    column_substituted_slavnov,
    completeness_check,
    correspondence_report,
    expected_correspondence_constant,
    isospectrality_check,
    left_bethe_state,
    product_states,
    reference_state_identity,
    translation_constant,
    translation_residual,
    weighted_expansion_table,
)
from sovxxx.chain import fixture_params
from sovxxx.dense import site_sigma
from sovxxx.determinants import mu_bethe_residuals, slavnov_determinant
from sovxxx.formfactors import eigenstate_vectors, ff_sigma_minus

from conftest import cached_params, cached_spectrum, separated_cloud


def one_expansion(params, bra, ket, site):
    """``_weighted_expansions`` for one bra, ket and site, from 1-D
    inputs: ``(sov_value, aba_value, diff)``."""
    ys = np.asarray(ket.bethe_roots, dtype=complex)
    shifted = ys + np.array([[-1.0], [1.0]]) * params.eta
    values = _weighted_expansions(
        params,
        np.asarray(bra.bethe_roots, dtype=complex),
        ys,
        npoly.polyval(shifted, bra.q_tau),
        npoly.polyval(shifted[0], ket.q_tau),
        site,
    )
    return complex(values[0]), complex(values[1]), float(values[2])


def translation_check(params, bra, ket, site):
    """Reference for ``translation_residual``, one element at a time:
    ``(sov_side, aba_side, rel_err)``, the lowering element against the
    product-state element of the sector gap's operator, each state built
    on its own.  Sector gaps beyond one give exact zeros."""
    gap = bra.n_roots - ket.n_roots
    sov_side = ff_sigma_minus(params, bra, ket, site)
    if abs(gap) > 1:
        return sov_side, 0.0 + 0.0j, float(abs(sov_side))
    sigma = site_sigma(params, site, {0: "z", 1: "+", -1: "-"}[gap])
    element = left_bethe_state(params, bra.bethe_roots) @ (
        sigma @ bethe_state(params, ket.bethe_roots)
    )
    aba_side = translation_constant(params.n_sites, bra.n_roots, gap) * complex(element)
    scale = max(abs(sov_side), abs(aba_side), 1e-300)
    return sov_side, aba_side, float(abs(sov_side - aba_side) / scale)


@pytest.mark.parametrize("n_sites", [2, 3])
def test_eigenstate_dictionary_constant_on_both_sides(n_sites):
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    vectors = [eigenstate_vectors(params, rec) for rec in records]
    reports = correspondence_report(
        params, records, product_states(params, records), vectors
    )
    assert len(reports) == len(records)
    for report in reports:
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
    records = cached_spectrum(n_sites, 0)
    rows, cols = product_states(params, records)
    assert completeness_check(params, records, (rows, cols))["max_residual"] <= 1e-8
    for rec in records:
        res = mu_bethe_residuals(params, -1.0, rec.bethe_roots)
        assert res.max(initial=0.0) <= 1e-7
    # a state that is no eigenvector shows in the residual and the count
    cols = cols.copy()
    cols[:, 1] = cols[:, 0] + cols[:, 2]
    report = completeness_check(params, records, (rows, cols))
    assert report["max_residual"] > 1e-3
    assert report["n_eigen"] == 2**n_sites - 1


@pytest.mark.parametrize("n_sites", [2, 3])
def test_spectrum_transfer_is_complete(n_sites):
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    report = completeness_check(params, records, product_states(params, records))
    assert report["n_records"] == 2 ** n_sites
    assert report["n_eigen"] == 2 ** n_sites
    assert report["n_distinct"] == 2 ** n_sites


def test_equal_sector_weighted_expansions_agree():
    n_sites = 2
    params = cached_params(n_sites, 0)
    records = cached_spectrum(n_sites, 0)
    sov_values, aba_values, diffs = weighted_expansion_table(params, records)
    pairs = [
        (i, j)
        for i, b in enumerate(records)
        for j, k in enumerate(records)
        if b.n_roots == k.n_roots and 1 <= b.n_roots <= n_sites - 1
    ]
    assert pairs
    for i, j in pairs:
        scale = np.maximum(abs(sov_values[i, j]), abs(aba_values[i, j]))
        assert np.all(diffs[i, j] <= 1e-9 * np.maximum(scale, 1.0))


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
                one = one_expansion(params, bra, ket, site)
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
    states = product_states(params, records)
    assert translation_residual(params, records, states, lowering) == pytest.approx(
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
    assert translation_residual(params, records, states, perturbed) == pytest.approx(
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
