"""Chain parameters, eigenvalue-function factorizations, node guards."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from sovxxx.chain import (
    ChainParams,
    a_of,
    d_of,
    fixture_params,
    require_generic,
    sample_generic_params,
    vandermonde,
)

from conftest import cached_params, shifted_xi


def _vandermonde_shift_check(params: ChainParams, h) -> tuple[complex, complex]:
    """Both sides of the occupied-slot Vandermonde shift identity.

    For occupation pattern ``h`` the product over occupied slots n of
    prod_{m != n} (xi_n - xi_m + eta)/(xi_n - xi_m - eta), multiplied by
    the Vandermonde of the down-shifted set, equals the Vandermonde of
    the up-shifted set.  Returns (lhs, rhs) for the caller to compare.
    """
    h = np.asarray(h).ravel()
    if h.size != params.n_sites:
        raise ValueError("occupation pattern must have one entry per site")
    xi = params.xi
    eta = params.eta
    ratio = 1.0 + 0.0j
    for n in range(params.n_sites):
        if not h[n]:
            continue
        others = np.delete(xi, n)
        ratio *= np.prod((xi[n] - others + eta) / (xi[n] - others - eta))
    lhs = ratio * vandermonde(shifted_xi(params, h, direction=-1))
    rhs = vandermonde(shifted_xi(params, h, direction=+1))
    return complex(lhs), complex(rhs)


def _params_to_json(params: ChainParams) -> dict:
    """JSON-ready description of a parameter set (floats as [re, im] pairs)."""
    return {
        "n_sites": params.n_sites,
        "eta": [params.eta.real, params.eta.imag],
        "xi": [[z.real, z.imag] for z in params.xi],
        "margin": params.margin,
    }


def _params_from_json(data: dict) -> ChainParams:
    eta = complex(data["eta"][0], data["eta"][1])
    xi = np.array([complex(re, im) for re, im in data["xi"]], dtype=complex)
    return ChainParams(
        n_sites=int(data["n_sites"]), eta=eta, xi=xi, margin=float(data["margin"])
    )


def test_a_equals_d_shifted_by_eta():
    params = cached_params(4, 0)
    rng = np.random.Generator(np.random.Philox(key=201))
    for _ in range(100):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        left = a_of(params, lam)
        right = d_of(params, lam + params.eta)
        assert abs(left - right) <= 1e-13 * max(1.0, abs(left))


def test_site_factors_compose_to_a_times_d():
    params = cached_params(5, 1)
    rng = np.random.Generator(np.random.Philox(key=202))
    for _ in range(25):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        per_site = np.prod(
            [
                (lam - xi + params.eta) * (lam - xi)
                for xi in params.xi
            ]
        )
        combined = a_of(params, lam) * d_of(params, lam)
        assert abs(per_site - combined) <= 1e-12 * max(1.0, abs(combined))


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6])
def test_shifted_vandermonde_identity_over_all_patterns(n_sites):
    params = cached_params(n_sites, 0)
    for h in product((0, 1), repeat=n_sites):
        lhs, rhs = _vandermonde_shift_check(params, h)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_vandermonde_natural_order():
    assert vandermonde([2.0]) == 1.0
    assert vandermonde([1.0, 3.0]) == pytest.approx(2.0)
    assert vandermonde([0.0, 1.0, 3.0]) == pytest.approx(1.0 * 3.0 * 2.0)
    # a stack of sets, stack shapes of one member included: each member
    # equals its one-set call bit for bit
    rng = np.random.Generator(np.random.Philox(key=203))
    for shape in ((1,), (1, 1), (3,), (2, 4)):
        for size in range(9):
            sets = rng.standard_normal(shape + (size, 2)) @ np.array([1.0, 1j])
            stacked = vandermonde(sets)
            assert stacked.shape == shape
            for index in np.ndindex(shape):
                one = np.complex128(vandermonde(sets[index]))
                assert stacked[index].tobytes() == one.tobytes()


def test_fixture_values():
    one = fixture_params(1)
    assert one.n_sites == 1 and one.eta == 1.0 and tuple(one.xi) == (0.0,)
    two = fixture_params(2)
    assert two.n_sites == 2 and tuple(two.xi) == (0.0, 2.0)


def test_sampling_is_deterministic_and_generic():
    first = sample_generic_params(4, 9, None)
    second = sample_generic_params(4, 9, None)
    assert first.eta == second.eta
    assert np.array_equal(np.asarray(first.xi), np.asarray(second.xi))
    assert first.margin == second.margin
    require_generic(first)
    assert abs(first.eta) >= 0.5


def test_sampling_rejects_nonpositive_margin():
    with pytest.raises(ValueError):
        sample_generic_params(3, 0, -0.1)


def test_require_generic_rejects_collapsed_nodes():
    params = fixture_params(1)
    collapsed = type(params)(
        n_sites=2, eta=1.0, xi=(0.1, 0.1 + 1e-9), margin=0.05
    )
    with pytest.raises(ValueError):
        require_generic(collapsed)


def _deficit_loop(params: ChainParams) -> float:
    """The separation deficit as one loop over ordered site pairs and the
    shifts -1, 0, 1."""
    xi, eta = params.xi, params.eta
    vals = [abs(eta)]
    for a, b in product(range(params.n_sites), repeat=2):
        if a != b:
            vals += [abs(xi[a] - xi[b] - h * eta) for h in (-1, 0, 1)]
    return min(vals)


@pytest.mark.parametrize("n_sites", [1, 2, 5, 8])
def test_chain_only_values_are_computed_once(n_sites):
    params = sample_generic_params(n_sites, 3, None)
    deficit = params.separation_deficit
    assert deficit is params.separation_deficit
    assert deficit == _deficit_loop(params) and deficit >= params.margin
    product_ = params.a_node_product
    assert product_ is params.a_node_product
    assert np.array(product_).tobytes() == np.array(params.a_at_nodes.prod()).tobytes()


def test_require_generic_reports_the_cached_deficit():
    collapsed = ChainParams(n_sites=2, eta=1.0, xi=(0.1, 0.1 + 1e-9), margin=0.05)
    with pytest.raises(ValueError, match=f"deficit {collapsed.separation_deficit:.3e}"):
        require_generic(collapsed)


def test_json_roundtrip():
    params = cached_params(3, 2)
    data = _params_to_json(params)
    back = _params_from_json(data)
    assert back.n_sites == params.n_sites
    assert back.eta == pytest.approx(params.eta)
    assert np.allclose(np.asarray(back.xi), np.asarray(params.xi))


@pytest.mark.parametrize(
    "eta, xi",
    [
        (float("nan"), (0.0, 2.0)),
        (1.0, (0.0, float("nan"))),
        (1.0, (complex(0.0, np.inf), 2.0)),
    ],
)
def test_non_finite_parameters_are_rejected(eta, xi):
    with pytest.raises(ValueError):
        ChainParams(n_sites=2, eta=eta, xi=xi)
