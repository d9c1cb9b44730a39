"""Separated basis, separate states, and their dense realizations."""

from __future__ import annotations

import gc
import weakref
from itertools import product

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from sovxxx import chain, sov
from sovxxx.chain import (
    ChainParams,
    a_of,
    d_of,
    sample_generic_params,
    vandermonde,
)
from sovxxx.dense import basis_rotation, flipped_reference_state, monodromy
from sovxxx.sov import (
    SeparateStateSpec,
    bilinear,
    diagonal_eigenvalue,
    separate_state_dense,
    sov_basis,
    sov_gram_check,
    spec_from_roots,
)

from conftest import cached_params, separated_cloud, shifted_xi


def occupation_patterns(n_sites: int):
    """All occupation patterns as tuples, site 1 first, in integer order
    of the bitmask with site 1 as the most significant bit."""
    return product((0, 1), repeat=n_sites)


def pattern_index(h) -> int:
    idx = 0
    for bit in h:
        idx = (idx << 1) | int(bit)
    return idx


def sov_basis_state(params, h, side: str) -> np.ndarray:
    """One separated-basis vector for occupation pattern ``h``."""
    return sov_basis(params, side)[pattern_index(h)]


def gram_check_per_pattern(params) -> dict[str, float]:
    """Reference for ``sov_gram_check``: each Gram row normalized by its
    own weight, and the resolution of the identity accumulated one outer
    product per pattern."""
    right = sov_basis(params, "right")
    left = sov_basis(params, "left")
    gram = left @ right.T
    v_xi = vandermonde(params.xi)
    gram_res = 0.0
    recon = np.zeros((params.dim, params.dim), dtype=complex)
    for h in occupation_patterns(params.n_sites):
        idx = pattern_index(h)
        parity = (-1) ** sum(h)
        weight = v_xi * vandermonde(shifted_xi(params, np.asarray(h), direction=-1))
        target = np.zeros(params.dim)
        target[idx] = 1.0
        row = gram[idx] * parity * weight
        gram_res = max(gram_res, float(np.max(np.abs(row - target))))
        recon += parity * weight * np.outer(right[idx], left[idx])
    identity_res = float(np.max(np.abs(recon - np.eye(params.dim))))
    return {"gram": gram_res, "identity": identity_res}


def spec_alternating_one(params, side):
    """The separate state taking value +1 on the inhomogeneities and -1 on
    their down-shifts."""
    ones = np.ones(params.n_sites, dtype=complex)
    return SeparateStateSpec(side=side, values_at_xi=ones, values_at_xi_minus_eta=-ones)


def separate_state_aba(params, roots, base="one", side="right", companion_roots=None):
    """Separate state of a polynomial built operatorially: the ordered
    product of lower-right monodromy entries at the roots applied to the
    constant-one separate state, with sign (-1)^(R N).

    With ``base="one_alt"`` the complementary construction is used: the
    entries act at ``roots`` (the complementary root set) on the
    alternating-one state, and the prefactor carries the ratio of d
    values between ``companion_roots`` (the polynomial's own roots) and
    ``roots``, with sign (-1)^(N len(companion_roots)).  That
    construction is right-sided.
    """
    roots = np.asarray(roots, dtype=complex).ravel()
    n = params.n_sites
    if base == "one":
        base_spec = spec_from_roots(params, (), side)
        sign = (-1.0) ** (roots.size * n)
        prefactor = 1.0 + 0.0j
    else:
        assert base == "one_alt" and side == "right"
        companion = np.asarray(companion_roots, dtype=complex).ravel()
        base_spec = spec_alternating_one(params, side)
        sign = (-1.0) ** (companion.size * n)
        prefactor = np.prod(d_of(params, companion)) / np.prod(d_of(params, roots))
    state = separate_state_dense(params, base_spec)
    for lam in roots:
        entry = monodromy(params, lam)[1][1]
        state = entry @ state if side == "right" else state @ entry
    return sign * prefactor * state


def _compensated_separate_state(params, sspec) -> np.ndarray:
    """Reference for ``separate_state_dense``: one shifted Vandermonde and
    one site product per pattern, accumulated with Kahan compensation."""
    xi = params.xi
    site_w0 = sspec.values_at_xi
    if sspec.side == "left":
        site_w1 = sspec.values_at_xi_minus_eta
    else:
        dressing = a_of(params, xi) / d_of(params, xi - params.eta)
        site_w1 = dressing * sspec.values_at_xi_minus_eta
    basis = sov_basis(params, sspec.side)
    total = np.zeros(params.dim, dtype=complex)
    comp = np.zeros_like(total)
    for h in occupation_patterns(params.n_sites):
        arr = np.asarray(h)
        w = np.prod(np.where(arr == 1, site_w1, site_w0))
        w *= vandermonde(shifted_xi(params, arr, direction=-1))
        term = w * basis[pattern_index(h)] - comp
        new_total = total + term
        comp = (new_total - total) - term
        total = new_total
    return total


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5, 6])
def test_table_product_matches_compensated_reference(n_sites, spectrum_of):
    params = cached_params(n_sites, 0)
    rng = np.random.Generator(np.random.Philox(key=404 + n_sites))
    specs = []
    for m in range(n_sites + 1):
        roots = separated_cloud(rng, m, params.eta, avoid=params.xi)
        specs += [spec_from_roots(params, roots, side) for side in ("left", "right")]
    for rec in spectrum_of(n_sites, 0):
        for side in ("left", "right"):
            specs.append(
                SeparateStateSpec(
                    side,
                    npoly.polyval(params.xi, rec.q_tau),
                    npoly.polyval(params.xi - params.eta, rec.q_tau),
                )
            )
    for spec in specs:
        ref = _compensated_separate_state(params, spec)
        got = separate_state_dense(params, spec)
        assert np.max(np.abs(got - ref)) <= 1e-12 * float(np.max(np.abs(ref)))


@pytest.mark.parametrize("n_sites", [1, 3, 5])
def test_stacked_separate_states_match_each_spec(n_sites):
    params = cached_params(n_sites, 0)
    rng = np.random.Generator(np.random.Philox(key=406 + n_sites))
    for m in range(n_sites + 2):
        roots = np.array(
            [separated_cloud(rng, m, params.eta, avoid=params.xi) for _ in range(4)]
        ).reshape(2, 2, m)
        for side in ("left", "right"):
            stacked = spec_from_roots(params, roots, side)
            assert stacked.values_at_xi.shape == (2, 2, n_sites)
            got = separate_state_dense(params, stacked)
            assert got.shape == (2, 2, 2**n_sites)
            for index in np.ndindex(2, 2):
                one = spec_from_roots(params, roots[index], side)
                assert np.array_equal(stacked.values_at_xi[index], one.values_at_xi)
                ref = separate_state_dense(params, one)
                assert np.max(np.abs(got[index] - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5, 6, 7, 8])
def test_tables_match_per_pattern_evaluation(n_sites):
    params = cached_params(n_sites, 0)
    patterns = list(occupation_patterns(n_sites))
    assert params.occupation.astype(int).tolist() == [list(h) for h in patterns]
    ref = np.array(
        [vandermonde(shifted_xi(params, np.asarray(h), direction=-1)) for h in patterns],
        dtype=complex,
    )
    assert params.shifted_vandermonde.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n_sites", [1, 3, 5])
def test_root_spec_values_match_horner(n_sites):
    params = cached_params(n_sites, 0)
    rng = np.random.Generator(np.random.Philox(key=405 + n_sites))
    for m in range(n_sites + 2):
        roots = separated_cloud(rng, m, params.eta)
        coeffs = npoly.polyfromroots(roots)
        spec = spec_from_roots(params, roots, "right")
        for got, points in (
            (spec.values_at_xi, params.xi),
            (spec.values_at_xi_minus_eta, params.xi - params.eta),
        ):
            ref = npoly.polyval(points, coeffs)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale


def test_tables_are_built_once_per_chain(monkeypatch):
    params = sample_generic_params(3, 7)
    calls = {"monodromy": 0, "vandermonde": 0}
    for module, name in ((sov, "monodromy"), (chain, "vandermonde")):
        real = getattr(module, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    spec = spec_from_roots(params, [0.3 + 0.2j], "right")
    first = separate_state_dense(params, spec)
    # one ladder per node, one stacked shifted Vandermonde
    assert calls == {"monodromy": 3, "vandermonde": 1}
    calls.update(monodromy=0, vandermonde=0)
    second = separate_state_dense(params, spec)
    assert calls == {"monodromy": 0, "vandermonde": 0}
    assert np.array_equal(first, second)
    # an equal chain is another instance, with tables of its own
    twin = ChainParams(params.n_sites, params.eta, params.xi, params.margin)
    assert np.array_equal(separate_state_dense(twin, spec), first)
    assert calls == {"monodromy": 3, "vandermonde": 1}
    assert sov_basis(twin, "right") is not sov_basis(params, "right")


def test_tables_live_only_as_long_as_their_chain():
    refs = []
    for seed in range(20):
        params = sample_generic_params(3, 1000 + seed)
        for side in ("left", "right"):
            separate_state_dense(params, spec_from_roots(params, (), side))
            refs.append(weakref.ref(sov_basis(params, side)))
        refs.append(weakref.ref(params.occupation))
        refs.append(weakref.ref(params.shifted_vandermonde))
    del params
    gc.collect()
    assert sum(ref() is not None for ref in refs) == 0


@pytest.mark.parametrize("side", ["left", "right"])
def test_separated_basis_refuses_a_chain_that_is_not_generic(side):
    collapsed = ChainParams(n_sites=2, eta=1.0, xi=(0.1, 0.1 + 1e-9), margin=0.05)
    with pytest.raises(ValueError, match="not separated enough"):
        sov_basis(collapsed, side)
    with pytest.raises(ValueError, match="not separated enough"):
        separate_state_dense(collapsed, spec_from_roots(collapsed, (), side))
    # a refused build keeps nothing, so a later read refuses again
    assert not {"occupation", "shifted_vandermonde", "left_basis", "right_basis"} & set(
        vars(collapsed)
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("field", ["values_at_xi", "values_at_xi_minus_eta"])
def test_non_finite_spec_values_are_rejected(field, bad):
    values = {"values_at_xi": [1, 1, 1], "values_at_xi_minus_eta": [1, 1, 1]}
    values[field] = [1, bad, 1]
    with pytest.raises(ValueError, match="finite"):
        SeparateStateSpec("left", **values)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_roots_are_rejected(side, bad):
    with pytest.raises(ValueError, match="finite"):
        spec_from_roots(cached_params(3, 0), [0.5, bad], side)


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
def test_gram_and_identity_decomposition(n_sites):
    report = sov_gram_check(cached_params(n_sites, 0))
    assert report["gram"] <= 1e-9
    assert report["identity"] <= 1e-9


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5, 6])
def test_gram_check_matches_per_pattern_loop(n_sites):
    params = cached_params(n_sites, 0)
    got = sov_gram_check(params)
    ref = gram_check_per_pattern(params)
    # both are rounding-level residuals of order-one entries, summed in
    # different orders: they agree to a few ulps per basis vector
    bound = 4 * params.dim * np.finfo(float).eps
    assert got.keys() == ref.keys()
    for key in ref:
        assert abs(got[key] - ref[key]) <= bound


@pytest.mark.parametrize("n_sites", [2, 3])
def test_diagonal_eigenrelation_both_sides(n_sites):
    params = cached_params(n_sites, 0)
    rng = np.random.Generator(np.random.Philox(key=401))
    for _ in range(2):
        lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        dmat = monodromy(params, lam)[1][1]
        table = diagonal_eigenvalue(params, params.occupation, lam)
        for h in occupation_patterns(n_sites):
            assert table[pattern_index(h)] == pytest.approx(
                diagonal_eigenvalue(params, h, lam), rel=1e-14
            )
            val = diagonal_eigenvalue(params, h, lam)
            right = sov_basis_state(params, h, "right")
            left = sov_basis_state(params, h, "left")
            scale = max(abs(val), 1.0) * float(np.max(np.abs(right)))
            assert np.max(np.abs(dmat @ right - val * right)) <= 1e-10 * scale
            scale_l = max(abs(val), 1.0) * float(np.max(np.abs(left)))
            assert np.max(np.abs(left @ dmat - val * left)) <= 1e-10 * scale_l


def test_pattern_enumeration_and_index_are_inverse():
    pats = list(occupation_patterns(3))
    assert len(pats) == 8
    for k, h in enumerate(pats):
        assert pattern_index(h) == k


@pytest.mark.parametrize("n_sites", [3, 4])
def test_polynomial_spec_representations_agree(n_sites):
    params = cached_params(n_sites, 0)
    rng = np.random.Generator(np.random.Philox(key=402 + n_sites))
    for _ in range(10):
        m = int(rng.integers(0, n_sites + 1))
        roots = separated_cloud(rng, m, params.eta, avoid=params.xi)
        for side in ("left", "right"):
            spec = spec_from_roots(params, roots, side)
            dense = separate_state_dense(params, spec)
            aba = separate_state_aba(params, roots, side=side)
            scale = float(np.max(np.abs(dense)))
            assert np.max(np.abs(dense - aba)) <= 1e-10 * max(scale, 1e-300)


def test_complementary_operator_construction_matches_direct(spectrum_of):
    params = cached_params(3, 0)
    for rec in spectrum_of(3, 0):
        direct = separate_state_dense(
            params, spec_from_roots(params, rec.bethe_roots, "right")
        )
        alt = separate_state_aba(
            params,
            rec.q_minus_roots,
            base="one_alt",
            companion_roots=rec.bethe_roots,
        )
        scale = float(np.max(np.abs(direct)))
        assert np.max(np.abs(direct - alt)) <= 1e-10 * scale


def test_specs_are_projective_in_per_site_scalings():
    params = cached_params(3, 0)
    rng = np.random.Generator(np.random.Philox(key=403))
    top = rng.uniform(0.5, 1.5, 3) + 1j * rng.uniform(-1, 1, 3)
    bot = rng.uniform(0.5, 1.5, 3) + 1j * rng.uniform(-1, 1, 3)
    factors = rng.uniform(0.5, 2.0, 3) + 1j * rng.uniform(-0.5, 0.5, 3)
    base = SeparateStateSpec("right", tuple(top), tuple(bot))
    scaled = SeparateStateSpec("right", tuple(top * factors), tuple(bot * factors))
    v1 = separate_state_dense(params, base)
    v2 = separate_state_dense(params, scaled)
    expected = complex(np.prod(factors))
    assert np.max(np.abs(v2 - expected * v1)) <= 1e-12 * float(np.max(np.abs(v2)))


@pytest.mark.parametrize("n_sites", [1, 2, 3, 5])
def test_constant_one_state_is_spin_flip_product(n_sites):
    for seed in (0, 1):
        params = cached_params(n_sites, seed)
        vec = separate_state_dense(params, spec_from_roots(params, (), "right"))
        cell = np.array([1.0, -1.0], dtype=complex)
        expected = cell
        for _ in range(n_sites - 1):
            expected = np.kron(expected, cell)
        assert np.max(np.abs(vec - expected)) <= 1e-13
        # same product state through the twist rotation of the reference
        rot = basis_rotation(params)
        alt = (-np.sqrt(2.0)) ** n_sites * (
            rot.T @ flipped_reference_state(params)
        )
        assert np.max(np.abs(vec - alt)) <= 1e-12


def test_alternating_one_state_at_two_sites():
    params = cached_params(2, 0)
    vec = separate_state_dense(params, spec_alternating_one(params, "right"))
    expected = np.kron([1.0, 1.0], [1.0, 1.0]).astype(complex)
    scale = vec[0] / expected[0]
    assert abs(scale) > 0
    assert np.max(np.abs(vec - scale * expected)) <= 1e-11 * abs(scale)


def test_bilinear_is_plain_dot_without_conjugation():
    left = np.array([1.0 + 2.0j, -1.0j])
    right = np.array([0.5, 2.0 - 1.0j])
    value = bilinear(left, right)
    assert value == pytest.approx((1.0 + 2.0j) * 0.5 + (-1.0j) * (2.0 - 1.0j))
