"""Dense tensor-product oracle: transfer family, symmetries, spectra."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from sovxxx.chain import fixture_params
from sovxxx.dense import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    U_ROTATION,
    _site_product,
    basis_rotation,
    default_eval_point,
    diagonalize_transfer,
    global_flip,
    hamiltonian_limit_check,
    hamiltonian_pauli,
    monodromy,
    quantum_det_check,
    site_operator,
    site_sigma,
    transfer_antiperiodic,
    transfer_twisted,
)

from conftest import cached_params, lagrange_interpolate, total_sx


def _norm(mat):
    return max(float(np.max(np.abs(mat))), 1e-300)


def _reference_r_blocks(mu, eta):
    blocks = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            blk = mu * IDENTITY_2.copy() if i == j else np.zeros((2, 2), dtype=complex)
            blk = np.array(blk, dtype=complex)
            blk[j, i] += eta
            blocks[i][j] = blk
    return blocks


def _reference_monodromy(params, lam):
    """The monodromy as block-by-block kron sums, the site-by-site product
    the stacked builder must reproduce bit for bit."""
    blocks = [
        [np.eye(1, dtype=complex) * (1 if i == j else 0) for j in range(2)]
        for i in range(2)
    ]
    for n in range(params.n_sites):
        r = _reference_r_blocks(lam - params.xi[n], params.eta)
        dim = blocks[0][0].shape[0] * 2
        new = [[np.zeros((dim, dim), dtype=complex) for _ in range(2)] for _ in range(2)]
        for i in range(2):
            for k in range(2):
                for j in range(2):
                    new[i][k] += np.kron(blocks[j][k], r[i][j])
        blocks = new
    return blocks


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5, 6])
def test_monodromy_equals_kron_reference_bit_for_bit(n_sites):
    params = cached_params(n_sites, 0)
    points = [
        default_eval_point(params, 0),
        0.37 - 0.58j,
        -1.3 + 0.2j,
        0.0,
        complex(params.xi[0]),
        complex(params.xi[-1] - params.eta),
    ]
    for lam in points:
        blocks = monodromy(params, lam)
        ref = _reference_monodromy(params, lam)
        for i in range(2):
            for k in range(2):
                assert blocks[i][k].shape == (2**n_sites, 2**n_sites)
                assert blocks[i][k].tobytes() == ref[i][k].tobytes()


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
def test_stacked_points_equal_one_point_builds_bit_for_bit(n_sites):
    params = cached_params(n_sites, 0)
    points = np.array(
        [
            [default_eval_point(params, 0), 0.37 - 0.58j, 0.0],
            [params.xi[0], params.xi[-1] - params.eta, -1.3 + 0.2j],
        ]
    )
    blocks = monodromy(params, points)
    anti = transfer_antiperiodic(params, points)
    twisted = transfer_twisted(params, points)
    dim = 2**n_sites
    assert anti.shape == twisted.shape == points.shape + (dim, dim)
    for idx in np.ndindex(points.shape):
        one = monodromy(params, points[idx])
        for i in range(2):
            for k in range(2):
                assert np.array_equal(blocks[i][k][idx], one[i][k])
        assert np.array_equal(anti[idx], transfer_antiperiodic(params, points[idx]))
        assert np.array_equal(twisted[idx], transfer_twisted(params, points[idx]))
    # a list of points is a stack, and an empty one gives empty entries
    listed = transfer_antiperiodic(params, list(points[0]))
    assert np.array_equal(listed, anti[0])
    assert monodromy(params, np.array([]))[1][0].shape == (0, dim, dim)


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
def test_transfer_family_commutes(n_sites):
    params = cached_params(n_sites, 0)
    rng = np.random.Generator(np.random.Philox(key=301 + n_sites))
    for _ in range(5):
        z1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        t1 = transfer_antiperiodic(params, z1)
        t2 = transfer_antiperiodic(params, z2)
        comm = t1 @ t2 - t2 @ t1
        assert np.max(np.abs(comm)) <= 1e-10 * _norm(t1) * _norm(t2)


@pytest.mark.parametrize("n_sites", [3, 4])
def test_transfer_entries_have_degree_below_site_count(n_sites):
    params = cached_params(n_sites, 0)
    nodes = [default_eval_point(params, k) + 0.21j * k for k in range(n_sites)]
    held_out = default_eval_point(params, n_sites) + 1.3 - 0.7j
    mats = [transfer_antiperiodic(params, z) for z in nodes]
    target = transfer_antiperiodic(params, held_out)
    dim = 2**n_sites
    rebuilt = np.zeros_like(target)
    for i in range(dim):
        for j in range(dim):
            row = lagrange_interpolate(nodes, [m[i, j] for m in mats])
            rebuilt[i, j] = npoly.polyval(held_out, row)
    assert np.max(np.abs(rebuilt - target)) <= 1e-9 * _norm(target)


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_quantum_determinant_factorizes(n_sites):
    params = cached_params(n_sites, 0)
    rng = np.random.Generator(np.random.Philox(key=311 + n_sites))
    for _ in range(4):
        lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        assert quantum_det_check(params, lam) <= 1e-10


@pytest.mark.parametrize("n_sites", [2, 4])
def test_spin_flip_symmetries(n_sites):
    params = cached_params(n_sites, 0)
    lam = default_eval_point(params, 1)
    flip = global_flip(params)
    anti = transfer_antiperiodic(params, lam)
    twisted = transfer_twisted(params, lam)
    assert np.max(np.abs(flip @ anti @ flip - anti)) <= 1e-10 * _norm(anti)
    assert np.max(np.abs(flip @ twisted @ flip + twisted)) <= 1e-10 * _norm(twisted)


@pytest.mark.parametrize("n_sites", [2, 3, 5])
def test_rotation_similarity_between_twists(n_sites):
    params = cached_params(n_sites, 0)
    rot = basis_rotation(params)
    assert np.max(np.abs(rot @ rot.T - np.eye(2**n_sites))) <= 1e-12
    lam = default_eval_point(params, 0)
    anti = transfer_antiperiodic(params, lam)
    twisted = transfer_twisted(params, lam)
    assert np.max(np.abs(rot @ anti @ rot.T - twisted)) <= 1e-10 * _norm(twisted)


def test_monodromy_blocks_assemble_the_transfer():
    params = cached_params(3, 0)
    lam = 0.37 - 0.58j
    blocks = monodromy(params, lam)
    anti = transfer_antiperiodic(params, lam)
    twisted = transfer_twisted(params, lam)
    assert np.max(np.abs(blocks[0][1] + blocks[1][0] - anti)) <= 1e-12 * _norm(anti)
    assert (
        np.max(np.abs(blocks[0][0] - blocks[1][1] - twisted))
        <= 1e-12 * _norm(twisted)
    )


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_eigen_decomposition_is_biorthonormal(n_sites):
    params = cached_params(n_sites, 0)
    rights, lefts = diagonalize_transfer(params)
    assert rights.shape == lefts.shape == (2**n_sites, 2**n_sites)
    lam0 = default_eval_point(params, 0)
    mat = transfer_antiperiodic(params, lam0)
    for k, (right, left) in enumerate(zip(rights.T, lefts)):
        # eigenvectors are shared by the whole commuting family, so the
        # pair must diagonalize the transfer at any probe point
        val_at = left @ (mat @ right)
        assert np.linalg.norm(mat @ right - val_at * right) <= 1e-8 * _norm(
            mat
        ) * np.linalg.norm(right)
        for j, right_j in enumerate(rights.T):
            want = 1.0 if j == k else 0.0
            assert abs(left @ right_j - want) <= 1e-9


def test_hamiltonian_forms_agree_in_homogeneous_limit():
    assert hamiltonian_limit_check(2, 0.0) <= 1e-9
    assert hamiltonian_limit_check(3, 0.0) <= 1e-9


def test_hamiltonian_forms_deviation_decays_linearly():
    values = [hamiltonian_limit_check(3, eps) for eps in (1e-2, 1e-3, 1e-4)]
    assert values[1] <= 0.2 * values[0]
    assert values[2] <= 0.2 * values[1]


def test_local_operators_and_total_sx():
    params = fixture_params(1)
    minus = site_sigma(params, 1, "-")
    assert np.allclose(minus, [[0, 0], [1, 0]])
    plus = site_sigma(params, 1, "+")
    assert np.allclose(plus, [[0, 1], [0, 0]])
    z = site_sigma(params, 1, "z")
    assert np.allclose(z, [[1, 0], [0, -1]])
    sx = total_sx(cached_params(2, 0))
    assert np.allclose(sx, sx.T)
    assert np.allclose(np.sort(np.linalg.eigvalsh(sx)), [-2.0, 0.0, 0.0, 2.0])


def _kron_chain(factors):
    """The Kronecker product of per-site factors by numpy's ``kron``."""
    out = np.ones((1, 1), dtype=complex)
    for factor in factors:
        out = np.kron(out, factor)
    return out


def _pauli_sum_of_products(n_sites):
    """The Pauli Hamiltonian summed bond by bond as the dense product of
    its two site operators, each a ``kron`` chain."""

    def embedded(site, local):
        chain = [local if n == site else IDENTITY_2 for n in range(1, n_sites + 1)]
        return _kron_chain(chain)

    dim = 2**n_sites
    ham = np.zeros((dim, dim), dtype=complex)
    for n in range(1, n_sites + 1):
        for local in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            left = embedded(n, local)
            if n < n_sites:
                right = embedded(n + 1, local)
            else:
                right = embedded(1, SIGMA_X @ local @ SIGMA_X)
            ham += left @ right
        ham -= np.eye(dim)
    return ham


@pytest.mark.parametrize("n_sites", range(1, 9))
def test_site_product_equals_kron_chain_bit_for_bit(n_sites):
    # random factors with negative and signed-zero entries, then every
    # local operator at every site
    rng = np.random.Generator(np.random.Philox(key=[211, n_sites]))
    factors = rng.standard_normal((n_sites, 2, 2, 2)) @ np.array([1.0, 1j])
    factors[:, 0, 1] = -0.0
    assert _site_product(factors).tobytes() == _kron_chain(factors).tobytes()
    for local in (SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA_PLUS, SIGMA_MINUS, U_ROTATION):
        for site in range(1, n_sites + 1):
            chain = [local if n == site else IDENTITY_2 for n in range(1, n_sites + 1)]
            built = site_operator(n_sites, site, local)
            assert built.tobytes() == _kron_chain(chain).tobytes()


@pytest.mark.parametrize("n_sites", range(1, 9))
def test_hamiltonian_pauli_equals_sum_of_site_operator_products(n_sites):
    ham = hamiltonian_pauli(n_sites)
    assert ham.tobytes() == _pauli_sum_of_products(n_sites).tobytes()
