"""Exact dense tensor-product representation of the twisted chain.

Everything downstream is validated against this module: it multiplies
the 2x2 auxiliary-space blocks of the rational two-spin scattering
matrix into the monodromy whose entries act on the full 2^N quantum
space (its four entries stacked in one array and advanced one site at
a time by one broadcast product per auxiliary index), forms the spin-flip-twisted
transfer matrix (off-diagonal entry sum) and its companion twisted by
the diagonal Pauli matrix, and diagonalizes the former with
biorthogonal left/right eigenvector pairs.  The monodromy and both
transfer matrices take an array of spectral points as well as one
point: leading axes of the point array lead the result, every entry
equal bit for bit to the one-point build.  The monodromy is built only
this way: the transfer matrix's derivative at the origin, for the local
Hamiltonian, is a coefficient of its polynomial interpolated from one
stacked build.  The site operators, the global flip, the basis
rotation and each bond term of the Pauli Hamiltonian are one Kronecker
chain over per-site 2x2 factors (a bond's factors are the sitewise
products of its two site operators), each step one broadcast outer
product.
Dense linear algebra keeps every object explicit; the intended regime
is at most eight sites.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainParams, a_of, d_of
from .errors import PairingError
from .polynomials import cardinal_coefficients

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
# Rotation mapping the x Pauli matrix to the z one by conjugation.
U_ROTATION = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2.0)
for _m in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA_PLUS, SIGMA_MINUS, U_ROTATION):
    _m.setflags(write=False)

# (i, j) of every auxiliary block, for the eta entry [i, j, j, i] of each
_AUX_I = np.array([0, 0, 1, 1])
_AUX_J = np.array([0, 1, 0, 1])


def _site_factors(params: ChainParams, lam: np.ndarray) -> np.ndarray:
    """Every site's scattering matrix at every point of ``lam`` as 2x2
    auxiliary-space blocks, site first: ``[n][..., i, j, :, :]`` is the
    local 2x2 operator mu*delta_ij*Id + eta*E_ji with mu = lam - xi[n],
    over the shape of ``lam``."""
    mu = lam[None] - params.xi.reshape((-1,) + (1,) * lam.ndim)
    blocks = np.zeros(mu.shape + (2, 2, 2, 2), dtype=complex)
    diagonal = mu[..., None, None] * IDENTITY_2
    blocks[..., 0, 0, :, :] = diagonal
    blocks[..., 1, 1, :, :] = diagonal
    blocks[..., _AUX_I, _AUX_J, _AUX_J, _AUX_I] += params.eta
    return blocks


def _site_product(factors) -> np.ndarray:
    """The Kronecker product of per-site 2x2 factors, site 1 first: each
    step is the broadcast outer product of the chain so far with the next
    factor, in that operand order, so every entry equals numpy's ``kron``
    chain bit for bit."""
    out = np.ones((1, 1), dtype=complex)
    for factor in factors:
        rows, cols = out.shape
        out = out[:, None, :, None] * factor[None, :, None, :]
        out = out.reshape(2 * rows, 2 * cols)
    return out


def site_operator(n_sites: int, site: int, local: np.ndarray) -> np.ndarray:
    """Embed a 2x2 operator at a 1-based site; site 1 is the first factor."""
    if not 1 <= site <= n_sites:
        raise ValueError(f"site index {site} outside 1..{n_sites}")
    return _site_product(
        local if n == site else IDENTITY_2 for n in range(1, n_sites + 1)
    )


def _site_step(blocks: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Advance stacked monodromy entries by one site.

    ``blocks[..., j, k, :, :]`` is entry (j, k) on the sites so far and
    ``r[..., i, j, :, :]`` the 2x2 local block of the new site's factor;
    the result is ``new[i, k] = sum_j kron(blocks[j, k], r[i, j])``,
    over the broadcast leading (spectral point) axes of both.  One
    broadcast product per j forms every elementwise product a Kronecker
    product would, and the two are added to zeros in the order j = 0, 1,
    so every entry, signed zeros included, equals the block-by-block
    Kronecker sum bit for bit, whatever the stack.  Only one j term is
    alive at a time, so the largest temporary is one result-sized term
    rather than two.
    """
    dim = blocks.shape[-1]
    term = blocks[..., None, 0, :, :, None, :, None] * r[..., :, 0, None, None, :, None, :]
    out = np.zeros(term.shape, dtype=complex)
    out += term
    del term
    out += blocks[..., None, 1, :, :, None, :, None] * r[..., :, 1, None, None, :, None, :]
    return out.reshape(out.shape[:-6] + (2, 2, 2 * dim, 2 * dim))


def _unstack(blocks: np.ndarray) -> list[list[np.ndarray]]:
    return [
        [blocks[..., 0, 0, :, :], blocks[..., 0, 1, :, :]],
        [blocks[..., 1, 0, :, :], blocks[..., 1, 1, :, :]],
    ]


def monodromy(params: ChainParams, lam) -> list[list[np.ndarray]]:
    """The 2x2 auxiliary-space monodromy, entries acting on the chain.

    Ordered product of site scattering matrices with the highest site
    leftmost.  The four entries are kept as one stacked ``(..., 2, 2, d,
    d)`` array and advanced one site at a time (``_site_step``).
    ``lam`` is one spectral point or an array of them; each entry then
    carries the array's shape in front of its ``(d, d)``, and entry
    ``[k]`` of the stack equals the build at ``lam[k]`` bit for bit.
    Returns ``[[A, B], [C, D]]``.
    """
    blocks = np.eye(2, dtype=complex).reshape(2, 2, 1, 1)
    for r in _site_factors(params, np.asarray(lam, dtype=complex)):
        blocks = _site_step(blocks, r)
    return _unstack(blocks)


def transfer_antiperiodic(params: ChainParams, lam) -> np.ndarray:
    """Spin-flip-twisted transfer matrix: sum of off-diagonal entries.
    An array of points gives a stack of matrices (``monodromy``)."""
    blocks = monodromy(params, lam)
    return blocks[0][1] + blocks[1][0]


def transfer_twisted(params: ChainParams, lam) -> np.ndarray:
    """Companion transfer matrix twisted by the diagonal Pauli matrix:
    difference of diagonal entries.  An array of points gives a stack of
    matrices (``monodromy``)."""
    blocks = monodromy(params, lam)
    return blocks[0][0] - blocks[1][1]


def reference_state(params: ChainParams) -> np.ndarray:
    """All spins up."""
    vec = np.zeros(params.dim, dtype=complex)
    vec[0] = 1.0
    return vec


def flipped_reference_state(params: ChainParams) -> np.ndarray:
    """All spins down."""
    vec = np.zeros(params.dim, dtype=complex)
    vec[-1] = 1.0
    return vec


def quantum_det_check(params: ChainParams, lam: complex) -> float:
    """Relative residual of the quantum determinant identity.

    The combination B(lam) C(lam-eta) - A(lam) D(lam-eta) must be
    proportional to the identity with factor -a(lam) d(lam-eta).
    """
    # the monodromy at lam and at lam - eta, from one stacked build
    (a, b), (c, d) = monodromy(params, [lam, lam - params.eta])
    bc, ad = b[0] @ c[1], a[0] @ d[1]
    target = -a_of(params, lam) * d_of(params, lam - params.eta)
    res = bc - ad - target * np.eye(params.dim)
    scale = max(np.linalg.norm(bc), np.linalg.norm(ad), abs(target), 1e-300)
    return float(np.linalg.norm(res) / scale)


def global_flip(params: ChainParams) -> np.ndarray:
    """Product over sites of the x Pauli matrix (an involution)."""
    return _site_product([SIGMA_X] * params.n_sites)


def basis_rotation(params: ChainParams) -> np.ndarray:
    """Sitewise rotation conjugating the antiperiodic transfer matrix into
    its diagonally twisted companion."""
    return _site_product([U_ROTATION] * params.n_sites)


def site_sigma(params: ChainParams, site: int, kind: str) -> np.ndarray:
    """Local Pauli/ladder operator at a 1-based site.

    ``kind`` is one of "x", "y", "z", "+", "-".
    """
    local = {
        "x": SIGMA_X,
        "y": SIGMA_Y,
        "z": SIGMA_Z,
        "+": SIGMA_PLUS,
        "-": SIGMA_MINUS,
    }[kind]
    return site_operator(params.n_sites, site, local)


_LAM0_DIRECTIONS = (
    0.37 + 0.41j,
    -0.29 + 0.53j,
    0.61 - 0.47j,
    -0.55 - 0.39j,
    0.13 + 0.71j,
    0.47 + 0.19j,
)


def default_eval_point(params: ChainParams, index: int = 0) -> complex:
    """Deterministic generic evaluation points away from the spectrum of
    inhomogeneities, scaled to the parameter spread."""
    center = complex(np.mean(params.xi))
    spread = max(1.0, float(np.max(np.abs(params.xi - center))) + abs(params.eta))
    return center + spread * _LAM0_DIRECTIONS[index % len(_LAM0_DIRECTIONS)]


def diagonalize_transfer(params: ChainParams) -> tuple[np.ndarray, np.ndarray]:
    """Biorthogonal right and left eigenvectors of the antiperiodic
    transfer matrix: the right ones as columns, the left ones as rows,
    both sorted by the eigenvalue at the evaluation point (real part
    first).

    The transfer matrix family commutes with itself, so a single generic
    evaluation point determines the common eigenvectors.  Left rows come
    from the inverse of the right eigenvector matrix, which makes the
    pairing biorthonormal by construction.  A near-degenerate spectrum
    at the chosen point triggers a retry at the next deterministic
    candidate; running out of candidates raises ``PairingError``.
    """
    last_gap = np.inf
    for index in range(len(_LAM0_DIRECTIONS)):
        cand = default_eval_point(params, index)
        tmat = transfer_antiperiodic(params, cand)
        vals, right = np.linalg.eig(tmat)
        scale = float(np.max(np.abs(vals)))
        diff = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(diff, np.inf)
        last_gap = float(np.min(diff))
        if last_gap < 1e-6 * scale:
            continue
        left = np.linalg.inv(right)
        resid = np.linalg.norm(tmat @ right - right * vals[None, :])
        if resid > 1e-9 * np.linalg.norm(tmat) * np.sqrt(params.dim):
            continue
        order = np.lexsort((vals.imag, vals.real))
        # C order: numpy picks its loops by memory layout, and a column
        # norm of the Fortran-ordered array LAPACK returns rounds
        # differently
        return np.ascontiguousarray(right[:, order]), left[order]
    raise PairingError(
        "transfer spectrum stayed near-degenerate at every candidate point "
        f"(last gap {last_gap:.3e})"
    )


def hamiltonian_pauli(n_sites: int) -> np.ndarray:
    """Nearest-neighbour Heisenberg Hamiltonian closed by a spin flip.

    Sum over bonds of the three Pauli exchange terms minus one, with the
    site past the end identified with the first site conjugated by its
    own x Pauli matrix.
    """
    if n_sites < 1:
        raise ValueError("a chain needs at least one site")
    dim = 2**n_sites
    ham = np.zeros((dim, dim), dtype=complex)
    for n in range(n_sites):
        for local in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            # the product of the bond's two site operators is the Kronecker
            # chain of their sitewise products (the mixed-product property);
            # on one site the closing bond's two factors share site 1
            factors = [IDENTITY_2] * n_sites
            factors[n] = local
            if n + 1 < n_sites:
                factors[n + 1] = local
            else:
                factors[0] = factors[0] @ (SIGMA_X @ local @ SIGMA_X)
            ham += _site_product(factors)
        ham -= np.eye(dim)
    return ham


def hamiltonian_from_transfer(params: ChainParams) -> np.ndarray:
    """Logarithmic derivative of the antiperiodic transfer matrix at the
    origin, normalized to the Pauli Hamiltonian convention:
    2 eta T(0)^{-1} T'(0) - 2 N.

    T(0) and T'(0) are the two lowest coefficients of the transfer
    polynomial (degree N - 1), interpolated from one stacked build at the
    N + 1 roots of unity scaled by ``pole_scale``.
    """
    n = params.n_sites
    points = params.pole_scale * np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    lowest = cardinal_coefficients(points)[:, :2]
    tmat, dtmat = np.tensordot(lowest.T, transfer_antiperiodic(params, points), axes=1)
    return 2.0 * params.eta * np.linalg.solve(tmat, dtmat) - 2.0 * n * np.eye(params.dim)


def hamiltonian_limit_check(n_sites: int, eps: float) -> float:
    """Relative deviation between the Pauli Hamiltonian and the transfer
    logarithmic derivative for the near-homogeneous family xi_n = eps*n.

    At eps = 0 the two agree exactly; for small eps the deviation decays
    linearly.  This is the one place a fully homogeneous parameter set is
    meaningful, so no separation condition is enforced here.
    """
    xi = eps * np.arange(1, n_sites + 1, dtype=float)
    params = ChainParams(n_sites=n_sites, eta=1.0, xi=xi, margin=0.0)
    h_pauli = hamiltonian_pauli(n_sites)
    h_transfer = hamiltonian_from_transfer(params)
    dev = np.linalg.norm(h_transfer - h_pauli)
    return float(dev / max(1.0, np.linalg.norm(h_pauli)))
