"""Separated basis and separate states in the dense representation.

The lower-left monodromy entry evaluated at the inhomogeneities builds,
out of the all-up reference state, a basis labelled by occupation
patterns ``h`` in {0,1}^N on which the lower-right entry acts
diagonally.  Left and right versions are constructed independently (the
transfer matrix is not symmetric, and all pairings here are bilinear —
no complex conjugation anywhere).  On top of the basis sit the separate
states: states whose basis weights factorize into per-site values of a
single function, which is the structure that turns scalar products into
determinants.

Everything here that depends on the chain alone is held by its
``ChainParams`` as cached properties, built on first read: the
occupation bits of every pattern, the shifted-set Vandermonde of every
pattern and the left and right bases (``ladder_basis``).  They live
exactly as long as that instance and are never shared between chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainParams, d_of, require_generic, vandermonde
from .dense import monodromy, reference_state


def ladder_basis(params: ChainParams, side: str) -> np.ndarray:
    """The build behind ``sov_basis``, read once per chain through
    ``ChainParams.right_basis`` and ``left_basis``; raises ``ValueError``
    when the chain fails ``require_generic``."""
    require_generic(params)
    n = params.n_sites
    xi = params.xi
    # one node at a time: a stack over the nodes holds all four monodromy
    # entries at every node, which at N = 8 lifts the sov suite's peak
    # resident memory from 68 to 126 MB
    ladders = []
    for a in range(n):
        blocks = monodromy(params, xi[a])
        if side == "right":
            ladders.append(blocks[0][1] / params.a_at_nodes[a])
        else:
            ladders.append(blocks[1][0] / d_of(params, xi[a] - params.eta))
    # incremental build over bitmask order: each pattern extends the
    # pattern with its last occupied site cleared
    basis = np.zeros((2**n, params.dim), dtype=complex)
    basis[0] = reference_state(params)
    for idx in range(1, 2**n):
        site_bit = idx & (-idx)
        a = n - site_bit.bit_length()  # 0-based site of the lowest set bit
        parent = idx ^ site_bit
        if side == "right":
            basis[idx] = ladders[a] @ basis[parent]
        else:
            basis[idx] = basis[parent] @ ladders[a]
    basis *= 1.0 / vandermonde(xi)
    basis.setflags(write=False)
    return basis


def sov_basis(params: ChainParams, side: str) -> np.ndarray:
    """All 2^N separated-basis vectors, indexed by the occupation bitmask.

    Right vectors are columns of the sparse ladder construction applied
    to the all-up state; left vectors are rows built the same way from
    the upper-right entries, i.e. genuinely independent of the right
    family.  Both include the overall inverse Vandermonde normalization
    in the inhomogeneities.  Each is built once per chain and read from
    it afterwards.
    """
    if side == "right":
        return params.right_basis
    if side == "left":
        return params.left_basis
    raise ValueError('side must be "left" or "right"')


def diagonal_eigenvalue(params: ChainParams, h, lam) -> complex:
    """Eigenvalue of the lower-right monodromy entry on basis vector h:
    product of (lam - xi_n + h_n eta).  A stack of patterns (last axis:
    the sites) gives one eigenvalue per pattern."""
    lam = np.asarray(lam, dtype=complex)
    return np.prod(lam[..., None] - params.xi + np.asarray(h) * params.eta, axis=-1)


def sov_gram_check(params: ChainParams) -> dict[str, float]:
    """Residuals of the Gram structure of the separated basis.

    The left/right Gram matrix is diagonal with explicitly known inverse
    Vandermonde weights carrying an occupation-parity sign, and the
    weighted sum of outer products resolves the identity.  Returns the
    maximum Gram residual, each row normalized by its weight, and the
    identity-decomposition residual, each one array expression over the
    whole basis.
    """
    right = sov_basis(params, "right")
    left = sov_basis(params, "left")
    parity = 1 - 2 * (params.occupation.sum(axis=-1) % 2)
    weights = parity * (vandermonde(params.xi) * params.shifted_vandermonde)
    identity = np.eye(params.dim)
    gram = (left @ right.T) * weights[:, None]
    recon = (right.T * weights) @ left
    return {
        "gram": float(np.max(np.abs(gram - identity))),
        "identity": float(np.max(np.abs(recon - identity))),
    }


@dataclass(frozen=True, eq=False)
class SeparateStateSpec:
    """Defining data of a separate state: the per-site values of its
    weight function on the inhomogeneity lattice.  The last axis runs
    over the sites; leading axes, if any, index a stack of states of one
    side."""

    side: str
    values_at_xi: np.ndarray
    values_at_xi_minus_eta: np.ndarray

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise ValueError('side must be "left" or "right"')
        for name in ("values_at_xi", "values_at_xi_minus_eta"):
            arr = np.array(getattr(self, name), dtype=complex, ndmin=1)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.values_at_xi.shape != self.values_at_xi_minus_eta.shape:
            raise ValueError("value arrays must have equal shapes")


def spec_from_roots(params: ChainParams, roots, side: str) -> SeparateStateSpec:
    """Separate-state data for the monic polynomial with the given roots:
    the product of (x - r) over the roots, at every inhomogeneity and at
    its down-shift, in one broadcast product (no expanded coefficients).
    A stack of root sets (last axis: the roots) gives a stack of states.
    Non-finite roots give non-finite values, which the spec rejects."""
    roots = np.array(roots, dtype=complex, ndmin=1)
    points = np.array((params.xi, params.xi - params.eta))
    values = np.prod(points[..., None] - roots[..., None, None, :], axis=-1)
    return SeparateStateSpec(
        side=side,
        values_at_xi=values[..., 0, :],
        values_at_xi_minus_eta=values[..., 1, :],
    )


def spec_constant_one(params: ChainParams, side: str) -> SeparateStateSpec:
    """The separate state of the constant function 1."""
    ones = np.ones(params.n_sites, dtype=complex)
    return SeparateStateSpec(side=side, values_at_xi=ones, values_at_xi_minus_eta=ones)


def separate_state_dense(params: ChainParams, sspec: SeparateStateSpec) -> np.ndarray:
    """Dense vector of a separate state from its per-site weight values.

    Left states weight basis row ``h`` by the product over sites of the
    function at the h-shifted inhomogeneity times the shifted-set
    Vandermonde.  Right states use the same structure with the value at
    the down-shifted point dressed by the local ratio a(xi)/d(xi-eta) on
    occupied sites; that dressing is what makes the right family
    biorthogonal to the left one with factorized weights.  The weights of
    all 2^N patterns are one product over the chain's occupation table,
    and the vector is one plain (uncompensated) matrix-vector product with
    the basis.  A stack of states gives one row per state, from one
    weight product and one matrix product with the basis.
    """
    n = params.n_sites
    if sspec.values_at_xi.shape[-1] != n:
        raise ValueError("separate-state values must cover every site")
    basis = sov_basis(params, sspec.side)
    xi = params.xi
    eta = params.eta
    site_w0 = sspec.values_at_xi
    if sspec.side == "left":
        site_w1 = sspec.values_at_xi_minus_eta
    else:
        dressing = params.a_at_nodes / d_of(params, xi - eta)
        site_w1 = dressing * sspec.values_at_xi_minus_eta
    weights = np.where(
        params.occupation, site_w1[..., None, :], site_w0[..., None, :]
    ).prod(axis=-1)
    return (weights * params.shifted_vandermonde) @ basis


def bilinear(left_row: np.ndarray, right_col: np.ndarray) -> complex:
    """The bilinear pairing used everywhere: plain contraction, no
    conjugation."""
    return complex(np.dot(left_row, right_col))
