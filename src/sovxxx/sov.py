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

Everything here that depends on the chain alone is built once per chain
and held by one ``SovTables`` object: the occupation bits of every
pattern, the shifted-set Vandermonde of every pattern and, on first use,
the left and right bases.  The tables are kept in a map keyed weakly by
the ``ChainParams`` instance (which hashes by identity), so they live
exactly as long as that instance and are never shared between chains.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import product as _cartesian

import numpy as np

from .chain import (
    ChainParams,
    d_of,
    require_generic,
    shifted_xi,
    vandermonde,
)
from .dense import monodromy, reference_state


def occupation_patterns(n_sites: int):
    """All occupation patterns as tuples, site 1 first, in integer order
    of the bitmask with site 1 as the most significant bit."""
    return _cartesian((0, 1), repeat=n_sites)


def pattern_index(h) -> int:
    idx = 0
    for bit in h:
        idx = (idx << 1) | int(bit)
    return idx


class SovTables:
    """The separated-basis tables of one chain.

    ``bits[k, a]`` is the occupation of site ``a`` in pattern ``k``
    (bitmask order, site 1 most significant).  ``shifted_vandermonde[k]``
    is ``vandermonde(shifted_xi(params, bits[k], -1))``, evaluated pattern
    by pattern with exactly that arithmetic.  ``bases`` maps a side to its
    basis once ``sov_basis`` has built it.  The object holds no reference
    to its ``ChainParams``, so the weak map can drop it.
    """

    def __init__(self, params: ChainParams) -> None:
        require_generic(params)
        n = params.n_sites
        index = np.arange(2**n)[:, None]
        self.bits = ((index >> np.arange(n - 1, -1, -1)) & 1).astype(bool)
        self.shifted_vandermonde = np.array(
            [vandermonde(shifted_xi(params, h, direction=-1)) for h in self.bits],
            dtype=complex,
        )
        self.bits.setflags(write=False)
        self.shifted_vandermonde.setflags(write=False)
        self.bases: dict[str, np.ndarray] = {}


_TABLES: weakref.WeakKeyDictionary[ChainParams, SovTables] = weakref.WeakKeyDictionary()


def sov_tables(params: ChainParams) -> SovTables:
    """The chain's tables, built on the first call for this instance.

    Raises ``ValueError`` (and keeps nothing) when the inhomogeneities
    are not separated enough for the separated-basis construction.
    """
    tables = _TABLES.get(params)
    if tables is None:
        tables = SovTables(params)
        _TABLES[params] = tables
    return tables


def sov_basis(params: ChainParams, side: str) -> np.ndarray:
    """All 2^N separated-basis vectors, indexed by the occupation bitmask.

    Right vectors are columns of the sparse ladder construction applied
    to the all-up state; left vectors are rows built the same way from
    the upper-right entries, i.e. genuinely independent of the right
    family.  Both include the overall inverse Vandermonde normalization
    in the inhomogeneities.
    """
    if side not in ("left", "right"):
        raise ValueError('side must be "left" or "right"')
    tables = sov_tables(params)
    cached = tables.bases.get(side)
    if cached is not None:
        return cached
    n = params.n_sites
    dim = params.dim
    xi = params.xi
    eta = params.eta
    inv_v = 1.0 / vandermonde(xi)
    # single-site ladder factors, one per site
    ladders = []
    for a in range(n):
        blocks = monodromy(params, xi[a])
        if side == "right":
            ladders.append(blocks[0][1] / params.a_at_nodes[a])
        else:
            ladders.append(blocks[1][0] / d_of(params, xi[a] - eta))
    # incremental build over bitmask order: each pattern extends the
    # pattern with its last occupied site cleared
    basis = np.zeros((2**n, dim), dtype=complex)
    basis[0] = reference_state(params)
    for idx in range(1, 2**n):
        site_bit = idx & (-idx)
        a = n - site_bit.bit_length()  # 0-based site of the lowest set bit
        parent = idx ^ site_bit
        if side == "right":
            basis[idx] = ladders[a] @ basis[parent]
        else:
            basis[idx] = basis[parent] @ ladders[a]
    basis *= inv_v
    basis.setflags(write=False)
    tables.bases[side] = basis
    return basis


def sov_basis_state(params: ChainParams, h, side: str) -> np.ndarray:
    """One separated-basis vector for occupation pattern ``h``."""
    h = tuple(int(b) for b in h)
    if len(h) != params.n_sites:
        raise ValueError("occupation pattern must have one entry per site")
    return sov_basis(params, side)[pattern_index(h)].copy()


def diagonal_eigenvalue(params: ChainParams, h, lam) -> complex:
    """Eigenvalue of the lower-right monodromy entry on basis vector h:
    product of (lam - xi_n + h_n eta)."""
    h = np.asarray(tuple(h))
    lam = np.asarray(lam, dtype=complex)
    return np.prod(lam[..., None] - params.xi + h * params.eta, axis=-1)


def sov_gram_check(params: ChainParams) -> dict[str, float]:
    """Residuals of the Gram structure of the separated basis.

    The left/right Gram matrix is diagonal with explicitly known inverse
    Vandermonde weights carrying an occupation-parity sign, and the
    weighted sum of outer products resolves the identity.  Returns the
    maximum normalized Gram residual and the identity-decomposition
    residual.
    """
    n = params.n_sites
    right = sov_basis(params, "right")
    left = sov_basis(params, "left")
    tables = sov_tables(params)
    gram = left @ right.T
    v_xi = vandermonde(params.xi)
    gram_res = 0.0
    recon = np.zeros((params.dim, params.dim), dtype=complex)
    for idx, h in enumerate(tables.bits):
        parity = (-1) ** int(h.sum())
        weight = v_xi * complex(tables.shifted_vandermonde[idx])
        # normalized row: G[idx, :] * parity * weight should be the unit row
        row = gram[idx] * parity * weight
        target = np.zeros(2**n)
        target[idx] = 1.0
        gram_res = max(gram_res, float(np.max(np.abs(row - target))))
        recon += parity * weight * np.outer(right[idx], left[idx])
    identity_res = float(np.max(np.abs(recon - np.eye(params.dim))))
    return {"gram": gram_res, "identity": identity_res}


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
    points = np.stack((params.xi, params.xi - params.eta))
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
    tables = sov_tables(params)
    xi = params.xi
    eta = params.eta
    site_w0 = sspec.values_at_xi
    if sspec.side == "left":
        site_w1 = sspec.values_at_xi_minus_eta
    else:
        dressing = params.a_at_nodes / d_of(params, xi - eta)
        site_w1 = dressing * sspec.values_at_xi_minus_eta
    weights = np.where(
        tables.bits, site_w1[..., None, :], site_w0[..., None, :]
    ).prod(axis=-1)
    return (weights * tables.shifted_vandermonde) @ basis


def bilinear(left_row: np.ndarray, right_col: np.ndarray) -> complex:
    """The bilinear pairing used everywhere: plain contraction, no
    conjugation."""
    return complex(np.dot(left_row, right_col))
