"""Shared caches so expensive spectra are computed once per session."""

from __future__ import annotations

import numpy as np
import pytest

from sovxxx.chain import sample_generic_params
from sovxxx.dense import site_sigma
from sovxxx.polynomials import cardinal_coefficients
from sovxxx.spectrum import full_spectrum

_PARAMS: dict = {}
_SPECTRA: dict = {}


def two_pole_kernel(x, eta):
    """The kernel K(x) = 1/x - 1/(x + eta) = eta/(x (x + eta)) of every
    Slavnov-type matrix, for the entrywise references."""
    return 1.0 / x - 1.0 / (x + eta)


def lagrange_interpolate(nodes, values) -> np.ndarray:
    """Reference coefficient row, one entry per node, of the unique
    polynomial of degree < len(nodes) through the given points: the
    values times the cardinal-coefficient matrix of the nodes."""
    nodes = np.asarray(nodes, dtype=complex).ravel()
    values = np.asarray(values, dtype=complex).ravel()
    if nodes.size != values.size:
        raise ValueError("nodes and values must have equal length")
    if not np.all(np.isfinite(values)):
        raise ValueError("interpolation nodes and values must be finite")
    return values @ cardinal_coefficients(nodes)


def shifted_xi(params, h, direction: int = -1) -> np.ndarray:
    """The inhomogeneities with each occupied slot shifted by ``direction*eta``."""
    h = np.asarray(h)
    return params.xi + direction * params.eta * h


def cached_params(n_sites: int, seed: int = 0):
    key = (n_sites, seed)
    if key not in _PARAMS:
        _PARAMS[key] = sample_generic_params(n_sites, seed)
    return _PARAMS[key]


def cached_spectrum(n_sites: int, seed: int = 0):
    key = (n_sites, seed)
    if key not in _SPECTRA:
        _SPECTRA[key] = full_spectrum(cached_params(n_sites, seed), seed)
    return _SPECTRA[key]


@pytest.fixture(scope="session")
def params_of():
    return cached_params


@pytest.fixture(scope="session")
def spectrum_of():
    return cached_spectrum


def total_sx(params):
    """Sum over sites of the x Pauli matrix: the conserved magnetization
    direction of the twisted chain."""
    return sum(site_sigma(params, n, "x") for n in range(1, params.n_sites + 1))


def separated_cloud(rng, count, eta, avoid=(), min_sep=0.25, box=1.7):
    """Deterministic rejection draw keeping every pair of points (and
    every eta-shifted pair) at least min_sep apart."""
    shifts = (0.0, complex(eta), -complex(eta))
    anchors = [complex(w) for w in avoid]
    out: list[complex] = []
    for _ in range(6000):
        if len(out) == count:
            break
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(z - w + s) >= min_sep for w in anchors + out for s in shifts):
            out.append(z)
    assert len(out) == count, "rejection sampling exhausted"
    return np.array(out, dtype=complex)
