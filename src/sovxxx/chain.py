"""Chain parameters and the basic site polynomials.

A chain is specified by the number of sites, a crossing parameter
``eta`` and one inhomogeneity ``xi_n`` per site.  The separated-basis
construction needs the inhomogeneities pairwise separated both directly
and after shifts by one unit of ``eta``; ``sample_generic_params`` draws
such sets reproducibly, and ``require_generic`` enforces the separation
where it is structurally needed.  The eigenvalue polynomials of the
diagonal monodromy entries live here as plain product formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SamplingFailureError

# Default separation margin, as a fraction of |eta|.
DEFAULT_MARGIN_FRACTION = 0.3

_MAX_SAMPLING_ATTEMPTS = 1000


@dataclass(frozen=True, eq=False)
class ChainParams:
    """Inhomogeneous chain data: site count, crossing parameter, impurities.

    ``margin`` records the separation scale the parameter set was built
    for; constructions that rely on separation call ``require_generic``
    rather than trusting the stored value, so near-degenerate families
    (used in homogeneous-limit studies) can still be represented.
    """

    n_sites: int
    eta: complex
    xi: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))
    margin: float = 0.0

    def __post_init__(self) -> None:
        xi = np.asarray(self.xi, dtype=complex).ravel().copy()
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", complex(self.eta))
        if self.n_sites < 1:
            raise ValueError("a chain needs at least one site")
        if xi.size != self.n_sites:
            raise ValueError("xi must provide one inhomogeneity per site")
        if self.eta == 0:
            raise ValueError("the crossing parameter must be nonzero")
        if not (np.isfinite(self.eta) and np.all(np.isfinite(xi))):
            raise ValueError("eta and the inhomogeneities must be finite")

    @property
    def dim(self) -> int:
        return 2**self.n_sites

    @cached_property
    def pole_scale(self) -> float:
        """max(1, |eta|, max |xi|): the floor of every pole guard that
        involves the inhomogeneities."""
        return float(max(1.0, abs(self.eta), np.abs(self.xi).max()))

    @cached_property
    def a_at_nodes(self) -> np.ndarray:
        """a(xi_j) at every inhomogeneity: the transfer matrix's
        normalization at the nodes, read by every node product."""
        values = a_of(self, self.xi)
        values.setflags(write=False)
        return values

    @cached_property
    def a_node_product(self) -> complex:
        """The product of ``a_at_nodes``, the full a-product on the nodes
        that every lowering element divides by."""
        return self.a_at_nodes.prod()

    @cached_property
    def separation_deficit(self) -> float:
        """Smallest of the quantities the genericity condition bounds below:
        ``|eta|`` and ``|xi_a - xi_b - h*eta|`` for ``a != b`` and shifts
        ``h`` in {-1, 0, 1}."""
        vals = [abs(self.eta)]
        xi = self.xi
        n = self.n_sites
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                for h in (-1, 0, 1):
                    vals.append(abs(xi[a] - xi[b] - h * self.eta))
        return min(vals)

    @cached_property
    def occupation(self) -> np.ndarray:
        """``occupation[k, a]``: whether site ``a`` is occupied in the
        separated-basis pattern ``k`` (bitmask order, site 1 most
        significant).  Like every separated-basis table it exists only for
        a chain that passes ``require_generic``."""
        require_generic(self)
        index = np.arange(self.dim)[:, None]
        bits = ((index >> np.arange(self.n_sites - 1, -1, -1)) & 1).astype(bool)
        bits.setflags(write=False)
        return bits

    @cached_property
    def shifted_vandermonde(self) -> np.ndarray:
        """The Vandermonde of the inhomogeneities with each occupied site
        shifted down by ``eta``, for every pattern: one stacked
        ``vandermonde`` call over the occupation table."""
        values = vandermonde(self.xi - self.eta * self.occupation)
        values.setflags(write=False)
        return values

    @cached_property
    def right_basis(self) -> np.ndarray:
        """The right separated basis, one row per pattern (``sov.sov_basis``)."""
        from .sov import ladder_basis

        return ladder_basis(self, "right")

    @cached_property
    def left_basis(self) -> np.ndarray:
        """The left separated basis, one row per pattern (``sov.sov_basis``)."""
        from .sov import ladder_basis

        return ladder_basis(self, "left")


def require_generic(params: ChainParams) -> None:
    m = params.margin
    if m <= 0 or params.separation_deficit < m:
        raise ValueError(
            "inhomogeneities are not separated enough for the separated-basis "
            f"construction (deficit {params.separation_deficit:.3e}, margin {m:.3e})"
        )


def sample_generic_params(n_sites: int, seed: int) -> ChainParams:
    """Draw a well-separated parameter set, deterministically per seed.

    Uses the counter-based Philox generator so runs are reproducible
    across platforms.  The crossing parameter is drawn first (redrawn
    until its modulus is at least 0.5), then whole inhomogeneity vectors
    are drawn with nonzero imaginary parts and rejected until the
    separation condition holds, at the margin (recorded on the chain)
    ``DEFAULT_MARGIN_FRACTION`` times |eta|.  A thousand failed attempts
    raise ``SamplingFailureError``.
    """
    if n_sites < 1:
        raise ValueError("a chain needs at least one site")
    rng = np.random.Generator(np.random.Philox(key=seed))
    while True:
        eta = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if abs(eta) >= 0.5:
            break
    delta = DEFAULT_MARGIN_FRACTION * abs(eta)
    span = 2.5 * abs(eta) * max(1.0, n_sites / 4.0)
    for _ in range(_MAX_SAMPLING_ATTEMPTS):
        draw = rng.uniform(-span, span, size=(n_sites, 2))
        xi = draw[:, 0] + 1j * draw[:, 1]
        if np.min(np.abs(xi.imag)) < 1e-3 * abs(eta):
            continue
        candidate = ChainParams(n_sites=n_sites, eta=eta, xi=xi, margin=delta)
        if candidate.separation_deficit >= delta:
            return candidate
    raise SamplingFailureError(
        f"could not draw {n_sites} separated inhomogeneities with margin {delta:.3e}"
    )


def fixture_params(n_sites: int) -> ChainParams:
    """Small real-parameter chains whose algebra works out in closed form.

    One site: eta = 1, xi = (0,).  Two sites: eta = 1, xi = (0, 2).
    These are the hand-checkable reference points used throughout the
    test suite.
    """
    if n_sites == 1:
        return ChainParams(n_sites=1, eta=1.0, xi=np.array([0.0]), margin=1.0)
    if n_sites == 2:
        return ChainParams(n_sites=2, eta=1.0, xi=np.array([0.0, 2.0]), margin=1.0)
    raise ValueError("closed-form fixtures exist for one and two sites only")


def a_of(params: ChainParams, lam):
    """Eigenvalue polynomial of the upper diagonal monodromy entry on the
    reference state: product of (lam - xi_n + eta)."""
    lam = np.asarray(lam, dtype=complex)
    return np.prod(lam[..., None] - params.xi + params.eta, axis=-1)


def d_of(params: ChainParams, lam):
    """Eigenvalue polynomial of the lower diagonal monodromy entry on the
    reference state: product of (lam - xi_n)."""
    lam = np.asarray(lam, dtype=complex)
    return np.prod(lam[..., None] - params.xi, axis=-1)


def log_derivative_a(params: ChainParams, lam) -> complex:
    """d/dlam log a(lam): sum of 1/(lam - xi_n + eta)."""
    lam = np.asarray(lam, dtype=complex)
    return np.sum(1.0 / (lam[..., None] - params.xi + params.eta), axis=-1)


def log_derivative_d(params: ChainParams, lam) -> complex:
    """d/dlam log d(lam): sum of 1/(lam - xi_n)."""
    lam = np.asarray(lam, dtype=complex)
    return np.sum(1.0 / (lam[..., None] - params.xi), axis=-1)


def pair_differences(values) -> np.ndarray:
    """The differences v_a - v_b over pairs b < a of each set (last axis),
    gathered along one contiguous last axis in row-major order of (a, b);
    leading axes index a stack of sets."""
    values = np.asarray(values, dtype=complex)
    index = np.arange(values.shape[-1])
    pairs = (values[..., :, None] - values[..., None, :])[..., index[:, None] > index]
    return np.ascontiguousarray(pairs)


def vandermonde(values) -> complex | np.ndarray:
    """Ordered Vandermonde product over pairs b < a of (v_a - v_b).

    Empty and singleton tuples give 1.  The ordering convention matters:
    all separated-basis weights in this package use the product in the
    natural site order of the argument.  Leading axes index a stack of
    sets, giving one product per set; a 1-D set gives a ``complex``.
    The contiguous ``pair_differences`` are reduced by one ``prod``, so
    every stack member equals its one-set call bit for bit (a strided
    complex reduction rounds differently).
    """
    values = np.asarray(values, dtype=complex)
    if values.shape[-1] < 2:
        return 1.0 + 0.0j if values.ndim == 1 else np.ones(values.shape[:-1], complex)
    out = pair_differences(values).prod(axis=-1)
    return complex(out) if out.ndim == 0 else out
