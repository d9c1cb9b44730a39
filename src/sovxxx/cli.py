"""Reproducible verification driver with JSON/CSV reporting.

Subcommands select suites of numerical checks over a deterministically
drawn chain; every random draw flows from the counter-based Philox
generator and the configured seed, so two runs with the same
configuration emit byte-identical reports at a fixed BLAS thread count
(the thread count changes the order of BLAS sums).  Each check row carries the
measured value, the reference it is held against, a relative error, and
a pass flag.  Every row is declared once, in ``CHECKS``, with the
acceptance criterion it gates and its fixed tolerance: a row passes
exactly when its relative error is at most that tolerance (0 marks an
exact row, a count or a yes/no).  The process exit status is zero
exactly when every selected check passes and no suite aborted.

One run draws each chain length it needs once (only the aba-check suite
caps N, at 4, so it draws its own chain above that) and builds that
chain's spectrum records, dense eigenstate vectors and lowering table at
most once, on first use; every suite of the run reads the same shared,
read-only objects, so sharing changes no reported number.

Suites draw every sample of a check first, in the order the generator
serves them, and then evaluate each group of equal sizes with one
stacked call of the library (``_stacks``): the identities suite makes
one square on-shell stack per root count and one rectangular stack per
pair of sizes, the scalar-products suite one call per closed-form route
per (left, right) root-count pair and one eigenstate pairing and one
stack of dense states per (on-shell, left) root-count pair, and the
aba-check suite one weighted-expansion call per root count.  The oracle
and sov suites build the monodromy at all their points in one stacked
call.  Grouping changes no draw; values move at rounding level only.
The rejection sampler (``_draw_separated``) tests attempts in blocks,
and a set that avoids the set drawn just before it is drawn with it and
split; each point and generator state is as with one test per attempt.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .aba import (
    completeness_check,
    correspondence_report,
    expected_correspondence_constant,
    isospectrality_check,
    product_states,
    reference_state_identity,
    translation_residual,
    weighted_expansion_table,
)
from .chain import ChainParams, fixture_params, sample_generic_params
from .dense import (
    basis_rotation,
    default_eval_point,
    global_flip,
    hamiltonian_limit_check,
    monodromy,
    quantum_det_check,
    site_sigma,
)
from .determinants import (
    balanced_shift_ratio,
    dressed_vandermonde,
    dressed_vandermonde_unbalanced_check,
    gen_slavnov_determinant,
    gen_slavnov_sign,
    izergin_determinant,
    richardson_limit,
    shift_ratio,
    slavnov_determinant,
)
from .errors import SamplingFailureError
from .formfactors import (
    eigenstate_vectors,
    ff_from_lowering,
    ff_sigma_minus,
    lowering_table,
)
from .scalar import (
    gaudin_norm,
    homogeneous_stress_sweep,
    sp_a_form,
    sp_b_form,
    sp_dense,
    sp_direct,
    sp_izergin_form,
    sp_on_shell,
    stress_trends,
)
from .sov import (
    diagonal_eigenvalue,
    separate_state_dense,
    sov_basis,
    sov_gram_check,
    spec_from_roots,
)
from .spectrum import full_spectrum, pairing_indices, solve_q_from_tau

SUITE_ORDER = (
    "oracle",
    "sov",
    "spectrum",
    "identities",
    "scalar-products",
    "form-factors",
    "aba-check",
    "homogeneous-stress",
)

_SUBCOMMANDS = {
    "spectrum": ("spectrum",),
    "verify-identities": ("identities",),
    "scalar-products": ("scalar-products",),
    "form-factors": ("form-factors",),
    "aba-check": ("aba-check",),
    "all": SUITE_ORDER,
}

# every report row: (the acceptance criterion it gates, its tolerance on
# rel_err); a tolerance of 0 marks an exact row, a count or a yes/no
CHECKS = {
    "oracle/transfer_family_commutes": (2, 1e-9),
    "oracle/quantum_determinant_factorizes": (2, 1e-9),
    "oracle/global_flip_fixes_antiperiodic_transfer": (2, 1e-9),
    "oracle/global_flip_negates_twisted_transfer": (2, 1e-9),
    "oracle/rotation_maps_antiperiodic_to_twisted": (2, 1e-9),
    "oracle/hamiltonian_forms_agree_at_zero_lattice": (10, 1e-9),
    "sov/basis_gram_is_known_diagonal": (3, 1e-9),
    "sov/basis_resolves_identity": (3, 1e-9),
    "sov/basis_diagonal_eigenrelation": (3, 1e-9),
    "spectrum/eigenvalue_count_complete": (4, 0),
    "spectrum/worst_functional_tq_residual": (4, 1e-8),
    "spectrum/worst_bethe_residual": (4, 1e-7),
    "spectrum/worst_wronskian_residual": (4, 1e-8),
    "spectrum/worst_discrete_system_residual": (4, 1e-9),
    "spectrum/worst_eigenstate_residual": (4, 1e-9),
    "spectrum/negation_pairing_is_involution": (4, 0),
    "spectrum/auxiliary_solve_seed_independent": (4, 1e-9),
    "identities/plus_minus_weight_exchange": (5, 1e-10),
    "identities/domain_wall_equals_dressed_functional": (5, 1e-10),
    "identities/unbalanced_weight_exchange_grid": (5, 1e-10),
    "identities/oversized_weight_overlap_vanishes": (5, 1e-10),
    "identities/on_shell_determinant_reduction": (5, 1e-9),
    "identities/rectangular_on_shell_reduction": (5, 1e-9),
    "identities/saturated_on_shell_equals_domain_wall": (5, 1e-9),
    "identities/coinciding_root_limit_matches_norm": (5, 1e-6),
    "scalar-products/closed_forms_agree_with_dense": (6, 1e-9),
    "scalar-products/eigenstate_dispatch_matches_dense": (6, 1e-9),
    "scalar-products/below_sector_pairings_vanish": (6, 1e-9),
    "form-factors/lowering_matches_dense": (7, 1e-8),
    "form-factors/raising_matches_dense": (7, 1e-8),
    "form-factors/z_matches_dense": (7, 1e-8),
    "form-factors/distant_sectors_vanish": (7, 1e-8),
    "form-factors/single_site_lowering_fixture": (1, 1e-10),
    "form-factors/single_site_raising_fixture": (1, 1e-10),
    "form-factors/single_site_z_fixture": (1, 1e-10),
    "form-factors/z_sign_follows_flip_parity_derivation": (7, 1e-10),
    "aba-check/correspondence_constant_matches": (8, 1e-9),
    "aba-check/correspondence_ratio_spread": (8, 1e-9),
    # a root-free closed form, held to rounding level
    "aba-check/reference_state_identity": (8, 1e-12),
    "aba-check/antiperiodic_twisted_isospectral": (8, 1e-9),
    "aba-check/product_state_completeness": (8, 0),
    "aba-check/weighted_expansions_agree": (8, 1e-9),
    "aba-check/operator_translation_constants": (8, 1e-9),
    "homogeneous-stress/b_form_cauchy_in_eps": (9, 0.3),
    "homogeneous-stress/slavnov_form_cauchy_in_eps": (9, 0.3),
    "homogeneous-stress/izergin_form_cauchy_in_eps": (9, 0.3),
    "homogeneous-stress/smooth_routes_mutually_agree": (9, 1e-9),
    "homogeneous-stress/raw_matrix_condition_grows_inverse_cubed": (9, 0),
    "homogeneous-stress/plain_lattice_route_degrades": (9, 0),
}

_TINY = 1e-300
# seed + 1 (the spectrum suite's redraw) must stay an exact int64 Philox key
_MAX_SEED = 2**63 - 2


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by every suite."""

    n_sites: int = 3
    seed: int = 0
    suites: tuple = SUITE_ORDER
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self) -> None:
        if not 1 <= self.n_sites <= 8:
            raise ValueError("site count must be between 1 and 8")
        if not 0 <= self.seed <= _MAX_SEED:
            raise ValueError(f"seed must be between 0 and {_MAX_SEED}")
        for suite in self.suites:
            if suite not in SUITE_ORDER:
                raise ValueError(f"unknown suite: {suite}")
        if self.fmt not in ("json", "csv"):
            raise ValueError('format must be "json" or "csv"')


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (complex, np.complexfloating)):
        z = complex(v)
        if z.imag == 0.0:
            return repr(z.real)
        sign = "+" if z.imag >= 0 else "-"
        return f"{z.real!r}{sign}{abs(z.imag)!r}j"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _residual(name: str, residual: float) -> tuple:
    return name, residual, 0.0, residual


def _match(name: str, value, reference) -> tuple:
    rel = abs(complex(value) - complex(reference)) / max(abs(complex(reference)), 1.0)
    return name, value, reference, rel


class _Chain:
    """One drawn chain of a run with its spectrum records, their dense
    (left row, right column) eigenstate vectors and their lowering
    elements, each built on first use and then shared by every suite.  A
    build that raises is not kept, so every suite needing it raises the
    same error."""

    def __init__(self, params: ChainParams, seed: int) -> None:
        self.params = params
        self.seed = seed

    @cached_property
    def records(self) -> tuple:
        return tuple(full_spectrum(self.params, self.seed))

    @cached_property
    def vectors(self) -> tuple:
        pairs = tuple(eigenstate_vectors(self.params, rec) for rec in self.records)
        for pair in pairs:
            for vec in pair:
                vec.setflags(write=False)
        return pairs

    @cached_property
    def lowering(self) -> np.ndarray:
        """``ff_sigma_minus`` between records i and j at site s, at
        ``[i, j, s - 1]`` (``lowering_table``)."""
        out = lowering_table(self.params, self.records)
        out.setflags(write=False)
        return out


Chains = Callable[[int], _Chain]


def _mat_scale(mat: np.ndarray) -> float:
    return max(float(np.max(np.abs(mat))), _TINY)


# ---------------------------------------------------------------- suites


def _suite_oracle(config: RunConfig, chains: Chains):
    params = chains(config.n_sites).params
    pts = [default_eval_point(params, i) for i in range(3)]
    # both transfer matrices at every point, from one stacked monodromy
    (a, b), (c, d) = monodromy(params, pts)
    mats = b + c
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            num = float(np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])))
            worst = max(worst, num / (_mat_scale(mats[i]) * _mat_scale(mats[j])))
    qworst = max(quantum_det_check(params, pts[0]), quantum_det_check(params, pts[1]))
    flip = global_flip(params)
    t_anti = mats[0]
    t_tw = a[0] - d[0]
    r_flip_a = float(np.max(np.abs(flip @ t_anti @ flip - t_anti))) / _mat_scale(t_anti)
    r_flip_t = float(np.max(np.abs(flip @ t_tw @ flip + t_tw))) / _mat_scale(t_tw)
    rot = basis_rotation(params)
    r_sim = float(np.max(np.abs(rot @ t_anti @ rot.T - t_tw))) / _mat_scale(t_tw)
    ham = max(hamiltonian_limit_check(2, 0.0), hamiltonian_limit_check(3, 0.0))
    rows = [
        _residual("oracle/transfer_family_commutes", worst),
        _residual("oracle/quantum_determinant_factorizes", qworst),
        _residual("oracle/global_flip_fixes_antiperiodic_transfer", r_flip_a),
        _residual("oracle/global_flip_negates_twisted_transfer", r_flip_t),
        _residual("oracle/rotation_maps_antiperiodic_to_twisted", r_sim),
        _residual("oracle/hamiltonian_forms_agree_at_zero_lattice", ham),
    ]
    return rows, None


def _suite_sov(config: RunConfig, chains: Chains):
    params = chains(config.n_sites).params
    gram = sov_gram_check(params)
    rows = [
        _residual("sov/basis_gram_is_known_diagonal", gram["gram"]),
        _residual("sov/basis_resolves_identity", gram["identity"]),
    ]
    worst = 0.0
    right, left = sov_basis(params, "right"), sov_basis(params, "left")
    lams = [default_eval_point(params, 0), default_eval_point(params, 2)]
    for lam, dmat in zip(lams, monodromy(params, lams)[1][1]):
        val = diagonal_eigenvalue(params, params.occupation, lam)[:, None]
        for basis, moved in ((right, right @ dmat.T), (left, left @ dmat)):
            scale = np.abs(val) * np.abs(basis).max(axis=-1, keepdims=True)
            residual = np.abs(moved - val * basis) / np.maximum(scale, _TINY)
            worst = max(worst, float(residual.max()))
    rows.append(_residual("sov/basis_diagonal_eigenrelation", worst))
    return rows, None


def _suite_spectrum(config: RunConfig, chains: Chains):
    chain = chains(config.n_sites)
    params, records = chain.params, chain.records
    n = params.n_sites
    rows = [
        (
            "spectrum/eigenvalue_count_complete",
            len(records),
            2**n,
            abs(len(records) - 2**n),
        )
    ]
    for key in ("functional_tq", "bethe", "wronskian", "discrete_system", "eigenstate"):
        worst = max(rec.residuals[key] for rec in records)
        rows.append(_residual(f"spectrum/worst_{key}_residual", worst))
    partner = pairing_indices(records)
    involution = all(partner[partner[i]] == i for i in range(len(records)))
    rows.append(
        (
            "spectrum/negation_pairing_is_involution",
            int(involution),
            1,
            0.0 if involution else 1.0,
        )
    )
    again = solve_q_from_tau(params, [rec.tau for rec in records], seed=config.seed + 1)
    redraw_worst = max(
        float(np.max(np.abs(rec.q_tau - q)))
        / max(float(np.max(np.abs(rec.q_tau))), _TINY)
        for rec, q in zip(records, again)
    )
    rows.append(_residual("spectrum/auxiliary_solve_seed_independent", redraw_worst))
    return rows, None


def _draw_separated(
    rng,
    count: int,
    eta: complex,
    avoid=(),
    min_sep: float = 0.2,
    box: float = 1.8,
) -> np.ndarray:
    """Draw points no closer than min_sep to each other, to the avoid
    list, or to any of those shifted by plus or minus eta, in at most
    4000 attempts of two doubles each.  Attempts come in blocks of as
    many as points are missing, so no block draws past the attempt that
    completes the set; a block is tested against the avoid list as one
    array, then point by point against the points already accepted.  A
    pair of sets drawn as one and split shares one attempt budget."""
    shifts = (0j, complex(eta), -complex(eta))
    shift_row = np.array(shifts)
    fixed = np.asarray(avoid, dtype=complex).reshape(-1, 1)
    accepted: list[complex] = []
    attempts = 0
    while len(accepted) < count and attempts < 4000:
        k = min(count - len(accepted), 4000 - attempts)
        attempts += k
        zs = rng.uniform(-box, box, 2 * k).view(complex)
        free = [True] * k
        if fixed.size:
            gaps = np.abs(zs[:, None, None] - fixed + shift_row)
            free = (gaps >= min_sep).all(axis=(1, 2)).tolist()
        for z, ok in zip(zs.tolist(), free):
            if ok and all(abs(z - w + s) >= min_sep for w in accepted for s in shifts):
                accepted.append(z)
    if len(accepted) != count:
        raise SamplingFailureError("could not draw well-separated sample points")
    return np.array(accepted, dtype=complex)


def _stacks(samples) -> list[tuple]:
    """Group samples (tuples of point sets and per-sample scalars) by the
    shapes of their fields, in order of first appearance, and stack each
    group field by field, so each group is one call of a determinant
    evaluator."""
    groups: dict[tuple, list] = {}
    for sample in samples:
        groups.setdefault(tuple(np.shape(v) for v in sample), []).append(sample)
    return [tuple(map(np.array, zip(*group))) for group in groups.values()]


def _worst_gap(diff, *values, floor: float = _TINY) -> float:
    """Largest |diff| over max(|values|..., floor), over a stack."""
    scale = np.maximum(np.max(np.abs(values), axis=0), floor)
    return float(np.max(np.abs(diff) / scale))


def _suite_identities(config: RunConfig, chains: Chains):
    rows = []
    rng = np.random.Generator(np.random.Philox(key=[config.seed, 0x1D5]))
    # each block draws all of its samples first, in the order the
    # generator serves them (ys, which avoids xs, in one draw with xs),
    # and then evaluates each size group in one stacked call per determinant

    samples = []
    for _ in range(100):
        m = int(rng.integers(1, 6))
        eta = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2))
        xs = _draw_separated(rng, m, eta)
        f = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        samples.append((xs, eta, f))
    worst = 0.0
    for xs, eta, f in _stacks(samples):
        g = -f * balanced_shift_ratio(xs, eta, xs)
        lhs = dressed_vandermonde(xs, eta, f, +1)
        rhs = dressed_vandermonde(xs, eta, g, -1)
        worst = max(worst, _worst_gap(lhs - rhs, lhs, rhs))
    rows.append(_residual("identities/plus_minus_weight_exchange", worst))

    samples = []
    for _ in range(100):
        m = int(rng.integers(1, 6))
        eta = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2))
        xs, ys = _draw_separated(rng, 2 * m, eta).reshape(2, m)
        mu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        samples.append((xs, ys, eta, mu))
    worst = 0.0
    for xs, ys, eta, mu in _stacks(samples):
        sign = (-1.0) ** xs.shape[-1]
        iz = izergin_determinant(mu, xs, ys, eta)
        f_on_x = mu[:, None] * shift_ratio(ys, eta, xs, +1)
        alt_a = sign * dressed_vandermonde(xs, eta, f_on_x, -1)
        f_on_y = mu[:, None] * shift_ratio(xs, eta, ys, -1)
        alt_b = sign * dressed_vandermonde(ys, eta, f_on_y, +1)
        worst = max(
            worst,
            _worst_gap(iz - alt_a, iz, alt_a, alt_b),
            _worst_gap(iz - alt_b, iz, alt_a, alt_b),
        )
    rows.append(_residual("identities/domain_wall_equals_dressed_functional", worst))

    samples = []
    for m in range(5):
        for n in range(5):
            for mu in (-1.0, 2.0, 0.5 + 0.5j):
                if m > n and mu == 1.0:
                    continue
                eta = complex(0.9, 0.2 * ((m + n) % 3 - 1))
                points = _draw_separated(rng, m + n, eta)
                samples.append((points[:m], points[m:], eta, mu))
    worst = 0.0
    for xs, ys, eta, mu in _stacks(samples):
        lhs, rhs = dressed_vandermonde_unbalanced_check(mu, xs, ys, eta)
        worst = max(worst, _worst_gap(lhs - rhs, lhs, rhs, floor=1.0))
    rows.append(_residual("identities/unbalanced_weight_exchange_grid", worst))

    eta = complex(1.1, -0.15)
    samples = []
    for small in range(0, 5):
        for big in range(small + 1, 6):
            points = _draw_separated(rng, small + big, eta)
            xs, ys = points[:small], points[small:]
            samples.append(
                (ys, shift_ratio(xs, eta, ys, -1), shift_ratio(xs, eta, ys, +1))
            )
    worst = 0.0
    for ys, minus, plus in _stacks(samples):
        for f, sgn in ((minus, +1), (plus, -1)):
            # the vanishing is structural; doubling the weights breaks
            # it and exposes the determinant's natural magnitude
            weights = f[:, None, :] * np.array([1.0, 2.0, 1j])[:, None]
            values = np.abs(dressed_vandermonde(ys[:, None, :], eta, weights, sgn))
            worst = max(
                worst, _worst_gap(values[:, 0], *values[:, 1:].T, floor=1.0)
            )
    rows.append(_residual("identities/oversized_weight_overlap_vanishes", worst))

    chain = chains(config.n_sites)
    params, records = chain.params, chain.records
    eta = params.eta

    def reduction(evaluate, roots, ys):
        """The on-shell determinants of a stack of root sets against an
        equal stack of free sets, the pooled sets and the worst relative gap
        to the dressed functional they reduce to."""
        lhs = evaluate(params, -1.0, roots, ys)
        m = roots.shape[-1]
        pooled = np.concatenate([roots, ys], axis=-1)
        f_vals = -shift_ratio(params.xi, eta, pooled, +1)
        rhs = dressed_vandermonde(pooled, eta, f_vals, -1)
        sign = gen_slavnov_sign(m, ys.shape[-1] - m)
        return lhs, pooled, _worst_gap(sign * lhs - rhs, lhs, rhs)

    # every record's free sets first, in the order the generator serves
    # them; then one square stack per root count and one rectangular stack
    # per pair of sizes
    square, rectangular = [], []
    for rec in records:
        for roots in (rec.bethe_roots, rec.q_minus_roots):
            m = roots.size
            if m == 0:
                continue
            avoid = np.concatenate([roots, np.asarray(params.xi, dtype=complex)])
            for _ in range(10):
                ys = _draw_separated(rng, m, eta, avoid=avoid, min_sep=0.3, box=2.4)
                square.append((roots, ys))
                extra = int(rng.integers(1, 3))
                wide = _draw_separated(
                    rng, m + extra, eta, avoid=avoid, min_sep=0.3, box=2.4
                )
                rectangular.append((roots, wide))
    worst3 = 0.0
    worst_sat = 0.0
    for roots, ys in _stacks(square):
        lhs, pooled, gap = reduction(slavnov_determinant, roots, ys)
        worst3 = max(worst3, gap)
        m = roots.shape[-1]
        if 2 * m == params.n_sites:
            sat = (-1.0) ** m * izergin_determinant(-1.0, pooled, params.xi, eta)
            worst_sat = max(worst_sat, _worst_gap(lhs - sat, lhs))
    worst4 = 0.0
    for roots, ys in _stacks(rectangular):
        worst4 = max(worst4, reduction(gen_slavnov_determinant, roots, ys)[2])
    rows += [
        _residual("identities/on_shell_determinant_reduction", worst3),
        _residual("identities/rectangular_on_shell_reduction", worst4),
        _residual("identities/saturated_on_shell_equals_domain_wall", worst_sat),
    ]

    rec = next((r for r in records if r.n_roots >= 1), None)
    if rec is not None:
        roots = rec.bethe_roots
        dirs = np.exp(2j * np.pi * rng.uniform(size=roots.size))

        def displaced_norm(eps: float) -> complex:
            return sp_on_shell(params, roots + eps * dirs, roots)

        limit, _err = richardson_limit(displaced_norm)
        target = gaudin_norm(params, rec)
        rel = abs(limit - target) / max(abs(target), _TINY)
        rows.append(
            ("identities/coinciding_root_limit_matches_norm", limit, target, rel)
        )
    return rows, None


def _suite_scalar_products(config: RunConfig, chains: Chains):
    chain = chains(config.n_sites)
    params = chain.params
    n = params.n_sites
    rng = np.random.Generator(np.random.Philox(key=[config.seed, 0x5CA1]))
    xi = np.asarray(params.xi, dtype=complex)
    # every (left, right) root-set pair first, in the order the generator
    # serves them; then one call per route and (M_left, M_right) group
    samples = []
    for _ in range(50):
        m_left = int(rng.integers(0, n + 1))
        m_right = int(rng.integers(0, n + 1))
        roots = _draw_separated(rng, m_left + m_right, params.eta, avoid=xi)
        samples.append((roots[:m_left], roots[m_left:]))
    worst_closed = 0.0
    for left_roots, right_roots in _stacks(samples):
        left_spec = spec_from_roots(params, left_roots, "left")
        right_spec = spec_from_roots(params, right_roots, "right")
        values = [
            sp_dense(params, left_spec, right_spec),
            sp_direct(params, left_spec, right_spec),
            sp_a_form(params, left_roots, right_roots),
            sp_b_form(params, left_roots, right_roots),
        ]
        if left_roots.shape[-1] + right_roots.shape[-1] == n:
            values.append(sp_izergin_form(params, left_roots, right_roots))
        values = np.array(values)
        worst_closed = max(worst_closed, _worst_gap(values[1:] - values[0], *values))
    rows = [_residual("scalar-products/closed_forms_agree_with_dense", worst_closed)]
    # every left root set first, in the order the generator serves them;
    # then one pairing call and one stack of dense states per (R, M) group
    samples = []
    for rec, (_, vec) in zip(chain.records, chain.vectors):
        avoid = np.concatenate([xi, rec.bethe_roots])
        for m_left in range(0, n + 2):
            left_roots = _draw_separated(rng, m_left, params.eta, avoid=avoid)
            samples.append((left_roots, rec.bethe_roots, vec))
    worst_eig = 0.0
    worst_vanish = 0.0
    for left_roots, on_shell, vecs in _stacks(samples):
        values = sp_on_shell(params, left_roots, on_shell)
        lefts = separate_state_dense(
            params, spec_from_roots(params, left_roots, "left")
        )
        dense = np.einsum("ki,ki->k", lefts, vecs)
        sizes = np.abs(lefts).max(axis=-1) * np.abs(vecs).max(axis=-1)
        worst_eig = max(worst_eig, _worst_gap(values - dense, dense, sizes))
        if left_roots.shape[-1] < on_shell.shape[-1]:
            worst_vanish = max(worst_vanish, _worst_gap(values, dense, sizes))
    rows += [
        _residual("scalar-products/eigenstate_dispatch_matches_dense", worst_eig),
        _residual("scalar-products/below_sector_pairings_vanish", worst_vanish),
    ]
    return rows, None


def _suite_form_factors(config: RunConfig, chains: Chains):
    chain = chains(config.n_sites)
    params, records = chain.params, chain.records
    lefts = np.stack([left for left, _ in chain.vectors])
    rights = np.stack([right for _, right in chain.vectors], axis=1)
    counts = np.array([rec.n_roots for rec in records])
    diff = counts[:, None] - counts[None, :]
    distant = np.abs(diff) > 1
    # elements forced to zero sit at the dense oracle's own eigensolver
    # noise (well below 1e-6 of the pairing's magnitude scale), so the
    # error denominator is floored high enough that only that noise is
    # absorbed
    norms = np.linalg.norm(lefts, axis=1)[:, None] * np.linalg.norm(rights, axis=0)
    floor = 1e-3 * np.maximum(norms, _TINY)
    values = ff_from_lowering(diff[..., None], chain.lowering)
    rows = []
    worst_zero = 0.0
    for op, name in (("-", "lowering"), ("+", "raising"), ("z", "z")):
        worst = 0.0
        for site in range(1, params.n_sites + 1):
            # every dense element of the operator, from the shared vectors
            dense = lefts @ site_sigma(params, site, op) @ rights
            value = values[op][..., site - 1]
            err = np.abs(value - dense) / np.maximum(np.abs(dense), floor)
            zero = np.maximum(np.abs(value), np.abs(dense)) / floor
            worst = max(worst, float(err[~distant].max(initial=0.0)))
            worst_zero = max(worst_zero, float(zero[distant].max(initial=0.0)))
        rows.append(_residual(f"form-factors/{name}_matches_dense", worst))
    rows.append(_residual("form-factors/distant_sectors_vanish", worst_zero))

    fix = fixture_params(1)
    fix_records = full_spectrum(fix, config.seed)
    up = next(r for r in fix_records if r.n_roots == 1)
    down = next(r for r in fix_records if r.n_roots == 0)
    fixture = ff_from_lowering(
        down.n_roots - up.n_roots, ff_sigma_minus(fix, down, up, 1)
    )
    minus, plus, zval = fixture["-"], fixture["+"], fixture["z"]
    # the z element equals +2(bra - ket sector gap) times the lowering
    # element; the often-quoted opposite overall sign fails this fixture
    ratio = zval / (2.0 * (down.n_roots - up.n_roots) * minus)
    rows += [
        _match("form-factors/single_site_lowering_fixture", minus, -0.5),
        _match("form-factors/single_site_raising_fixture", plus, 0.5),
        _match("form-factors/single_site_z_fixture", zval, 1.0),
        _match("form-factors/z_sign_follows_flip_parity_derivation", ratio, 1.0),
    ]
    return rows, None


def _suite_aba_check(config: RunConfig, chains: Chains):
    n_eff = min(config.n_sites, 4)
    chain = chains(n_eff)
    params, records = chain.params, chain.records
    worst_const = 0.0
    worst_spread = 0.0
    states = product_states(params, records)
    reports = correspondence_report(params, records, states, chain.vectors)
    for report in reports:
        expected = report["expected"]
        worst_const = max(
            worst_const,
            abs(report["ratio"] - expected) / abs(expected),
            abs(report["left_ratio"] - expected) / abs(expected),
        )
        worst_spread = max(worst_spread, report["spread"], report["left_spread"])
    rows = [
        _residual("aba-check/correspondence_constant_matches", worst_const),
        _residual("aba-check/correspondence_ratio_spread", worst_spread),
        _residual(
            "aba-check/reference_state_identity", reference_state_identity(params)
        ),
        _residual(
            "aba-check/antiperiodic_twisted_isospectral", isospectrality_check(params)
        ),
    ]
    comp = completeness_check(params, records, states)
    # a count that also fails when some product state misses its eigenstate
    missing = abs(comp["n_distinct"] - 2**n_eff) + int(not comp["max_residual"] <= 1e-7)
    rows.append(
        ("aba-check/product_state_completeness", comp["n_distinct"], 2**n_eff, missing)
    )
    # zeros off the equal nonzero sectors, which the unit floor turns into
    # zero gaps
    sov_vals, aba_vals, diffs = weighted_expansion_table(params, records)
    worst_expansion = _worst_gap(diffs, sov_vals, aba_vals, floor=1.0)
    rows.append(_residual("aba-check/weighted_expansions_agree", worst_expansion))
    translation = translation_residual(params, records, states, chain.lowering)
    rows.append(_residual("aba-check/operator_translation_constants", translation))
    rep_index = next((i for i, r in enumerate(records) if r.n_roots > 0), 0)
    rep, rep_report = records[rep_index], reports[rep_index]
    summary = {
        "N": n_eff,
        "seed": config.seed,
        "constant_expected": _fmt(
            expected_correspondence_constant(n_eff, rep.n_roots)
        ),
        "constant_measured": _fmt(rep_report["ratio"]),
        "max_ratio_spread": worst_spread,
        "weighted_expansion_max_diff": worst_expansion,
    }
    return rows, summary


def _suite_homogeneous_stress(config: RunConfig, chains: Chains):
    sweep_rows = homogeneous_stress_sweep(n_sites=4, seed=config.seed)
    trends = stress_trends(sweep_rows)
    rows = []
    for key in ("b_form", "slavnov_form", "izergin_form"):
        diffs = trends[key + "_diffs"]
        ratios = [diffs[i + 1] / max(diffs[i], _TINY) for i in range(len(diffs) - 1)]
        worst = max(ratios)
        rows.append((f"homogeneous-stress/{key}_cauchy_in_eps", worst, 0.1, worst))
    worst_cross = 0.0
    for r in sweep_rows:
        trio = [r["b_form"], r["slavnov_form"], r["izergin_form"]]
        scale = max(max(abs(v) for v in trio), _TINY)
        worst_cross = max(worst_cross, max(abs(v - trio[0]) for v in trio[1:]) / scale)
    rows.append(
        _residual("homogeneous-stress/smooth_routes_mutually_agree", worst_cross)
    )
    n_power = 3  # collapsing 4-site lattice: inverse-cube growth expected
    floor = min(
        row["raw_condition"] * row["eps"] ** n_power for row in sweep_rows[:3]
    )
    lattice = trends["izergin_form_lattice_diffs"]
    smooth = trends["izergin_form_diffs"]
    contrast = lattice[-1] / max(smooth[-1], _TINY)
    rows += [
        (
            "homogeneous-stress/raw_matrix_condition_grows_inverse_cubed",
            floor,
            1.0,
            0.0 if floor >= 0.01 else 1.0,
        ),
        (
            "homogeneous-stress/plain_lattice_route_degrades",
            contrast,
            100.0,
            0.0 if contrast >= 100.0 else 1.0,
        ),
    ]
    # every trend is a list but the fitted exponent
    summary = {
        key: [_fmt(v) for v in values] if isinstance(values, list) else _fmt(values)
        for key, values in trends.items()
    }
    summary["n_used"] = 4
    return rows, summary


_SUITES = {
    "oracle": _suite_oracle,
    "sov": _suite_sov,
    "spectrum": _suite_spectrum,
    "identities": _suite_identities,
    "scalar-products": _suite_scalar_products,
    "form-factors": _suite_form_factors,
    "aba-check": _suite_aba_check,
    "homogeneous-stress": _suite_homogeneous_stress,
}


def run(config: RunConfig) -> dict:
    """Execute the selected suites and assemble the deterministic report."""
    rows: list[tuple] = []
    summaries: dict = {}
    aborted: dict = {}
    drawn: dict[int, _Chain] = {}

    def chains(n_sites: int) -> _Chain:
        # the run's chain of this length; a draw that raises is not kept
        if n_sites not in drawn:
            params = sample_generic_params(n_sites, config.seed)
            drawn[n_sites] = _Chain(params, config.seed)
        return drawn[n_sites]

    for suite in SUITE_ORDER:
        if suite not in config.suites:
            continue
        try:
            suite_rows, summary = _SUITES[suite](config, chains)
        except Exception as exc:  # a suite abort is recorded, others continue
            aborted[suite] = f"{type(exc).__name__}: {exc}"
            continue
        rows.extend(suite_rows)
        if summary is not None:
            summaries[suite] = summary
    checks = [
        {
            "name": name,
            "value": _fmt(value),
            "reference": _fmt(reference),
            "rel_err": float(rel_err),
            "pass": bool(rel_err <= CHECKS[name][1]),
        }
        for name, value, reference, rel_err in sorted(rows, key=lambda r: r[0])
    ]
    passed = bool(checks) and all(r["pass"] for r in checks) and not aborted
    return {
        "config": {
            "n_sites": config.n_sites,
            "seed": config.seed,
            "suites": list(config.suites),
        },
        "checks": checks,
        "summaries": summaries,
        "aborted": aborted,
        "pass": passed,
    }


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "value", "reference", "rel_err", "pass"])
    for row in report["checks"]:
        writer.writerow(
            [
                row["name"],
                row["value"],
                row["reference"],
                repr(row["rel_err"]),
                "true" if row["pass"] else "false",
            ]
        )
    return buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sovxxx",
        description=(
            "Numerical verification suites for the antiperiodic chain library; "
            "each check row has a fixed tolerance (cli.CHECKS), and equal "
            "configurations produce byte-identical reports at a fixed BLAS "
            "thread count"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, suites in _SUBCOMMANDS.items():
        p = sub.add_parser(
            name,
            help=f"run the {' and '.join(suites) if len(suites) < 3 else 'full set of'} suite(s)",
        )
        p.add_argument("--n", type=int, default=3, help="chain length (1..8)")
        p.add_argument("--seed", type=int, default=0, help="generator seed")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json", dest="fmt"
        )
        p.set_defaults(suites=suites)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            n_sites=args.n,
            seed=args.seed,
            suites=tuple(args.suites),
            out=args.out,
            fmt=args.fmt,
        )
    except ValueError as exc:
        parser.error(str(exc))
        return 2
    report = run(config)
    text = render_json(report) if config.fmt == "json" else render_csv(report)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
