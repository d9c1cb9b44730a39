"""Reproducible verification driver with JSON/CSV reporting.

Subcommands select suites of numerical checks over a deterministically
drawn chain; every random draw flows from the counter-based Philox
generator and the configured seed, so two runs with the same
configuration emit byte-identical reports.  Each check row carries the
measured value, the reference it is held against, a relative error, and
a pass flag; the process exit status is zero exactly when every
selected check passes and no suite aborted.

One run draws each chain length it needs once (the form-factors and
aba-check suites cap N at 4, so they draw their own chain above that)
and builds that chain's spectrum records and dense eigenstate vectors at
most once, on first use; every suite of the run reads the same shared,
read-only objects, so sharing changes no reported number.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .aba import (
    weighted_expansion_crosscheck,
    completeness_check,
    correspondence_report,
    expected_correspondence_constant,
    isospectrality_check,
    reference_state_identity,
    translation_residual,
)
from .chain import ChainParams, d_of, fixture_params, sample_generic_params
from .dense import (
    basis_rotation,
    default_eval_point,
    global_flip,
    hamiltonian_limit_check,
    monodromy,
    quantum_det_check,
    site_sigma,
    transfer_antiperiodic,
    transfer_twisted,
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
from .formfactors import eigenstate_vectors, ff_from_lowering, ff_sigma_minus
from .scalar import (
    gaudin_norm,
    homogeneous_stress_sweep,
    sp_a_form,
    sp_b_form,
    sp_dense,
    sp_direct,
    sp_izergin_form,
    sp_with_eigenstate,
    stress_trends,
)
from .sov import (
    bilinear,
    diagonal_eigenvalue,
    occupation_patterns,
    separate_state_dense,
    sov_basis_state,
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

_TINY = 1e-300
# seed + 1 (the spectrum suite's redraw) must stay an exact int64 Philox key
_MAX_SEED = 2**63 - 2


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by every suite."""

    n_sites: int = 3
    seed: int = 0
    margin: float = 0.0
    tolerances: dict = field(default_factory=dict)
    suites: tuple = SUITE_ORDER
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self) -> None:
        if not 1 <= self.n_sites <= 8:
            raise ValueError("site count must be between 1 and 8")
        if not 0 <= self.seed <= _MAX_SEED:
            raise ValueError(f"seed must be between 0 and {_MAX_SEED}")
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise ValueError("margin must be finite and nonnegative")
        for suite, tol in self.tolerances.items():
            if suite not in SUITE_ORDER:
                raise ValueError(f"unknown suite in tolerance override: {suite}")
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError("tolerance overrides must be finite and positive")
        for suite in self.suites:
            if suite not in SUITE_ORDER:
                raise ValueError(f"unknown suite: {suite}")
        if self.fmt not in ("json", "csv"):
            raise ValueError('format must be "json" or "csv"')

    def tol(self, suite: str, default: float) -> float:
        return float(self.tolerances.get(suite, default))


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


def _row(name: str, value, reference, rel_err: float, passed: bool) -> dict:
    return {
        "name": name,
        "value": _fmt(value),
        "reference": _fmt(reference),
        "rel_err": float(rel_err),
        "pass": bool(passed),
    }


def _residual_row(name: str, residual: float, tol: float) -> dict:
    return _row(name, residual, 0.0, residual, residual <= tol)


def _match_row(name: str, value, reference, tol: float) -> dict:
    rel = abs(complex(value) - complex(reference)) / max(abs(complex(reference)), 1.0)
    return _row(name, value, reference, rel, rel <= tol)


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
        ``[i, j, s - 1]``."""
        params, recs = self.params, self.records
        sites = range(1, params.n_sites + 1)
        flat = [
            ff_sigma_minus(params, b, k, s) for b in recs for k in recs for s in sites
        ]
        out = np.array(flat, dtype=complex).reshape(len(recs), len(recs), len(sites))
        out.setflags(write=False)
        return out


Chains = Callable[[int], _Chain]


def _mat_scale(mat: np.ndarray) -> float:
    return max(float(np.max(np.abs(mat))), _TINY)


# ---------------------------------------------------------------- suites


def _suite_oracle(config: RunConfig, chains: Chains):
    params = chains(config.n_sites).params
    tol = config.tol("oracle", 1e-9)
    pts = [default_eval_point(params, i) for i in range(3)]
    mats = [transfer_antiperiodic(params, z) for z in pts]
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            num = float(np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])))
            worst = max(worst, num / (_mat_scale(mats[i]) * _mat_scale(mats[j])))
    rows = [_residual_row("oracle/transfer_family_commutes", worst, tol)]
    qworst = max(quantum_det_check(params, pts[0]), quantum_det_check(params, pts[1]))
    rows.append(_residual_row("oracle/quantum_determinant_factorizes", qworst, tol))
    flip = global_flip(params)
    t_anti = mats[0]
    t_tw = transfer_twisted(params, pts[0])
    r_flip_a = float(np.max(np.abs(flip @ t_anti @ flip - t_anti))) / _mat_scale(t_anti)
    r_flip_t = float(np.max(np.abs(flip @ t_tw @ flip + t_tw))) / _mat_scale(t_tw)
    rows.append(
        _residual_row("oracle/global_flip_fixes_antiperiodic_transfer", r_flip_a, tol)
    )
    rows.append(
        _residual_row("oracle/global_flip_negates_twisted_transfer", r_flip_t, tol)
    )
    rot = basis_rotation(params)
    r_sim = float(np.max(np.abs(rot @ t_anti @ rot.T - t_tw))) / _mat_scale(t_tw)
    rows.append(
        _residual_row("oracle/rotation_maps_antiperiodic_to_twisted", r_sim, tol)
    )
    ham = max(hamiltonian_limit_check(2, 0.0), hamiltonian_limit_check(3, 0.0))
    rows.append(
        _residual_row("oracle/hamiltonian_forms_agree_at_zero_lattice", ham, tol)
    )
    return rows, None


def _suite_sov(config: RunConfig, chains: Chains):
    params = chains(config.n_sites).params
    tol = config.tol("sov", 1e-9)
    gram = sov_gram_check(params)
    rows = [
        _residual_row("sov/basis_gram_is_known_diagonal", gram["gram"], tol),
        _residual_row("sov/basis_resolves_identity", gram["identity"], tol),
    ]
    worst = 0.0
    for lam in (default_eval_point(params, 0), default_eval_point(params, 2)):
        dmat = monodromy(params, lam)[1][1]
        for h in occupation_patterns(params.n_sites):
            val = diagonal_eigenvalue(params, h, lam)
            right = sov_basis_state(params, h, "right")
            left = sov_basis_state(params, h, "left")
            sr = max(abs(val) * float(np.max(np.abs(right))), _TINY)
            sl = max(abs(val) * float(np.max(np.abs(left))), _TINY)
            worst = max(
                worst,
                float(np.max(np.abs(dmat @ right - val * right))) / sr,
                float(np.max(np.abs(left @ dmat - val * left))) / sl,
            )
    rows.append(_residual_row("sov/basis_diagonal_eigenrelation", worst, tol))
    return rows, None


def _suite_spectrum(config: RunConfig, chains: Chains):
    chain = chains(config.n_sites)
    params, records = chain.params, chain.records
    n = params.n_sites
    rows = [
        _row(
            "spectrum/eigenvalue_count_complete",
            len(records),
            2**n,
            abs(len(records) - 2**n),
            len(records) == 2**n,
        )
    ]
    for key, default in (
        ("functional_tq", 1e-8),
        ("bethe", 1e-7),
        ("wronskian", 1e-8),
        ("discrete_system", 1e-9),
        ("eigenstate", 1e-9),
    ):
        worst = max(rec.residuals[key] for rec in records)
        rows.append(
            _residual_row(
                f"spectrum/worst_{key}_residual", worst, config.tol("spectrum", default)
            )
        )
    partner = pairing_indices(records)
    involution = all(partner[partner[i]] == i for i in range(len(records)))
    rows.append(
        _row(
            "spectrum/negation_pairing_is_involution",
            int(involution),
            1,
            0.0 if involution else 1.0,
            involution,
        )
    )
    redraw_worst = 0.0
    for rec in (records[0], records[len(records) // 2], records[-1]):
        again = solve_q_from_tau(params, rec.tau, seed=config.seed + 1)
        base = np.zeros(max(again.coeffs.size, rec.q_tau.coeffs.size), dtype=complex)
        base[: rec.q_tau.coeffs.size] = rec.q_tau.coeffs
        other = np.zeros_like(base)
        other[: again.coeffs.size] = again.coeffs
        scale = max(float(np.max(np.abs(base))), _TINY)
        redraw_worst = max(redraw_worst, float(np.max(np.abs(base - other))) / scale)
    rows.append(
        _residual_row(
            "spectrum/auxiliary_solve_seed_independent",
            redraw_worst,
            config.tol("spectrum", 1e-9),
        )
    )
    return rows, None


def _draw_separated(
    rng,
    count: int,
    eta: complex,
    avoid=(),
    min_sep: float = 0.2,
    box: float = 1.8,
    attempts: int = 4000,
) -> np.ndarray:
    """Draw points no closer than min_sep to each other, to the avoid
    list, or to any of those shifted by plus or minus eta."""
    shifts = (0.0, complex(eta), -complex(eta))
    accepted: list[complex] = []
    anchors = [complex(w) for w in avoid]
    for _ in range(attempts):
        if len(accepted) == count:
            break
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(
            abs(z - w + s) >= min_sep for w in anchors + accepted for s in shifts
        ):
            accepted.append(z)
    if len(accepted) != count:
        raise SamplingFailureError("could not draw well-separated sample points")
    return np.array(accepted, dtype=complex)


def _suite_identities(config: RunConfig, chains: Chains):
    tol_alg = config.tol("identities", 1e-10)
    tol_shell = config.tol("identities", 1e-9)
    rows = []
    rng = np.random.Generator(np.random.Philox(key=[config.seed, 0x1D5]))

    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 6))
        eta = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2))
        xs = _draw_separated(rng, m, eta)
        f = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        g = -f * balanced_shift_ratio(xs, eta, xs)
        lhs = dressed_vandermonde(xs, eta, f, +1)
        rhs = dressed_vandermonde(xs, eta, g, -1)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), _TINY))
    rows.append(_residual_row("identities/plus_minus_weight_exchange", worst, tol_alg))

    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 6))
        eta = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2))
        xs = _draw_separated(rng, m, eta)
        ys = _draw_separated(rng, m, eta, avoid=xs)
        mu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        iz = izergin_determinant(mu, xs, ys, eta)
        f_on_x = mu * shift_ratio(ys, eta, xs, +1)
        alt_a = (-1.0) ** m * dressed_vandermonde(xs, eta, f_on_x, -1)
        f_on_y = mu * shift_ratio(xs, eta, ys, -1)
        alt_b = (-1.0) ** m * dressed_vandermonde(ys, eta, f_on_y, +1)
        scale = max(abs(iz), abs(alt_a), abs(alt_b), _TINY)
        worst = max(worst, abs(iz - alt_a) / scale, abs(iz - alt_b) / scale)
    rows.append(
        _residual_row("identities/domain_wall_equals_dressed_functional", worst, tol_alg)
    )

    worst = 0.0
    for m in range(5):
        for n in range(5):
            for mu in (-1.0, 2.0, 0.5 + 0.5j):
                if m > n and mu == 1.0:
                    continue
                eta = complex(0.9, 0.2 * ((m + n) % 3 - 1))
                xs = _draw_separated(rng, m, eta)
                ys = _draw_separated(rng, n, eta, avoid=xs)
                lhs, rhs = dressed_vandermonde_unbalanced_check(mu, xs, ys, eta)
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    rows.append(
        _residual_row("identities/unbalanced_weight_exchange_grid", worst, tol_alg)
    )

    worst = 0.0
    for small in range(0, 5):
        for big in range(small + 1, 6):
            eta = complex(1.1, -0.15)
            xs = _draw_separated(rng, small, eta)
            ys = _draw_separated(rng, big, eta, avoid=xs)
            for f, sgn in (
                (shift_ratio(xs, eta, ys, -1), +1),
                (shift_ratio(xs, eta, ys, +1), -1),
            ):
                zero = abs(dressed_vandermonde(ys, eta, f, sgn))
                # the vanishing is structural; doubling the weights breaks
                # it and exposes the determinant's natural magnitude
                scale = max(
                    1.0,
                    abs(dressed_vandermonde(ys, eta, 2.0 * f, sgn)),
                    abs(dressed_vandermonde(ys, eta, 1j * f, sgn)),
                )
                worst = max(worst, zero / scale)
    rows.append(_residual_row("identities/oversized_weight_overlap_vanishes", worst, tol_alg))

    chain = chains(config.n_sites)
    params, records = chain.params, chain.records
    eta = params.eta
    worst3 = 0.0
    worst4 = 0.0
    worst_sat = 0.0
    for rec in records:
        for roots in (rec.bethe_roots, rec.q_minus_roots):
            m = roots.size
            if m == 0:
                continue
            avoid = np.concatenate([roots, np.asarray(params.xi, dtype=complex)])
            for _ in range(10):
                ys = _draw_separated(rng, m, eta, avoid=avoid, min_sep=0.3, box=2.4)
                lhs = slavnov_determinant(params, -1.0, roots, ys)
                pooled = np.concatenate([roots, ys])
                f_vals = -shift_ratio(params.xi, eta, pooled, +1)
                rhs = dressed_vandermonde(pooled, eta, f_vals, -1)
                scale = max(abs(lhs), abs(rhs), _TINY)
                worst3 = max(
                    worst3, abs(gen_slavnov_sign(m, 0) * lhs - rhs) / scale
                )
                if 2 * m == params.n_sites:
                    sat = (-1.0) ** m * izergin_determinant(
                        -1.0, pooled, params.xi, eta
                    )
                    worst_sat = max(worst_sat, abs(lhs - sat) / max(abs(lhs), _TINY))
                extra = int(rng.integers(1, 3))
                ys4 = _draw_separated(
                    rng, m + extra, eta, avoid=avoid, min_sep=0.3, box=2.4
                )
                lhs4 = gen_slavnov_determinant(params, -1.0, roots, ys4)
                pooled4 = np.concatenate([roots, ys4])
                f4 = -shift_ratio(params.xi, eta, pooled4, +1)
                rhs4 = dressed_vandermonde(pooled4, eta, f4, -1)
                scale4 = max(abs(lhs4), abs(rhs4), _TINY)
                worst4 = max(
                    worst4, abs(gen_slavnov_sign(m, extra) * lhs4 - rhs4) / scale4
                )
    rows.append(
        _residual_row("identities/on_shell_determinant_reduction", worst3, tol_shell)
    )
    rows.append(
        _residual_row("identities/rectangular_on_shell_reduction", worst4, tol_shell)
    )
    rows.append(
        _residual_row(
            "identities/saturated_on_shell_equals_domain_wall", worst_sat, tol_shell
        )
    )

    rec = next((r for r in records if r.n_roots >= 1), None)
    if rec is not None:
        roots = rec.bethe_roots
        n = params.n_sites
        r_count = roots.size
        dirs = np.exp(2j * np.pi * rng.uniform(size=r_count))

        def displaced_norm(eps: float) -> complex:
            ys = roots + eps * dirs
            pref = complex(
                np.prod([d_of(params, z) for z in roots])
                * np.prod([d_of(params, z) for z in ys])
            )
            det = slavnov_determinant(params, -1.0, roots, ys)
            return complex((-1.0) ** r_count * 2.0 ** (n - 2 * r_count) * pref * det)

        limit, _err = richardson_limit(displaced_norm)
        target = gaudin_norm(params, rec)
        rel = abs(limit - target) / max(abs(target), _TINY)
        rows.append(
            _row(
                "identities/coinciding_root_limit_matches_norm",
                limit,
                target,
                rel,
                rel <= config.tol("identities", 1e-6),
            )
        )
    return rows, None


def _suite_scalar_products(config: RunConfig, chains: Chains):
    chain = chains(config.n_sites)
    params = chain.params
    tol = config.tol("scalar-products", 1e-9)
    n = params.n_sites
    rng = np.random.Generator(np.random.Philox(key=[config.seed, 0x5CA1]))
    xi = np.asarray(params.xi, dtype=complex)
    worst_closed = 0.0
    for _ in range(50):
        m_left = int(rng.integers(0, n + 1))
        m_right = int(rng.integers(0, n + 1))
        left_roots = _draw_separated(rng, m_left, params.eta, avoid=xi)
        right_roots = _draw_separated(
            rng, m_right, params.eta, avoid=np.concatenate([xi, left_roots])
        )
        left_spec = spec_from_roots(params, left_roots, "left")
        right_spec = spec_from_roots(params, right_roots, "right")
        values = [
            sp_dense(params, left_spec, right_spec),
            sp_direct(params, left_spec, right_spec),
            sp_a_form(params, left_roots, right_roots),
            sp_b_form(params, left_roots, right_roots),
        ]
        if m_left + m_right == n:
            values.append(sp_izergin_form(params, left_roots, right_roots))
        scale = max(max(abs(v) for v in values), _TINY)
        spread = max(abs(v - values[0]) for v in values[1:])
        worst_closed = max(worst_closed, spread / scale)
    rows = [
        _residual_row(
            "scalar-products/closed_forms_agree_with_dense", worst_closed, tol
        )
    ]
    worst_eig = 0.0
    worst_vanish = 0.0
    for rec, (_, vec) in zip(chain.records, chain.vectors):
        for m_left in range(0, n + 2):
            left_roots = _draw_separated(
                rng, m_left, params.eta, avoid=np.concatenate([xi, rec.bethe_roots])
            )
            value = sp_with_eigenstate(params, left_roots, rec)
            left = separate_state_dense(
                params, spec_from_roots(params, left_roots, "left")
            )
            dense = bilinear(left, vec)
            scale = max(
                abs(dense), float(np.max(np.abs(left)) * np.max(np.abs(vec))), _TINY
            )
            worst_eig = max(worst_eig, abs(value - dense) / scale)
            if m_left < rec.n_roots:
                worst_vanish = max(worst_vanish, abs(value) / scale)
    rows.append(
        _residual_row("scalar-products/eigenstate_dispatch_matches_dense", worst_eig, tol)
    )
    rows.append(
        _residual_row("scalar-products/below_sector_pairings_vanish", worst_vanish, tol)
    )
    return rows, None


def _suite_form_factors(config: RunConfig, chains: Chains):
    n_eff = min(config.n_sites, 4)
    chain = chains(n_eff)
    params, records, vectors = chain.params, chain.records, chain.vectors
    tol = config.tol("form-factors", 1e-8)
    ops = ("-", "+", "z")
    worst = {key: 0.0 for key in ops}
    worst_zero = 0.0
    norms = [tuple(float(np.linalg.norm(v)) for v in pair) for pair in vectors]
    sites = range(1, n_eff + 1)
    sigmas = {(op, site): site_sigma(params, site, op) for op in ops for site in sites}
    for i, bra in enumerate(records):
        for j, ket in enumerate(records):
            gap = abs(bra.n_roots - ket.n_roots)
            # elements forced to zero sit at the dense oracle's own
            # eigensolver noise (well below 1e-6 of the pairing's
            # magnitude scale), so the error denominator is floored
            # high enough that only that noise is absorbed
            floor = 1e-3 * max(norms[i][0] * norms[j][1], _TINY)
            for site in sites:
                values = ff_from_lowering(bra, ket, chain.lowering[i, j, site - 1])
                for op_key in ops:
                    # the element ff_dense evaluates, from the shared vectors
                    dense = bilinear(
                        vectors[i][0], sigmas[op_key, site] @ vectors[j][1]
                    )
                    value = values[op_key]
                    if gap > 1:
                        worst_zero = max(
                            worst_zero, max(abs(value), abs(dense)) / floor
                        )
                    else:
                        err = abs(value - dense) / max(abs(dense), floor)
                        worst[op_key] = max(worst[op_key], err)
    rows = [
        _residual_row("form-factors/lowering_matches_dense", worst["-"], tol),
        _residual_row("form-factors/raising_matches_dense", worst["+"], tol),
        _residual_row("form-factors/z_matches_dense", worst["z"], tol),
        _residual_row("form-factors/distant_sectors_vanish", worst_zero, tol),
    ]

    fix = fixture_params(1)
    fix_records = full_spectrum(fix, config.seed)
    up = next(r for r in fix_records if r.n_roots == 1)
    down = next(r for r in fix_records if r.n_roots == 0)
    fixture = ff_from_lowering(down, up, ff_sigma_minus(fix, down, up, 1))
    minus, plus, zval = fixture["-"], fixture["+"], fixture["z"]
    fix_tol = config.tol("form-factors", 1e-10)
    rows.append(
        _match_row("form-factors/single_site_lowering_fixture", minus, -0.5, fix_tol)
    )
    rows.append(
        _match_row("form-factors/single_site_raising_fixture", plus, 0.5, fix_tol)
    )
    rows.append(_match_row("form-factors/single_site_z_fixture", zval, 1.0, fix_tol))
    # the z element equals +2(bra - ket sector gap) times the lowering
    # element; the often-quoted opposite overall sign fails this fixture
    ratio = zval / (2.0 * (down.n_roots - up.n_roots) * minus)
    rows.append(
        _match_row(
            "form-factors/z_sign_follows_flip_parity_derivation", ratio, 1.0, fix_tol
        )
    )
    return rows, {"n_used": n_eff}


def _suite_aba_check(config: RunConfig, chains: Chains):
    n_eff = min(config.n_sites, 4)
    chain = chains(n_eff)
    params, records = chain.params, chain.records
    tol = config.tol("aba-check", 1e-9)
    worst_const = 0.0
    worst_spread = 0.0
    reports = [
        correspondence_report(params, rec, pair)
        for rec, pair in zip(records, chain.vectors)
    ]
    for report in reports:
        expected = report["expected"]
        worst_const = max(
            worst_const,
            abs(report["ratio"] - expected) / abs(expected),
            abs(report["left_ratio"] - expected) / abs(expected),
        )
        worst_spread = max(worst_spread, report["spread"], report["left_spread"])
    rows = [
        _residual_row("aba-check/correspondence_constant_matches", worst_const, tol),
        _residual_row("aba-check/correspondence_ratio_spread", worst_spread, tol),
        _residual_row(
            "aba-check/reference_state_identity", reference_state_identity(params), tol
        ),
        _residual_row(
            "aba-check/antiperiodic_twisted_isospectral",
            isospectrality_check(params),
            tol,
        ),
    ]
    comp = completeness_check(params, records)
    rows.append(
        _row(
            "aba-check/product_state_completeness",
            comp["n_distinct"],
            2**n_eff,
            abs(comp["n_distinct"] - 2**n_eff),
            comp["n_distinct"] == 2**n_eff and comp["max_residual"] <= 1e-7,
        )
    )
    worst_expansion = 0.0
    for bra in records:
        for ket in records:
            if bra.n_roots != ket.n_roots or bra.n_roots == 0:
                continue
            for site in range(1, n_eff + 1):
                sov_val, aba_val, diff = weighted_expansion_crosscheck(
                    params, bra, ket, site
                )
                worst_expansion = max(
                    worst_expansion,
                    diff / max(abs(sov_val), abs(aba_val), 1.0),
                )
    rows.append(
        _residual_row("aba-check/weighted_expansions_agree", worst_expansion, tol)
    )
    rows.append(
        _residual_row(
            "aba-check/operator_translation_constants",
            translation_residual(params, records, chain.lowering),
            tol,
        )
    )
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
    tol_ratio = config.tol("homogeneous-stress", 0.3)
    rows = []
    for key in ("b_form", "slavnov_form", "izergin_form"):
        diffs = trends[key + "_diffs"]
        ratios = [diffs[i + 1] / max(diffs[i], _TINY) for i in range(len(diffs) - 1)]
        worst = max(ratios)
        rows.append(
            _row(
                f"homogeneous-stress/{key}_cauchy_in_eps",
                worst,
                0.1,
                worst,
                worst <= tol_ratio,
            )
        )
    worst_cross = 0.0
    for r in sweep_rows:
        trio = [r["b_form"], r["slavnov_form"], r["izergin_form"]]
        scale = max(max(abs(v) for v in trio), _TINY)
        worst_cross = max(worst_cross, max(abs(v - trio[0]) for v in trio[1:]) / scale)
    rows.append(
        _residual_row(
            "homogeneous-stress/smooth_routes_mutually_agree", worst_cross, 1e-9
        )
    )
    n_power = 3  # collapsing 4-site lattice: inverse-cube growth expected
    floor = min(
        row["raw_condition"] * row["eps"] ** n_power for row in sweep_rows[:3]
    )
    rows.append(
        _row(
            "homogeneous-stress/raw_matrix_condition_grows_inverse_cubed",
            floor,
            1.0,
            0.0 if floor >= 0.01 else 1.0,
            floor >= 0.01,
        )
    )
    lattice = trends["izergin_form_lattice_diffs"]
    smooth = trends["izergin_form_diffs"]
    contrast = lattice[-1] / max(smooth[-1], _TINY)
    rows.append(
        _row(
            "homogeneous-stress/plain_lattice_route_degrades",
            contrast,
            100.0,
            0.0 if contrast >= 100.0 else 1.0,
            contrast >= 100.0,
        )
    )
    summary = {
        "eps": [_fmt(e) for e in trends["eps"]],
        "b_form_diffs": [_fmt(d) for d in trends["b_form_diffs"]],
        "slavnov_form_diffs": [_fmt(d) for d in trends["slavnov_form_diffs"]],
        "izergin_form_diffs": [_fmt(d) for d in trends["izergin_form_diffs"]],
        "izergin_form_lattice_diffs": [
            _fmt(d) for d in trends["izergin_form_lattice_diffs"]
        ],
        "condition_numbers": [_fmt(c) for c in trends["condition_numbers"]],
        "condition_growth_exponent": _fmt(trends["condition_growth_exponent"]),
        "n_used": 4,
    }
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
    rows: list[dict] = []
    summaries: dict = {}
    aborted: dict = {}
    drawn: dict[int, _Chain] = {}

    def chains(n_sites: int) -> _Chain:
        # the run's chain of this length; a draw that raises is not kept
        if n_sites not in drawn:
            margin = config.margin if config.margin > 0 else None
            params = sample_generic_params(n_sites, config.seed, margin)
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
    rows.sort(key=lambda r: r["name"])
    passed = bool(rows) and all(r["pass"] for r in rows) and not aborted
    return {
        "config": {
            "n_sites": config.n_sites,
            "seed": config.seed,
            "margin": _fmt(config.margin),
            "tolerances": {k: _fmt(v) for k, v in sorted(config.tolerances.items())},
            "suites": list(config.suites),
        },
        "checks": rows,
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


def _parse_tol(pairs) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"tolerance override must look like suite=value: {item}")
        suite, _, raw = item.partition("=")
        out[suite.strip()] = float(raw)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sovxxx",
        description=(
            "Numerical verification suites for the antiperiodic chain library; "
            "equal configurations produce byte-identical reports"
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
        p.add_argument(
            "--margin",
            type=float,
            default=0.0,
            help="separation margin for the parameter draw (0 = library default)",
        )
        p.add_argument(
            "--tol",
            action="append",
            metavar="SUITE=VALUE",
            help="override every default tolerance of one suite",
        )
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
            margin=args.margin,
            tolerances=_parse_tol(args.tol),
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
