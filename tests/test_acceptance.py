"""Acceptance gate: one test per release criterion, run with ``pytest -v``.

Each criterion runs the ``sovxxx`` suites that implement it on the seed-0
chain (the chain every other test draws) at each N of its range, and
requires every report row that gates it to pass at the CLI's tolerance.
Only what no row checks is computed here.  Each test prints the worst relative
error of its rows, so the verbose log doubles as the acceptance report.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from sovxxx.chain import fixture_params
from sovxxx.cli import SUITE_ORDER, RunConfig, run
from sovxxx.dense import default_eval_point, hamiltonian_limit_check
from sovxxx.scalar import gaudin_norm, sp_direct
from sovxxx.sov import spec_constant_one
from sovxxx.spectrum import full_spectrum, pairing_indices

from conftest import cached_params, cached_spectrum

_TINY = 1e-300

# criterion -> (chain lengths its suites run at, the report rows gating it);
# every row of ``sovxxx all`` gates exactly one criterion
GATES = {
    1: (
        (1,),
        (
            "form-factors/single_site_lowering_fixture",
            "form-factors/single_site_raising_fixture",
            "form-factors/single_site_z_fixture",
        ),
    ),
    2: (
        range(1, 6),
        (
            "oracle/transfer_family_commutes",
            "oracle/quantum_determinant_factorizes",
            "oracle/global_flip_fixes_antiperiodic_transfer",
            "oracle/global_flip_negates_twisted_transfer",
            "oracle/rotation_maps_antiperiodic_to_twisted",
        ),
    ),
    3: (
        range(1, 6),
        (
            "sov/basis_gram_is_known_diagonal",
            "sov/basis_resolves_identity",
            "sov/basis_diagonal_eigenrelation",
        ),
    ),
    4: (
        range(1, 7),
        (
            "spectrum/eigenvalue_count_complete",
            "spectrum/worst_functional_tq_residual",
            "spectrum/worst_bethe_residual",
            "spectrum/worst_wronskian_residual",
            "spectrum/worst_discrete_system_residual",
            "spectrum/worst_eigenstate_residual",
            "spectrum/negation_pairing_is_involution",
            "spectrum/auxiliary_solve_seed_independent",
        ),
    ),
    5: (
        range(2, 6),
        (
            "identities/plus_minus_weight_exchange",
            "identities/domain_wall_equals_dressed_functional",
            "identities/unbalanced_weight_exchange_grid",
            "identities/oversized_weight_overlap_vanishes",
            "identities/on_shell_determinant_reduction",
            "identities/rectangular_on_shell_reduction",
            "identities/saturated_on_shell_equals_domain_wall",
            "identities/coinciding_root_limit_matches_norm",
        ),
    ),
    6: (
        range(2, 6),
        (
            "scalar-products/closed_forms_agree_with_dense",
            "scalar-products/eigenstate_dispatch_matches_dense",
            "scalar-products/below_sector_pairings_vanish",
        ),
    ),
    7: (
        range(1, 7),
        (
            "form-factors/lowering_matches_dense",
            "form-factors/raising_matches_dense",
            "form-factors/z_matches_dense",
            "form-factors/distant_sectors_vanish",
            "form-factors/z_sign_follows_flip_parity_derivation",
        ),
    ),
    8: (
        range(1, 5),
        (
            "aba-check/correspondence_constant_matches",
            "aba-check/correspondence_ratio_spread",
            "aba-check/weighted_expansions_agree",
            "aba-check/reference_state_identity",
            "aba-check/antiperiodic_twisted_isospectral",
            "aba-check/product_state_completeness",
            "aba-check/operator_translation_constants",
        ),
    ),
    # the stress sweep always collapses a 4-site lattice
    9: (
        (4,),
        (
            "homogeneous-stress/b_form_cauchy_in_eps",
            "homogeneous-stress/slavnov_form_cauchy_in_eps",
            "homogeneous-stress/izergin_form_cauchy_in_eps",
            "homogeneous-stress/smooth_routes_mutually_agree",
            "homogeneous-stress/raw_matrix_condition_grows_inverse_cubed",
            "homogeneous-stress/plain_lattice_route_degrades",
        ),
    ),
    # the row compares the Hamiltonian forms at N = 2 and 3 whatever the run's N
    10: ((1,), ("oracle/hamiltonian_forms_agree_at_zero_lattice",)),
}


@functools.cache
def _report(n_sites: int) -> tuple[dict, float]:
    """The seed-0 report at this N over every suite some criterion runs
    there, with its wall time in seconds."""
    suites = tuple(
        suite
        for suite in SUITE_ORDER
        if any(
            n_sites in sizes and name.startswith(suite + "/")
            for sizes, names in GATES.values()
            for name in names
        )
    )
    start = time.perf_counter()
    report = run(RunConfig(n_sites=n_sites, seed=0, suites=suites))
    return report, time.perf_counter() - start


def _gated_rows(criterion: int) -> None:
    """Require every row gating the criterion to pass at each of its N and
    print each row's worst relative error."""
    sizes, names = GATES[criterion]
    by_n = {}
    for n_sites in sizes:
        report, _ = _report(n_sites)
        assert report["aborted"] == {}, (n_sites, report["aborted"])
        rows = {row["name"]: row for row in report["checks"]}
        failed = [rows[name] for name in names if not rows[name]["pass"]]
        assert not failed, (n_sites, failed)
        by_n[n_sites] = rows
    worst = ", ".join(
        f"{name} {max(rows[name]['rel_err'] for rows in by_n.values()):.2e}"
        for name in names
    )
    print(f"\ncriterion {criterion}, N in {list(sizes)}: {worst}")


def _sectors(n_sites: int) -> Counter:
    """Number of seed-0 records in each root-count sector."""
    return Counter(rec.n_roots for rec in cached_spectrum(n_sites, 0))


def test_every_report_row_gates_one_criterion():
    report, _ = _report(4)
    assert report["config"]["suites"] == list(SUITE_ORDER)
    gated = [name for _, names in GATES.values() for name in names]
    assert sorted(gated) == [row["name"] for row in report["checks"]]


def test_criterion_01_single_site_closed_forms():
    _gated_rows(1)
    start = time.perf_counter()
    params = fixture_params(1)
    records = full_spectrum(params, 0)
    by_tau = {round(complex(npoly.polyval(0.0, rec.tau)).real): rec for rec in records}
    assert sorted(by_tau) == [-1, 1]
    plus, minus = by_tau[1], by_tau[-1]

    assert np.allclose(minus.q_tau, [1.0, 0.0], atol=1e-10)
    assert np.allclose(plus.q_tau, [0.5, 1.0], atol=1e-10)

    one = sp_direct(
        params, spec_constant_one(params, "left"), spec_constant_one(params, "right")
    )
    assert abs(one - 2.0) <= 1e-10
    assert abs(gaudin_norm(params, minus) - 2.0) <= 1e-10
    assert abs(gaudin_norm(params, plus) - 0.5) <= 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"criterion 1: spectrum {{+1,-1}}, Q {{1, x + 1/2}}, <1|1> = 2, "
        f"norms {{2, 1/2}} within 1e-10 in {elapsed:.3f}s"
    )


def test_criterion_02_dense_oracle_gates():
    _gated_rows(2)
    elapsed = sum(_report(n)[1] for n in GATES[2][0])
    assert elapsed < 30.0
    print(f"criterion 2: every suite gated at N <= 5 ran in {elapsed:.2f}s")


def test_criterion_03_separated_basis_structure():
    _gated_rows(3)


def test_criterion_04_spectrum_completeness():
    # the gated rows include the re-solve of every record at another seed
    _gated_rows(4)
    worst_pairing = 0.0
    for n_sites in GATES[4][0]:
        params = cached_params(n_sites, 0)
        records = cached_spectrum(n_sites, 0)
        probe = default_eval_point(params, 5)
        values = npoly.polyval(probe, np.array([rec.tau for rec in records]).T)
        gaps = np.abs(values[:, None] - values[None, :]) + np.eye(len(records))
        assert float(np.min(gaps)) > 1e-6
        partners = pairing_indices(records)
        negation = np.abs(values + values[partners]) / np.maximum(np.abs(values), _TINY)
        worst_pairing = max(worst_pairing, float(np.max(negation)))
    assert worst_pairing <= 1e-9
    print(f"criterion 4: tau negation {worst_pairing:.2e} (tol 1e-9)")


def test_criterion_05_determinant_identities():
    _gated_rows(5)
    # the saturated row reads 0 unless some root set fills half the chain
    assert any(
        2 * roots.size == n_sites
        for n_sites in GATES[5][0]
        for rec in cached_spectrum(n_sites, 0)
        for roots in (rec.bethe_roots, rec.q_minus_roots)
    )


def test_criterion_06_scalar_product_coherence():
    _gated_rows(6)


def test_criterion_07_form_factors_full_spectrum():
    _gated_rows(7)
    sectors = [_sectors(n) for n in GATES[7][0]]
    # distant-sector zeros and equal-sector off-diagonal pairs both occur
    assert any(max(s) - min(s) > 1 for s in sectors)
    assert any(count > 1 for s in sectors for count in s.values())


def test_criterion_08_product_state_bridge():
    _gated_rows(8)
    # some equal-sector pair inside the chain feeds the weighted expansions
    assert any(1 <= r < n for n in GATES[8][0] for r in _sectors(n))


def test_criterion_09_homogeneous_limit_smoothness():
    _gated_rows(9)
    summary = _report(4)[0]["summaries"]["homogeneous-stress"]
    exponent = float(summary["condition_growth_exponent"])
    assert exponent >= 2.0
    print(
        f"criterion 9: b-form successive diffs {', '.join(summary['b_form_diffs'])}; "
        f"condition growth exponent {exponent:.2f} (cubic-like expected)"
    )


def test_criterion_10_local_hamiltonian_limit():
    _gated_rows(10)
    devs = [hamiltonian_limit_check(3, eps) for eps in (1e-2, 1e-3, 1e-4)]
    for k in range(1, len(devs)):
        assert devs[k] <= 0.2 * devs[k - 1]
    print("criterion 10: near-lattice decay " + " -> ".join(f"{d:.2e}" for d in devs))


# chains whose spectrum, on-shell, pairing and form-factor rows sat closest
# to their tolerances
@pytest.mark.parametrize(
    "n_sites, seed",
    [(4, 14), (4, 27), (4, 1610690545), (4, 649306621)]
    + [(5, 875120971), (5, 288145142), (5, 758636161)],
)
def test_spectrum_backed_suites_pass_at_regression_seeds(n_sites, seed):
    suites = ("spectrum", "identities", "scalar-products", "form-factors", "aba-check")
    report = run(RunConfig(n_sites=n_sites, seed=seed, suites=suites))
    failed = [row["name"] for row in report["checks"] if not row["pass"]]
    assert report["aborted"] == {} and not failed, failed
