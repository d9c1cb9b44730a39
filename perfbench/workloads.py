"""The three benchmark workloads, one pass each.

A pass is ``setup`` (untimed by ``wall_s``, counted in ``setup_s``), then
``timed`` (the region ``wall_s`` measures), then ``check`` (untimed): the
check returns how many checks and elements were attempted and failed, a
digest of every output the pass produced, and any per-element latencies.
Every chain is drawn with ``sample_generic_params(n, seed)``, the draw
the CLI makes for the same ``--n`` and ``--seed``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# attribute access only (``spectrum.full_spectrum``, never a from-import of
# a function), so the tracer's patched bindings are the ones called
from sovxxx import chain, cli, dense, determinants, formfactors, scalar, sov, spectrum
from sovxxx.errors import (
    DegenerateNodesError,
    LimitFailureError,
    NotOnShellError,
    PairingError,
    PoleCollisionError,
    SamplingFailureError,
    SpectrumError,
)

# errors an element evaluation may raise; each one counts as a failure
# (ArithmeticError is what sp_with_eigenstate raises when its two M = R
# routes disagree)
LIBRARY_ERRORS = (
    ArithmeticError,
    DegenerateNodesError,
    LimitFailureError,
    NotOnShellError,
    PairingError,
    PoleCollisionError,
    SamplingFailureError,
    SpectrumError,
)

# tolerances of the CLI checks each post-pass comparison mirrors
FF_TOL = 1e-8  # form-factors/*_matches_dense
SP_TOL = 1e-9  # scalar-products/eigenstate_dispatch_matches_dense
SHELL_TOL = 1e-9  # identities/on_shell_determinant_reduction
NORM_TOL = 1e-8  # norm against the dense self-pairing, as in the test suite
TINY = 1e-300


def _report_check(text: str) -> dict:
    report = json.loads(text)
    bad = [row["name"] for row in report["checks"] if not row["pass"]]
    bad += [f"aborted:{name}" for name in report["aborted"]]
    return {
        "attempted": len(report["checks"]) + len(report["aborted"]),
        "failed": len(bad),
        "failures": bad,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "report_pass": bool(report["pass"]),
    }


class VerifyAll:
    """``sovxxx all --n N --seed S`` in-process, report to a file."""

    def __init__(self, n: int, seed: int, out_dir: Path) -> None:
        self.argv = ["all", "--n", str(n), "--seed", str(seed)]
        self.path = out_dir / f"report-{os.getpid()}.json"

    def timed(self):
        return cli.main(self.argv + ["--out", str(self.path)])

    def check(self, status) -> dict:
        text = self.path.read_text(encoding="utf-8")
        self.path.unlink()
        out = _report_check(text)
        # the exit status must agree with the report's verdict
        out["attempted"] += 1
        if status != (0 if out["report_pass"] else 1):
            out["failed"] += 1
            out["failures"].append(f"exit_status:{status}")
        return out


class SpectrumSuites:
    """The oracle, sov and spectrum suites of the CLI at one N."""

    def __init__(self, n: int, seed: int, out_dir: Path) -> None:
        self.config = cli.RunConfig(
            n_sites=n, seed=seed, suites=("oracle", "sov", "spectrum")
        )

    def timed(self):
        return cli.render_json(cli.run(self.config))

    def check(self, text) -> dict:
        return _report_check(text)


def _draw_separated(rng, count, eta, avoid, min_sep, box) -> np.ndarray:
    """Rejection-sample points no closer than ``min_sep`` to each other or
    to ``avoid``, also after a shift by plus or minus eta."""
    shifts = (0.0, eta, -eta)
    accepted: list[complex] = []
    anchors = [complex(w) for w in avoid]
    for _ in range(4000):
        if len(accepted) == count:
            return np.array(accepted, dtype=complex)
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(z - w + s) >= min_sep for w in anchors + accepted for s in shifts):
            accepted.append(z)
    if len(accepted) == count:
        return np.array(accepted, dtype=complex)
    raise SamplingFailureError("could not draw well-separated sample points")


class ClosedForms:
    """Closed-form evaluations over every spectrum record of one chain.

    Set-up builds the records and draws every input.  The timed region
    evaluates, one element at a time: the lowering form factor for every
    (bra, ket, site) with sectors at most one root apart, the pairing
    with an eigenstate for every left root count M = R..N+1, the Gaudin
    norm, and the on-shell square and rectangular determinants with the
    dressed Vandermonde they reduce to.  The check compares every
    reduction, and every other element against the dense oracle, at the
    CLI's tolerances.
    """

    def __init__(self, n: int, seed: int, out_dir: Path) -> None:
        self.params = params = chain.sample_generic_params(n, seed)
        self.records = records = spectrum.full_spectrum(params, seed)
        rng = np.random.Generator(np.random.Philox(key=[seed, 0xBE7C]))
        eta = params.eta
        xi = np.asarray(params.xi, dtype=complex)
        elements = []
        for i, bra in enumerate(records):
            for j, ket in enumerate(records):
                if abs(bra.n_roots - ket.n_roots) <= 1:
                    for site in range(1, n + 1):
                        elements.append(("ff", i, j, site))
        for i, rec in enumerate(records):
            for m in range(rec.n_roots, n + 2):
                roots = _draw_separated(
                    rng, m, eta, np.concatenate([xi, rec.bethe_roots]), 0.2, 1.8
                )
                elements.append(("sp", i, roots))
            elements.append(("norm", i))
            for on_shell in (rec.bethe_roots, rec.q_minus_roots):
                m = on_shell.size
                if m == 0:
                    continue
                avoid = np.concatenate([on_shell, xi])
                for extra in (0, int(rng.integers(1, 3))):
                    ys = _draw_separated(rng, m + extra, eta, avoid, 0.3, 2.4)
                    pooled = np.concatenate([on_shell, ys])
                    weights = np.array(
                        [-determinants.shift_ratio(xi, eta, z, +1) for z in pooled]
                    )
                    elements.append(("red", on_shell, ys, pooled, weights))
        self.elements = elements

    def _evaluate(self, element):
        params, records = self.params, self.records
        kind = element[0]
        if kind == "ff":
            _, i, j, site = element
            return formfactors.ff_sigma_minus(params, records[i], records[j], site)
        if kind == "sp":
            return scalar.sp_with_eigenstate(params, element[2], records[element[1]])
        if kind == "norm":
            return scalar.gaudin_norm(params, records[element[1]])
        _, on_shell, ys, pooled, weights = element
        if ys.size == on_shell.size:
            lhs = determinants.slavnov_determinant(params, -1.0, on_shell, ys)
        else:
            lhs = determinants.gen_slavnov_determinant(params, -1.0, on_shell, ys)
        rhs = determinants.dressed_vandermonde(pooled, params.eta, weights, -1)
        return lhs, rhs

    def timed(self):
        values = []
        latencies = []
        for element in self.elements:
            start = perf_counter_ns()
            try:
                value = self._evaluate(element)
            except LIBRARY_ERRORS as exc:
                value = exc
            latencies.append(perf_counter_ns() - start)
            values.append(value)
        return values, latencies

    def check(self, result) -> dict:
        values, latencies = result
        params, records = self.params, self.records
        vectors = [formfactors.eigenstate_vectors(params, rec) for rec in records]
        norms = [
            (float(np.linalg.norm(left)), float(np.linalg.norm(right)))
            for left, right in vectors
        ]
        lowering = [
            dense.site_sigma(params, site, "-") for site in range(1, params.n_sites + 1)
        ]
        failures = []
        attempted = 0
        worst_oracle = 0.0
        for k, (element, value) in enumerate(zip(self.elements, values)):
            kind = element[0]
            attempted += 1
            if isinstance(value, Exception):
                failures.append(f"raised:{kind}[{k}]:{type(value).__name__}")
                continue
            if kind == "ff":
                # the dense element ff_dense computes, from cached vectors
                _, i, j, site = element
                ref = sov.bilinear(vectors[i][0], lowering[site - 1] @ vectors[j][1])
                floor = 1e-3 * max(norms[i][0] * norms[j][1], TINY)
                err = abs(value - ref) / max(abs(ref), floor)
                tol = FF_TOL
            elif kind == "sp":
                left = sov.separate_state_dense(
                    params, sov.spec_from_roots(params, element[2], "left")
                )
                vec = vectors[element[1]][1]
                ref = sov.bilinear(left, vec)
                scale = max(
                    abs(ref), float(np.max(np.abs(left)) * np.max(np.abs(vec))), TINY
                )
                err = abs(value - ref) / scale
                tol = SP_TOL
            elif kind == "norm":
                ref = sov.bilinear(*vectors[element[1]])
                err = abs(value - ref) / max(abs(ref), TINY)
                tol = NORM_TOL
            else:
                lhs, rhs = value
                m = element[1].size
                sign = determinants.gen_slavnov_sign(m, element[2].size - m)
                err = abs(sign * lhs - rhs) / max(abs(lhs), abs(rhs), TINY)
                if err > SHELL_TOL:
                    failures.append(f"on_shell_reduction[{k}]:{err:.3e}")
                continue
            worst_oracle = max(worst_oracle, err)
            if err > tol:
                failures.append(f"oracle_{kind}[{k}]:{err:.3e}")
        digest = hashlib.sha256()
        for value in values:
            digest.update(repr(value).encode())
        return {
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures,
            "digest": digest.hexdigest(),
            "oracle_max_rel_err": worst_oracle,
            "elem_ns": latencies,
        }


KINDS = {
    "verify-all": VerifyAll,
    "spectrum": SpectrumSuites,
    "closed-forms": ClosedForms,
}
