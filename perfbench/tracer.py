"""Span tracing of the sovxxx layers, installed from outside the package.

Each wrapped public function is replaced, in every ``sovxxx`` module that
binds it (including the ``from .dense import ...`` copies), by a wrapper
that records one span per call: id, parent id, name, start, end and, for
the determinant evaluators, the matrix size.  Spans stay in memory; the
layer metrics are derived from them once the timed region is over.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np


def _size_of(index: int, name: str, extra: int = 0):
    """Matrix size read from the positional-or-keyword argument holding
    the point set that indexes the determinant's columns."""

    def size(args, kwargs) -> int:
        value = args[index] if len(args) > index else kwargs[name]
        return int(np.size(value)) + extra

    return size


# module -> function -> matrix-size probe (None when no size is recorded)
LAYERS = {
    "polynomials": {"lagrange_interpolate": None, "poly_roots": None},
    "chain": {"sample_generic_params": None},
    "dense": {
        "monodromy": None,
        "transfer_antiperiodic": None,
        "site_sigma": None,
        "diagonalize_transfer": None,
    },
    "sov": {"sov_basis": None, "separate_state_dense": None, "bilinear": None},
    "spectrum": {
        "full_spectrum": None,
        "build_record": None,
        "extract_tau": None,
        "solve_q_from_tau": None,
    },
    "determinants": {
        "dressed_vandermonde": _size_of(0, "points"),
        "izergin_determinant": _size_of(1, "xs"),
        "slavnov_determinant": _size_of(2, "xs"),
        "gen_slavnov_determinant": _size_of(3, "ys"),
        "lattice_column_determinant": _size_of(3, "ys_free", extra=1),
    },
    "scalar": {
        "sp_dense": None,
        "sp_direct": None,
        "sp_b_form": None,
        "sp_with_eigenstate": None,
        "gaudin_norm": None,
    },
    "formfactors": {
        "ff_dense": None,
        "eigenstate_vectors": None,
        "ff_sigma_minus": None,
        "ff_sigma_minus_unified": None,
    },
    "aba": {
        "correspondence_report": None,
        "weighted_expansion_crosscheck": None,
        "translation_check": None,
        "completeness_check": None,
    },
}

# the CLI's suites, listed here rather than read from the package so the
# metric names stay fixed when the package changes
SUITES = (
    "oracle",
    "sov",
    "spectrum",
    "identities",
    "scalar-products",
    "form-factors",
    "aba-check",
    "homogeneous-stress",
)


def layer_metric_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, in output order."""
    specs = []
    for module, funcs in LAYERS.items():
        for func, probe in funcs.items():
            base = f"{module}.{func}"
            specs.append({"name": base + ".calls", "unit": "count", "better": "lower"})
            specs.append({"name": base + ".self_s", "unit": "s", "better": "lower"})
            if probe is not None:
                specs.append({"name": base + ".mean_m", "unit": "rows", "better": "lower"})
    specs += [
        {"name": "dense.diagonalize_transfer.candidates", "unit": "count/call", "better": "lower"},
        {"name": "sov.sov_basis.hit_ratio", "unit": "ratio", "better": "higher"},
        {"name": "formfactors.ff_sigma_minus.fallback_ratio", "unit": "ratio", "better": "lower"},
    ]
    specs += [{"name": f"cli.suite.{s}.s", "unit": "s", "better": "lower"} for s in SUITES]
    specs.append({"name": "trace.overhead", "unit": "ratio", "better": "lower"})
    return specs


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        # (id, parent id, name, start ns, end ns, size)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.recording = True
        self.unwrapped: list[str] = []

    def _wrap(self, name: str, fn, probe):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            size = probe(args, kwargs) if probe is not None else 0
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, name, start, end, size))

        return wrapper

    def install(self) -> None:
        """Wrap every listed function and each suite of the CLI driver.

        A listed function missing from the package is recorded in
        ``unwrapped`` and reports zero calls.
        """
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "sovxxx" or key.startswith("sovxxx.")
        ]
        for module, funcs in LAYERS.items():
            home = sys.modules.get(f"sovxxx.{module}")
            for func, probe in funcs.items():
                original = getattr(home, func, None)
                if original is None:
                    self.unwrapped.append(f"{module}.{func}")
                    continue
                wrapper = self._wrap(f"{module}.{func}", original, probe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        # the CLI dispatches through its suite table, so the table entries
        # are the only bindings a suite call goes through
        table = getattr(sys.modules.get("sovxxx.cli"), "_SUITES", None)
        if not isinstance(table, dict):
            self.unwrapped.append("cli._SUITES")
            return
        for suite, fn in list(table.items()):
            table[suite] = self._wrap(f"cli.suite.{suite}", fn, None)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_ns", "end_ns", "size"],
                    "spans": self.spans,
                },
                handle,
            )

    def layer_metrics(self) -> dict:
        """Counts, self times and derived ratios of one traced pass."""
        name_of = {}
        child_ns = Counter()
        child_names = defaultdict(Counter)
        for sid, parent, name, start, end, _size in self.spans:
            name_of[sid] = name
            if parent >= 0:
                child_ns[parent] += end - start
                child_names[parent][name] += 1
        calls = Counter()
        self_ns = Counter()
        total_ns = Counter()
        size_sum = Counter()
        for sid, _parent, name, start, end, size in self.spans:
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[sid]
            size_sum[name] += size

        def ratio(parent_name: str, predicate) -> float:
            ids = [sid for sid, name in name_of.items() if name == parent_name]
            if not ids:
                return 0.0
            return sum(1 for sid in ids if predicate(child_names[sid])) / len(ids)

        out = {}
        for module, funcs in LAYERS.items():
            for func, probe in funcs.items():
                base = f"{module}.{func}"
                out[base + ".calls"] = calls[base]
                out[base + ".self_s"] = self_ns[base] / 1e9
                if probe is not None:
                    out[base + ".mean_m"] = size_sum[base] / max(calls[base], 1)
        diag = [sid for sid, name in name_of.items() if name == "dense.diagonalize_transfer"]
        out["dense.diagonalize_transfer.candidates"] = (
            sum(child_names[sid]["dense.transfer_antiperiodic"] for sid in diag) / len(diag)
            if diag
            else 0.0
        )
        out["sov.sov_basis.hit_ratio"] = ratio(
            "sov.sov_basis", lambda kids: kids["dense.monodromy"] == 0
        )
        out["formfactors.ff_sigma_minus.fallback_ratio"] = ratio(
            "formfactors.ff_sigma_minus",
            lambda kids: kids["formfactors.ff_sigma_minus_unified"] > 0,
        )
        for suite in SUITES:
            out[f"cli.suite.{suite}.s"] = total_ns[f"cli.suite.{suite}"] / 1e9
        return out
