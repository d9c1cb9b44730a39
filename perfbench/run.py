"""sovxxx benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each pass runs in a fresh worker process (``worker.py``), so
every pass starts with cold module caches, as one ``sovxxx`` invocation
does.  Passes run one after another, a closed loop with one client,
until ``--seconds`` is used up (at least ``MIN_PASSES``); the first
pass only warms the file cache and enters no metric.  BLAS threads are
capped at the number of usable cores.

With ``--trace 0`` every pass is untraced and the metrics are the
end-to-end ones: ``wall_norm``, the summed wall time of the timed
regions over the summed time of a fixed reference kernel run in the same
worker just before and after each (``worker.reference_kernel``), which
cancels the drift of this CPU's speed between runs; ``setup_s``, the
median over passes of the set-up time (imports and set-up before the
timed region) scaled the same way to a CPU on which the reference kernel
takes ``REF_NOMINAL_S``; and the median peak resident memory.  The
median raw ``wall_s`` and set-up time, the share of failed checks and,
where the workload has them, the per-element latencies and the worst
oracle error are reported on the details line but not gated: raw times
drift between runs by more than any useful bound, and failures and
errors depend on the chain drawn.

With ``--trace 1`` passes after the first alternate untraced and traced;
the metrics are the per-layer counts and self times of the traced
passes, and ``trace.overhead`` is the traced over the untraced
``wall_norm``.

The last stdout line is the result JSON; the line before it holds the
details (environment, ``src/`` line counts, per-pass figures, failures
and the reported metrics).  Every pass must produce identical outputs
(the report bytes, or a digest of every closed-form value), traced or
not, and traced passes must make identical call counts; otherwise the
run is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# name -> (workload kind, chain length)
WORKLOADS = {
    "verify-all-n3": ("verify-all", 3),
    "spectrum-n4": ("spectrum", 4),
    "closed-forms-n3": ("closed-forms", 3),
}
MIN_PASSES = 4
# setup_s is given in seconds of a CPU on which the reference kernel takes
# this long (about its median on a 2-vCPU Intel Xeon VM)
REF_NOMINAL_S = 0.1
PASS_TIMEOUT_S = 120.0
# no pass starts once the run would exceed this, whatever --seconds says
RUN_LIMIT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PASS_FIELDS = (
    "traced", "setup_s", "wall_s", "ref_s", "cpu_s", "peak_rss_mb", "attempted", "failed"
)


def run_pass(kind: str, n: int, seed: int, traced: bool, env: dict) -> dict:
    cfg = {"kind": kind, "n": n, "seed": seed, "trace": traced, "out_dir": str(OUT_DIR)}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark pass failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(nproc: int, env: dict) -> dict:
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unavailable"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        "nproc": nproc,
        "cpu": cpu,
        "commit": commit,
    }


def src_line_counts() -> dict:
    counts = {
        path.stem: len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "sovxxx").glob("*.py"))
    }
    counts["total"] = sum(counts.values())
    return counts


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    kind, n = WORKLOADS[args.workload]
    if not (ROOT / "src" / "sovxxx").is_dir():
        raise SystemExit("no src/sovxxx package in this checkout")
    OUT_DIR.mkdir(exist_ok=True)

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, **{var: str(nproc) for var in THREAD_VARS})

    passes = []
    durations = []
    started = perf_counter()
    while True:
        # pass 0 warms the file cache and is left out of the metrics
        traced = bool(args.trace) and len(passes) % 2 == 0 and len(passes) > 0
        t0 = perf_counter()
        res = run_pass(kind, n, args.seed, traced, env)
        durations.append(perf_counter() - t0)
        res["traced"] = traced
        passes.append(res)
        elapsed = perf_counter() - started
        next_end = elapsed + statistics.median(durations)
        if next_end > RUN_LIMIT_S or (
            len(passes) >= MIN_PASSES and next_end > args.seconds
        ):
            break

    plain = [p for p in passes[1:] if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = sorted({f for p in passes for f in p["failures"]})
    if len({p["digest"] for p in passes}) != 1:
        problems.append("outputs differ between passes")
    if traced_passes:
        call_sets = [
            {k: v for k, v in p["layers"].items() if k.endswith(".calls")}
            for p in traced_passes
        ]
        if any(calls != call_sets[0] for calls in call_sets[1:]):
            problems.append("call counts differ between traced passes")
    correct = failed == 0 and not problems

    def median(key, group):
        return statistics.median(p[key] for p in group)

    def wall_norm(group):
        # pooled over the passes: each pass samples the CPU's speed only
        # around its timed region, so the sums average the samples
        return sum(p["wall_s"] for p in group) / sum(p["ref_s"] for p in group)
    reported = {
        "wall_s": {"value": median("wall_s", plain), "unit": "s"},
        "setup_wall_s": {"value": median("setup_s", plain), "unit": "s"},
        "fail_frac": {"value": failed / attempted, "unit": "ratio"},
    }
    elem_ns = sorted(ns for p in plain for ns in p.get("elem_ns", ()))
    if elem_ns:
        reported["elem_p50_us"] = {"value": percentile(elem_ns, 50) / 1e3, "unit": "us"}
        reported["elem_p99_us"] = {"value": percentile(elem_ns, 99) / 1e3, "unit": "us"}
        reported["elem_samples"] = {"value": len(elem_ns), "unit": "count"}
        reported["oracle_max_rel_err"] = {
            "value": max(p["oracle_max_rel_err"] for p in passes),
            "unit": "ratio",
        }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(nproc, env),
        "src_lines": src_line_counts(),
        "passes": [{k: p[k] for k in PASS_FIELDS} for p in passes],
        "problems": problems,
        "reported": reported,
    }

    if args.trace:
        details["unwrapped"] = traced_passes[0]["unwrapped"]
        from tracer import layer_metric_specs

        metrics = {}
        for spec in layer_metric_specs():
            name = spec["name"]
            if name == "trace.overhead":
                value = wall_norm(traced_passes) / wall_norm(plain)
            else:
                value = statistics.median(p["layers"][name] for p in traced_passes)
            metrics[name] = {"value": value, "unit": spec["unit"]}
    else:
        metrics = {
            "wall_norm": {"value": wall_norm(plain), "unit": "ratio"},
            "setup_s": {
                "value": statistics.median(
                    p["setup_s"] * REF_NOMINAL_S / p["ref_s"] for p in plain
                ),
                "unit": "s",
            },
            "peak_rss_mb": {"value": median("peak_rss_mb", plain), "unit": "MB"},
        }
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
