"""Failure sweep of ``sovxxx all`` over chain lengths and seeds.

    python3 scripts/sweep.py --n 1-6 --seeds 0-39
    python3 scripts/sweep.py --n 7,8 --seeds 0-7 --json rows.json

Runs ``cli.run`` with every suite at each (N, seed) pair and the
committed tolerances, and prints one line per configuration with its
failing rows (name and relative error) and aborted suites.  The exit
status is 1 when any row fails or any suite aborts, 0 otherwise.
``--json`` also writes every row's relative error and verdict, keyed by
configuration, so two checkouts' sweeps can be compared row by row.
The package is imported from the ``src/`` directory next to this script.

Report values depend on the BLAS thread count, so the script caps
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` at
1 before numpy is imported, unless they are already set: a failing row
then reproduces with a rerun.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sovxxx.cli import RunConfig, run  # noqa: E402


def parse_range(text: str) -> list[int]:
    """``"1-6"``, ``"7,8"`` or a mix such as ``"1-3,8"``."""
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", required=True, help="chain lengths, e.g. 1-6 or 7,8")
    parser.add_argument("--seeds", required=True, help="seeds, e.g. 0-39")
    parser.add_argument("--json", help="write every row's rel_err and verdict here")
    args = parser.parse_args(argv)
    rows: dict[str, dict] = {}
    failing = 0
    for n in parse_range(args.n):
        for seed in parse_range(args.seeds):
            report = run(RunConfig(n_sites=n, seed=seed))
            bad = [
                f"{row['name']} ({row['rel_err']:.2e})"
                for row in report["checks"]
                if not row["pass"]
            ]
            bad += [f"aborted {name}: {msg}" for name, msg in report["aborted"].items()]
            failing += bool(bad)
            verdict = "; ".join(bad) if bad else "pass"
            print(f"N={n} seed={seed}: {verdict}", flush=True)
            checks = {r["name"]: [r["rel_err"], r["pass"]] for r in report["checks"]}
            rows[f"{n}/{seed}"] = {"checks": checks, "aborted": report["aborted"]}
    print(f"{failing} of {len(rows)} configurations fail")
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
