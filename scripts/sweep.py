"""Failure sweep of ``sovxxx all`` over chain lengths and seeds.

    python3 scripts/sweep.py --n 1-6 --seeds 0-39
    python3 scripts/sweep.py --n 7,8 --seeds 0-7 --json rows.json
    python3 scripts/sweep.py --n 7,8 --seeds 0-7 --compare rows.json

Runs ``cli.run`` with every suite at each (N, seed) pair and the
committed tolerances, and prints one line per configuration with its
failing rows (name and relative error) and aborted suites.  The exit
status is 1 when any row fails or any suite aborts, 0 otherwise.
``--json`` also writes every row's relative error and verdict, keyed by
configuration, so two checkouts' sweeps can be compared row by row, and
next to them the sha256 of the configuration's JSON report
(``cli.render_json``), its wall seconds (``cli.run`` alone) and
each suite's (the script times the entries of ``cli._SUITES``; a build
shared by several suites is charged to the first that uses it).  The
times stay out of the report, whose bytes do not depend on them;
``--compare OTHER.json`` does that comparison, with OTHER as the before
side and this sweep as the after side (see ``compare``).
The package is imported from the ``src/`` directory next to this script.

Report values depend on the BLAS thread count, so the script caps
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` at
1 before numpy is imported, unless they are already set: a failing row
then reproduces with a rerun.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sovxxx import cli  # noqa: E402
from sovxxx.cli import RunConfig, render_json, run  # noqa: E402


def parse_range(text: str) -> list[int]:
    """``"1-6"``, ``"7,8"`` or a mix such as ``"1-3,8"``."""
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


# rows whose value moves by far more than rounding under a 1-ulp change of
# its inputs, so two correct builds agree on its verdict only
VERDICT_ONLY = ("homogeneous-stress/raw_matrix_condition_grows_inverse_cubed",)


@contextmanager
def suite_timer(seconds: dict):
    """Within the block, each suite call of ``cli.run`` adds its wall
    seconds to ``seconds[suite]``; the suite table is restored after."""
    original = dict(cli._SUITES)

    def timed(suite, fn):
        def call(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[suite] = seconds.get(suite, 0.0) + perf_counter() - start

        return call

    cli._SUITES.update({suite: timed(suite, fn) for suite, fn in original.items()})
    try:
        yield seconds
    finally:
        cli._SUITES.update(original)


def _config_key(config: str) -> tuple[int, int]:
    n, _, seed = config.partition("/")
    return int(n), int(seed)


def _failing(entry: dict) -> set[str]:
    return {name for name, (_, passed) in entry["checks"].items() if not passed}


def compare(before: dict, after: dict) -> list[str]:
    """How the sweep ``after`` differs from ``before`` (both as ``--json``
    writes them), as printable lines.

    First each configuration of both whose exit status, aborted suites
    or failing rows differ; then, over the configurations of both that
    carry a report digest, how many have different report bytes, and
    which; then, per row, the number of configurations
    whose relative error moved down and up and the row's worst value
    before and after, over the configurations of both.  The rows of
    ``VERDICT_ONLY`` enter through their verdicts alone.  Last, per chain
    length, the summed wall seconds before and after over the
    configurations of both that carry them (a sweep written before the
    times were recorded has none), each followed by the same sums per
    suite over the configurations of both that carry suite times.
    """
    common = sorted(set(before) & set(after), key=_config_key)
    lines = [
        f"{config}: only in {'before' if config in before else 'after'}"
        for config in sorted(set(before) ^ set(after), key=_config_key)
    ]
    for config in common:
        old, new = before[config], after[config]
        fail_old, fail_new = _failing(old), _failing(new)
        if fail_old == fail_new and old["aborted"] == new["aborted"]:
            continue
        exits = [int(bool(_failing(e) or e["aborted"])) for e in (old, new)]
        parts = [f"exit {exits[0]} -> {exits[1]}"]
        parts += [f"-{name}" for name in sorted(fail_old - fail_new)]
        parts += [f"+{name}" for name in sorted(fail_new - fail_old)]
        if old["aborted"] != new["aborted"]:
            parts.append(f"aborted {old['aborted']} -> {new['aborted']}")
        lines.append(f"N={config.replace('/', ' seed=')}: " + "; ".join(parts))
    if not lines:
        lines.append("no configuration differs in exit status, aborts or failing rows")
    digests = {
        config: (before[config]["report_sha256"], after[config]["report_sha256"])
        for config in common
        if "report_sha256" in before[config] and "report_sha256" in after[config]
    }
    if digests:
        moved = [config for config, (old, new) in digests.items() if old != new]
        lines.append(
            f"report bytes differ in {len(moved)} of {len(digests)} configurations"
        )
        lines += [f"  N={config.replace('/', ' seed=')}" for config in moved]
    names = sorted({name for config in common for name in after[config]["checks"]})
    for name in names:
        pairs = [
            (before[c]["checks"][name][0], after[c]["checks"][name][0])
            for c in common
            if name in before[c]["checks"] and name in after[c]["checks"]
        ]
        if name in VERDICT_ONLY or not pairs:
            continue
        down = sum(new < old for old, new in pairs)
        up = sum(new > old for old, new in pairs)
        if down or up:
            worst = [max(side) for side in zip(*pairs)]
            lines.append(
                f"{name}: down in {down}, up in {up} of {len(pairs)}; "
                f"worst {worst[0]:.3g} -> {worst[1]:.3g}"
            )
    totals: dict[int, list] = {}
    suites: dict[int, dict] = {}
    for config in common:
        old, new = before[config], after[config]
        n = _config_key(config)[0]
        if "seconds" in old and "seconds" in new:
            total = totals.setdefault(n, [0, 0.0, 0.0])
            total[0] += 1
            total[1] += old["seconds"]
            total[2] += new["seconds"]
        old_suites, new_suites = old.get("suite_seconds", {}), new.get("suite_seconds", {})
        for suite in sorted(set(old_suites) & set(new_suites)):
            pair = suites.setdefault(n, {}).setdefault(suite, [0.0, 0.0])
            pair[0] += old_suites[suite]
            pair[1] += new_suites[suite]
    for n, (count, old, new) in sorted(totals.items()):
        lines.append(f"N={n}: {old:.2f} s -> {new:.2f} s over {count} configurations")
        for suite, (old, new) in suites.get(n, {}).items():
            lines.append(f"  {suite}: {old:.3f} s -> {new:.3f} s")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", required=True, help="chain lengths, e.g. 1-6 or 7,8")
    parser.add_argument("--seeds", required=True, help="seeds, e.g. 0-39")
    parser.add_argument("--json", help="write every row's rel_err and verdict here")
    parser.add_argument(
        "--compare", metavar="OTHER.json", help="print how this sweep differs from it"
    )
    args = parser.parse_args(argv)
    rows: dict[str, dict] = {}
    failing = 0
    for n in parse_range(args.n):
        for seed in parse_range(args.seeds):
            with suite_timer({}) as suite_seconds:
                start = perf_counter()
                report = run(RunConfig(n_sites=n, seed=seed))
                seconds = perf_counter() - start
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
            digest = hashlib.sha256(render_json(report).encode()).hexdigest()
            rows[f"{n}/{seed}"] = {
                "checks": checks,
                "aborted": report["aborted"],
                "report_sha256": digest,
                "seconds": seconds,
                "suite_seconds": suite_seconds,
            }
    print(f"{failing} of {len(rows)} configurations fail")
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    if args.compare:
        print("\n".join(compare(json.loads(Path(args.compare).read_text()), rows)))
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
