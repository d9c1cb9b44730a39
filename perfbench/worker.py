"""One benchmark pass in a fresh process, so module caches start cold.

Usage: ``python3 perfbench/worker.py '<json config>'`` with keys ``kind``,
``n``, ``seed``, ``trace`` and ``out_dir``.  Prints one JSON line: the
workload's check results plus ``setup_s``, ``wall_s`` (timed region),
``cpu_s``, ``ref_s`` (mean reference-kernel time around the timed region),
``peak_rss_mb`` and, when traced, the layer metrics.
"""

from time import perf_counter, process_time

_START = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))
sys.path.insert(0, str(_HERE))


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work, small numpy and
    LAPACK calls and two dense eigensolves of the oracle's size: the kind
    of work the workloads do.  Timed right before and right after the
    timed region, it measures how fast this CPU runs at that moment."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=2015))
    mats = rng.standard_normal((40, 5, 5)) + 1j * rng.standard_normal((40, 5, 5))
    dense = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    start = perf_counter()
    acc = 0j
    for _ in range(100):
        for mat in mats:
            acc += np.linalg.det(mat) + complex(np.prod(mat[:, 0] - mat[0, :]))
        for i in range(3000):
            acc += i * i
    for _ in range(2):
        acc += np.linalg.eig(dense).eigenvalues.sum()
    return perf_counter() - start


def main() -> None:
    cfg = json.loads(sys.argv[1])
    import workloads  # imports the whole sovxxx package
    from tracer import Tracer

    tracer = None
    if cfg["trace"]:
        tracer = Tracer()
        tracer.install()
    out_dir = Path(cfg["out_dir"])
    workload = workloads.KINDS[cfg["kind"]](cfg["n"], cfg["seed"], out_dir)
    setup_s = perf_counter() - _START
    ref_before = reference_kernel()
    t_start, c_start = perf_counter(), process_time()
    result = workload.timed()
    t_end, c_end = perf_counter(), process_time()
    ref_after = reference_kernel()
    if tracer is not None:
        tracer.recording = False  # the check's oracle calls are not the workload
    out = workload.check(result)
    out["setup_s"] = setup_s
    out["ref_s"] = (ref_before + ref_after) / 2
    out["wall_s"] = t_end - t_start
    out["cpu_s"] = c_end - c_start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["unwrapped"] = tracer.unwrapped
        tracer.write(out_dir / f"spans-{cfg['kind']}-n{cfg['n']}.json")
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
