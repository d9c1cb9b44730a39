"""Layer timings of the library, least of k calls each.

    python3 scripts/layers.py --n 3-8
    python3 scripts/layers.py --n 4 --repeat 20 --json layers.json

For each chain length (the chain ``sample_generic_params(n, 0)`` draws,
the CLI's chain at ``--seed 0``) the script times one call of each
layer ROADMAP aim 1 lists, ``--repeat`` times, and prints the least:

- ``monodromy``: ``dense.monodromy`` at a generic point
- ``diagonalize``: ``dense.diagonalize_transfer``
- ``hamiltonian``: ``dense.hamiltonian_pauli``, the Pauli Hamiltonian of
  N sites
- ``site_sigma``: ``dense.site_sigma``, the lowering operator at site 1
- ``spectrum``: ``spectrum.full_spectrum``, all 2^N records
- ``polish``: ``spectrum._polish`` of the collocation roots of
  ``full_spectrum``'s one auxiliary solve, every degree in one padded
  stack, as that solve hands them over
- ``separate_state``: ``sov.separate_state_dense`` of a record of the
  middle sector
- ``izergin``, ``slavnov``, ``gen_slavnov`` (one free point more than
  on-shell roots), ``lattice_column``, ``node_substituted`` (the plain
  determinant and every column moved onto the first lattice node, the
  terms of the aba-check suite's weighted expansions,
  ``aba._node_substituted``), ``dressed_vandermonde``: each determinant
  evaluator at every size m = 1..N, the on-shell set being a record's m
  Bethe roots and the free set the chain's first probe points
- ``sp_on_shell``: one pairing of the middle sector's eigenstate with a
  left state of one root more (the chain's first probe points)
- ``ff_sigma_minus``: one form-factor element between the middle sector
  and the one above it, at site 1, on fresh copies of the two records
  (``dataclasses.replace``, inside the timed call), so each call builds
  the bra's row half and the ket's column half as a record's first use
  does
- ``ff_sigma_minus_warm``: the same element on the records themselves,
  whose halves the untimed call has built

Every layer is called once before it is timed, so a call reads the
chain's own caches warm, as in a run of the CLI.  ``--json PATH`` writes
the rows (``n``, ``layer``, ``m``, ``seconds``).  The package is
imported from the ``src/`` directory next to this script, and BLAS
threads are capped at 1 as ``scripts/sweep.py`` caps them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))
sys.path.insert(0, str(_HERE))

from sovxxx import (  # noqa: E402
    aba,
    dense,
    determinants,
    formfactors,
    scalar,
    sov,
    spectrum,
)
from sovxxx.chain import sample_generic_params  # noqa: E402
from sweep import parse_range  # noqa: E402


def least(call, repeat: int) -> float:
    """Least wall seconds of ``repeat`` calls, after one untimed call."""
    call()
    best = float("inf")
    for _ in range(repeat):
        start = perf_counter()
        call()
        best = min(best, perf_counter() - start)
    return best


def polish_arguments(params):
    """The arguments of the one ``spectrum._polish`` call of
    ``full_spectrum(params, 0)``, recorded by wrapping it for that call."""
    seen = []
    polish = spectrum._polish

    def recording(*args):
        seen.append(args)
        return polish(*args)

    spectrum._polish = recording
    try:
        spectrum.full_spectrum(params, 0)
    finally:
        spectrum._polish = polish
    (args,) = seen
    return args


def layer_calls(n: int):
    """(layer, m, call) for every timed layer of the chain of length n."""
    params = sample_generic_params(n, 0)
    records = spectrum.full_spectrum(params, 0)
    sector = {rec.n_roots: rec for rec in records}
    lam = dense.default_eval_point(params, 0)
    middle = sector[n // 2]
    spec = sov.spec_from_roots(params, middle.bethe_roots, "right")
    yield "monodromy", n, partial(dense.monodromy, params, lam)
    yield "diagonalize", n, partial(dense.diagonalize_transfer, params)
    yield "hamiltonian", n, partial(dense.hamiltonian_pauli, n)
    yield "site_sigma", n, partial(dense.site_sigma, params, 1, "-")
    yield "spectrum", n, partial(spectrum.full_spectrum, params, 0)
    yield "polish", n, partial(spectrum._polish, *polish_arguments(params))
    yield "separate_state", n, partial(sov.separate_state_dense, params, spec)
    free = spectrum.probe_points(params, n + 1)
    eta = params.eta
    for m in range(1, n + 1):
        xs, ys = sector[m].bethe_roots, free[:m]
        weights = -determinants.shift_ratio(params.xi, eta, ys, +1)
        yield "izergin", m, partial(determinants.izergin_determinant, -1.0, xs, ys, eta)
        yield "slavnov", m, partial(determinants.slavnov_determinant, params, -1.0, xs, ys)
        yield "gen_slavnov", m, partial(
            determinants.gen_slavnov_determinant, params, -1.0, xs, free[: m + 1]
        )
        yield "lattice_column", m, partial(
            determinants.lattice_column_determinant, params, -1.0, xs, ys, 1
        )
        yield "node_substituted", m, partial(aba._node_substituted, params, xs, ys, 1)
        yield "dressed_vandermonde", m, partial(
            determinants.dressed_vandermonde, ys, eta, weights, -1
        )
    roots = middle.bethe_roots
    yield "sp_on_shell", n, partial(
        scalar.sp_on_shell, params, free[: roots.size + 1], roots
    )
    ket = sector[min(n // 2 + 1, n)]

    def ff_fresh():
        return formfactors.ff_sigma_minus(params, replace(middle), replace(ket), 1)

    yield "ff_sigma_minus", n, ff_fresh
    yield "ff_sigma_minus_warm", n, partial(
        formfactors.ff_sigma_minus, params, middle, ket, 1
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", required=True, help="chain lengths, e.g. 3-8")
    parser.add_argument("--repeat", type=int, default=5, help="timed calls per layer")
    parser.add_argument("--json", help="write every row here")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rows = []
    for n in parse_range(args.n):
        for layer, m, call in layer_calls(n):
            seconds = least(call, args.repeat)
            rows.append({"n": n, "layer": layer, "m": m, "seconds": seconds})
            print(f"N={n} {layer:<20} m={m}  {seconds * 1e6:10.1f} us")
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
