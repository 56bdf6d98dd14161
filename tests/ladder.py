"""Solve the clearing ladder: one welfare LP per rung, timed.

Run from the repository root as
``PYTHONPATH=src python tests/ladder.py [AxSxT ...]``, with BLAS on one
thread (``OPENBLAS_NUM_THREADS=1``) to compare two checkouts. Each rung
``AxSxT`` is ``instances.ladder_lp(A, S, T, 0)``: A agents, S states, T
periods, 1 node, no binaries. For each rung it prints one line: the shape,
the dual and the primal simplex's iterations, the best of three
``solve_lp`` times and the objective. Without arguments it runs the 8x6x2,
8x8x4 and 16x8x4 rungs.
"""

from __future__ import annotations

import sys
import time

from instances import ladder_lp
from statemarket.clearing import simplex, solve_lp

RUNGS = ("8x6x2", "8x8x4", "16x8x4")
REPEATS = 3


def rung_line(rung: str) -> str:
    """The line printed for ``rung``, "AxSxT"."""
    agents, states, periods = (int(part) for part in rung.split("x"))
    lp = ladder_lp(agents, states, periods, 0)
    state = simplex._Simplex(lp)  # the dual simplex alone, as solve_lp starts
    state.run_dual()
    result = solve_lp(lp)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        solve_lp(lp)
        best = min(best, time.perf_counter() - start)
    rows, columns = lp.matrix.shape
    objective = "-" if result.objective is None else f"{result.objective:.10g}"
    return (f"{rung:>8}  {columns:5d} vars / {rows:4d} rows  dual {state.iterations:5d}  "
            f"primal {result.iterations - state.iterations:5d}  {best * 1e3:9.1f} ms  "
            f"{result.status} {objective}")


def main(rungs: list[str]) -> int:
    for rung in rungs or RUNGS:
        print(rung_line(rung), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
