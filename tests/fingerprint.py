"""Print one SHA-256 per corpus of solver and clearing outputs.

Run from the repository root as ``PYTHONPATH=src python tests/fingerprint.py``
on two checkouts: equal lines mean the two codes give the same bits on that
corpus. With ``--instances`` it prints one digest per instance instead, named
``<corpus> #<i>``, so a ``diff`` of two checkouts' output lists the instances
that moved. The corpora are

- the ``LPResult`` (status, x, objective, duals, reduced costs, iterations)
  of the seed-83 ``random_lp`` draws, ``long_lp`` seeds 0-2 and three rungs
  of ``ladder_lp``;
- ``clear(...).to_dict()``, or the repr of the typed error it raises, on
  ``random_convex_market`` seeds 0-99 and ``random_commitment_market`` 0-69;
- on ``infeasible_commitment_market`` and ``unbounded_commitment_market``
  seeds 0-19, the (value, cell) of the welfare search and of each agent's
  at zero prices, or the text of the error it raises; an error names the
  first failing cell the search meets, so this line moves with the search
  order;
- for each bid fixture, with and without ``--sweep-pi``: the exit code and
  stdout of ``statemarket clear``, its JSON outside ``metadata`` and its
  ``.prices.csv``;
- ``solve_exact(...).to_dict()`` on seeded instances with L = 2..12 points
  in k = 1..3 dimensions, uniform with random weights and on an integer grid
  full of ties with equal weights, for every S up to min(L, 6) and the
  distinct support;
- two ``statemarket partition --solver exact --states 4 --svg`` runs on
  seeded 12-point, 2-D scenario files, one after the other in this process:
  the exit code, stdout, JSON outside ``metadata``, ``.states.txt`` and SVG
  of each;
- the centers, assignment and objective of ``solve_lloyd`` with seed 0 on
  the 39x2 North Sea fixture for S = 2..6 with 64 restarts, on seeded
  bimodal 2-D measures (L = 2 000, S = 8, 8 restarts) and on integer tie
  grids in k = 1..3 (S = 2..4, 8 restarts).

``--only PREFIX`` prints just the corpora whose name starts with PREFIX, so
an A/B check of one solver need not run the others.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from instances import (
    infeasible_commitment_market,
    ladder_lp,
    long_lp,
    random_commitment_market,
    random_convex_market,
    random_lp,
    unbounded_commitment_market,
)
from statemarket import cli
from statemarket.clearing import clear, solve_lp
from statemarket.clearing.core import _best_cell
from statemarket.errors import StateMarketError
from statemarket.market import ContractGrid, assemble_welfare
from statemarket.quantize import solve_exact, solve_lloyd
from statemarket.quantize.solvers import _distinct_support
from statemarket.scenarios import ScenarioSet, load_scenarios_csv, write_scenarios_csv

RUNGS = ((8, 6, 2), (8, 8, 4), (16, 8, 4))
FIXTURES = (
    "bids_price_formation.json",
    "bids_commitment_expectation.json",
    "bids_commitment_worst_case.json",
)


def _span(seeds: range) -> str:
    return f"{seeds.start}-{seeds.stop - 1}" if seeds else "none"


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def _lp_chunks(lp):
    result = solve_lp(lp)
    yield (result.status, result.objective, result.iterations)
    for array in (result.x, result.duals, result.reduced_costs):
        yield b"None" if array is None else array.tobytes()


def _clear_chunks(market):
    bids, dims = market
    try:
        outcome = clear(assemble_welfare(bids, dims)).to_dict()
    except StateMarketError as exc:  # a typed error is part of the outcome
        outcome = repr(exc)
    yield json.dumps(outcome, sort_keys=True)


def _search_chunks(market):
    bids, dims = market
    program = assemble_welfare(bids, dims)
    zero = ContractGrid(np.zeros(dims.shape))
    for agent, prices in ((None, None), *((a, zero) for a in range(len(bids)))):
        try:
            value, cell, _ = _best_cell(program, agent, prices)
            yield (value, cell)
        except StateMarketError as exc:
            yield f"{type(exc).__name__}: {exc}"


def _fixture_chunks(case):
    name, sweep = case
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out.json"
        argv = ["clear", "--bids", str(cli.fixture_path(name)), "--out", str(out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), open(os.devnull, "w") as sink, \
                contextlib.redirect_stderr(sink):
            code = cli.main(argv + ["--sweep-pi"] * sweep)
        yield code
        yield stdout.getvalue().replace(work, "<work>")
        if out.exists():
            payload = json.loads(out.read_text())
            payload.pop("metadata", None)
            yield json.dumps(payload, sort_keys=True)
        prices = out.with_suffix(".prices.csv")
        yield prices.read_bytes() if prices.exists() else b"None"


def _exact_instance(count, dim, grid):
    rng = np.random.default_rng([87, count, dim, grid])
    if grid:
        return ScenarioSet(rng.integers(0, 3, (count, dim)).astype(float),
                           np.full(count, 1.0 / count))
    raw = rng.random(count) + 0.1
    return ScenarioSet(rng.uniform(0.0, 1.0, (count, dim)), raw / raw.sum())


def _exact_chunks(scen):
    for states in range(1, min(6, _distinct_support(scen.points)) + 1):
        yield json.dumps(solve_exact(scen, states).to_dict(), sort_keys=True)


def _partition_chunks(seed):
    rng = np.random.default_rng([88, seed])
    scen = ScenarioSet(rng.uniform(0.0, 20.0, (12, 2)), np.full(12, 1.0 / 12))
    with tempfile.TemporaryDirectory() as work:
        csv_path, out, svg = Path(work) / "s.csv", Path(work) / "p.json", Path(work) / "p.svg"
        write_scenarios_csv(scen, csv_path)
        argv = ["partition", "--scenarios", str(csv_path), "--solver", "exact", "--states",
                "4", "--svg", str(svg), "--out", str(out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), open(os.devnull, "w") as sink, \
                contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        yield code
        yield stdout.getvalue().replace(work, "<work>")
        payload = json.loads(out.read_text())
        payload.pop("metadata")
        yield json.dumps(payload, sort_keys=True)
        yield out.with_suffix(".states.txt").read_bytes()
        yield svg.read_bytes()


def _bimodal_measure(seed):
    """A calm and a windy mode on two correlated sites, L = 2 000."""
    rng = np.random.default_rng([89, seed])
    windy = rng.random(2000) < 0.5
    means = np.where(windy[:, None], [11.0, 12.5], [3.0, 4.0])
    points = np.abs(means + rng.standard_normal((2000, 2)) @ [[1.6, 1.1], [0.0, 1.2]])
    raw = rng.random(2000) + 0.5
    return ScenarioSet(points, raw / raw.sum())


def _tie_grid(dim):
    """60 equal-weight points on {0..3}^k, many of them equidistant from two centers."""
    rng = np.random.default_rng([90, dim])
    return ScenarioSet(rng.integers(0, 4, (60, dim)).astype(float), np.full(60, 1.0 / 60))


def _lloyd_cases(lloyd_states, bimodal, grid_dims):
    """(measure, S, restarts) for the ``solve_lloyd`` corpus."""
    fixture = load_scenarios_csv(cli.fixture_path("scenarios_northsea_39x2.csv"))
    yield from ((fixture, states, 64) for states in lloyd_states)
    yield from ((_bimodal_measure(seed), 8, 8) for seed in bimodal)
    yield from ((_tie_grid(dim), states, 8) for dim in grid_dims for states in (2, 3, 4))


def _lloyd_chunks(case):
    scen, states, restarts = case
    solution = solve_lloyd(scen, states, restarts=restarts, seed=0)
    yield solution.partition.centers.tobytes()
    yield solution.assignment.tobytes()
    yield solution.objective


def _corpora(random_lps, long_seeds, rungs, convex, commitment, flawed, fixtures, exact_counts,
             partitions, lloyd_states, bimodal, grid_dims):
    """Yield (corpus name, its instances, the chunks of one instance)."""
    rng = np.random.default_rng(83)
    yield (f"random_lp seed 83 x{random_lps}", (random_lp(rng) for _ in range(random_lps)),
           _lp_chunks)
    yield f"long_lp {_span(long_seeds)}", map(long_lp, long_seeds), _lp_chunks
    for rung in rungs:
        yield f"ladder_lp {'x'.join(map(str, rung))}", [ladder_lp(*rung, 0)], _lp_chunks
    yield (f"random_convex_market {_span(convex)}", map(random_convex_market, convex),
           _clear_chunks)
    yield (f"random_commitment_market {_span(commitment)}",
           map(random_commitment_market, commitment), _clear_chunks)
    flawed_markets = (make(seed) for make in (infeasible_commitment_market,
                                              unbounded_commitment_market) for seed in flawed)
    yield (f"infeasible and unbounded commitment markets {_span(flawed)}", flawed_markets,
           _search_chunks)
    for name in fixtures:
        for sweep in (False, True):
            mode = " --sweep-pi" if sweep else ""
            yield f"clear {name}{mode}", [(name, sweep)], _fixture_chunks
    exact = (_exact_instance(count, dim, grid) for count in exact_counts
             for dim in (1, 2, 3) for grid in (False, True))
    yield f"solve_exact L {_span(exact_counts)}", exact, _exact_chunks
    yield f"partition --solver exact {_span(partitions)}", partitions, _partition_chunks
    yield (f"solve_lloyd fixture S {_span(lloyd_states)}, bimodal {_span(bimodal)}, "
           f"grids k {_span(grid_dims)}", _lloyd_cases(lloyd_states, bimodal, grid_dims),
           _lloyd_chunks)


def digests(random_lps=300, long_seeds=range(3), rungs=RUNGS, convex=range(100),
            commitment=range(70), flawed=range(20), fixtures=FIXTURES,
            exact_counts=range(2, 13), partitions=range(2), lloyd_states=range(2, 7),
            bimodal=range(8), grid_dims=range(1, 4), instances=False, only=""):
    """Yield (corpus name, SHA-256 hex digest), or with ``instances`` one
    ("<corpus> #<i>", digest) per instance, for the corpora whose name starts
    with ``only``; the other arguments, seed ranges and counts, pick the
    slice."""
    for name, items, chunks in _corpora(random_lps, long_seeds, rungs, convex, commitment,
                                        flawed, fixtures, exact_counts, partitions,
                                        lloyd_states, bimodal, grid_dims):
        if not name.startswith(only):
            continue
        if instances:
            for i, item in enumerate(items):
                yield f"{name} #{i}", _digest(chunks(item))
        else:
            yield name, _digest(chunk for item in items for chunk in chunks(item))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--instances", action="store_true",
                        help="print one digest per instance instead of one per corpus")
    parser.add_argument("--only", default="", metavar="PREFIX",
                        help="print only the corpora whose name starts with PREFIX")
    args = parser.parse_args(argv)
    for name, digest in digests(instances=args.instances, only=args.only):
        print(f"{digest}  {name}", flush=True)


if __name__ == "__main__":
    main()
