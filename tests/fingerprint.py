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
  ``.prices.csv``.
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

RUNGS = ((8, 6, 2), (8, 8, 4), (16, 8, 4))
FIXTURES = (
    "bids_price_formation.json",
    "bids_commitment_expectation.json",
    "bids_commitment_worst_case.json",
)


def _span(seeds: range) -> str:
    return f"{seeds.start}-{seeds.stop - 1}"


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


def _corpora(random_lps, long_seeds, rungs, convex, commitment, flawed, fixtures):
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


def digests(random_lps=300, long_seeds=range(3), rungs=RUNGS, convex=range(100),
            commitment=range(70), flawed=range(20), fixtures=FIXTURES, instances=False):
    """Yield (corpus name, SHA-256 hex digest), or with ``instances`` one
    ("<corpus> #<i>", digest) per instance; the other arguments, seed ranges
    and counts, pick the slice."""
    for name, items, chunks in _corpora(random_lps, long_seeds, rungs, convex, commitment,
                                        flawed, fixtures):
        if instances:
            for i, item in enumerate(items):
                yield f"{name} #{i}", _digest(chunks(item))
        else:
            yield name, _digest(chunk for item in items for chunk in chunks(item))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--instances", action="store_true",
                        help="print one digest per instance instead of one per corpus")
    for name, digest in digests(instances=parser.parse_args().instances):
        print(f"{digest}  {name}", flush=True)


if __name__ == "__main__":
    main()
