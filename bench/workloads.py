"""Seeded inputs and one operation for each benchmark workload.

Every instance is drawn from ``numpy.random.default_rng([seed, tag, index])``,
so instance ``i`` of a seed is the same whatever the pool size. The program
only ever sees the generated inputs, through its public entry points.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import statemarket.cli as cli
import statemarket.market as market
from statemarket import quantize, scenarios
from statemarket.clearing import core
from statemarket.market import (
    AgentBid,
    Decision,
    LinkingConstraint,
    MarketDimensions,
    PiecewiseUtility,
)

import checks


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def _beliefs(rng, states: int) -> np.ndarray:
    raw = rng.random(states) + 0.2
    return raw / raw.sum()


def _producer(rng, agent_id, coords, states, risk) -> AgentBid:
    """Two-piece convex cost: cheap up to a knee, steeper beyond it."""
    utilities = {}
    for coord in coords:
        cap = float(rng.integers(5, 20))
        knee = cap * float(rng.uniform(0.3, 0.7))
        cheap = float(rng.uniform(5.0, 40.0))
        steep = cheap + float(rng.uniform(0.0, 40.0))
        utilities[coord] = PiecewiseUtility(
            [-cap, -knee, 0.0], [-(cheap * knee + steep * (cap - knee)), -cheap * knee, 0.0]
        )
    return AgentBid(agent_id, _beliefs(rng, states), risk, utilities=utilities)


def _consumer(rng, agent_id, coords, states, risk) -> AgentBid:
    """Two-piece concave value: high up to a knee, lower beyond it."""
    utilities = {}
    for coord in coords:
        cap = float(rng.integers(5, 20))
        knee = cap * float(rng.uniform(0.3, 0.7))
        high = float(rng.uniform(60.0, 120.0))
        low = high - float(rng.uniform(0.0, 50.0))
        utilities[coord] = PiecewiseUtility(
            [0.0, knee, cap], [0.0, high * knee, high * knee + low * (cap - knee)]
        )
    return AgentBid(agent_id, _beliefs(rng, states), risk, utilities=utilities)


def _thermal_unit(rng, agent_id, states, risk) -> AgentBid:
    """Binary unit: off, or online between a minimum and a maximum output at a
    fixed cost (injections are negative, so online means x in [-hi, -lo])."""
    lo = float(rng.uniform(6.0, 11.0))
    hi = lo + float(rng.uniform(4.0, 10.0))
    marginal = float(rng.uniform(20.0, 60.0))
    fixed = float(rng.uniform(50.0, 300.0))
    utilities, constraints = {}, []
    for s in range(states):
        coord = (0, 0, s)
        utilities[coord] = PiecewiseUtility([-hi, 0.0], [-marginal * hi, 0.0])
        constraints.append(LinkingConstraint(((coord, 1.0),), (("on", lo),), "<=", 0.0))
        constraints.append(LinkingConstraint(((coord, 1.0),), (("on", hi),), ">=", 0.0))
    return AgentBid(
        agent_id,
        _beliefs(rng, states),
        risk,
        utilities=utilities,
        decisions=(Decision("on", "binary", utility_coeff=-fixed),),
        constraints=tuple(constraints),
    )


def _digest(instances) -> str:
    """Stable fingerprint of generated inputs (bids, measures or ensembles)."""
    h = hashlib.sha256()
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        for item in instances:
            h.update(item if isinstance(item, bytes) else repr(item).encode())
    return h.hexdigest()[:16]


# --- clearing workloads -------------------------------------------------------

class _Clearing:
    """One op: ``assemble_welfare`` then ``clear``, verification included."""

    def run(self, bids, work, span):
        program = market.assemble_welfare(bids, self.dims)
        return program, core.clear(program)

    def keep(self, outcome):
        return outcome[1].welfare

    def finish(self, pool, kept, rerun):
        return None, {}

    def fingerprint(self, pool) -> dict:
        program = market.assemble_welfare(pool[0], self.dims)
        return {
            "instances": len(pool),
            "market.lp_vars": len(program.variables),
            "market.lp_rows": len(program.rows),
            "clearing.cells": program.num_enumeration_cells,
            "inputs_sha256": _digest(pool),
        }


class ClearConvex(_Clearing):
    """8 agents (producers and consumers alternate), 1 node, 6 states,
    2 periods; agents 2 and 5 (25 %) are worst-case. No binaries."""

    tag, pool_size, trace_ops = 1, 96, 12
    dims = MarketDimensions(1, 2, 6)

    def build(self, seed, index):
        rng = _rng(seed, self.tag, index)
        coords = list(self.dims.coordinates())
        bids = []
        for a in range(8):
            risk = "worst_case" if a in (2, 5) else "expectation"
            make = _producer if a % 2 == 0 else _consumer
            bids.append(make(rng, f"agent_{a}", coords, self.dims.states, risk))
        return bids

    def check(self, index, outcome):
        program, result = outcome
        return checks.check_clearing(program, result, require_equilibrium=True)


class ClearCommit(_Clearing):
    """6 binary thermal units (unit 3, one in four, worst-case) against
    3 consumers and 1 producer; 2 states x 1 period, so 64 cells per op."""

    tag, pool_size, trace_ops = 2, 12, 4
    dims = MarketDimensions(1, 1, 2)

    def build(self, seed, index):
        rng = _rng(seed, self.tag, index)
        coords = list(self.dims.coordinates())
        states = self.dims.states
        bids = [
            _thermal_unit(rng, f"unit_{u}", states, "worst_case" if u % 4 == 3 else "expectation")
            for u in range(6)
        ]
        for c in range(4):
            make = _producer if c == 1 else _consumer
            bids.append(make(rng, f"convex_{c}", coords, states, "expectation"))
        return bids

    def check(self, index, outcome):
        program, result = outcome
        return checks.check_clearing(program, result, require_equilibrium=False)

    def finish(self, pool, kept, rerun):
        """Welfare against scipy HiGHS, once per distinct market, untimed.
        Returns None in place of the problems when scipy is missing."""
        if not kept:
            return "highs_reference", None
        problems = {}
        for index, welfare in sorted(kept.items()):
            reference = checks.highs_reference_welfare(market.assemble_welfare(pool[index], self.dims))
            if reference is None:
                return "highs_reference", None
            found = checks.compare_welfare(welfare, reference)
            if found:
                problems[index] = found
        return "highs_reference", problems


# --- partition workload -------------------------------------------------------

class PartitionLloyd:
    """Bimodal wind-like measure on 2 sites: L = 10 000, k = 2, S = 8,
    8 restarts. One op is one ``solve_lloyd`` call."""

    tag, pool_size, trace_ops = 3, 32, 4
    scenarios_per_measure, states, restarts = 10_000, 8, 8

    def build(self, seed, index):
        rng = _rng(seed, self.tag, index)
        count = self.scenarios_per_measure
        windy = rng.random(count) < 0.5  # a fixed mix keeps Lloyd's work per op steadier
        means = np.where(windy[:, None], [11.0, 12.5], [3.0, 4.0])
        mixing = np.array([[1.6, 0.0], [1.1, 1.2]])  # correlated sites
        points = np.abs(means + rng.standard_normal((count, 2)) @ mixing.T)
        weights = rng.random(count) + 0.5
        lloyd_seed = int(rng.integers(2**31))
        return scenarios.ScenarioSet(points, weights / weights.sum()), lloyd_seed

    def run(self, instance, work, span):
        measure, lloyd_seed = instance
        return quantize.solve_lloyd(measure, self.states, restarts=self.restarts, seed=lloyd_seed)

    def check(self, index, solution):
        scen = solution.partition.scenarios
        return checks.check_lloyd_fixed_point(
            scen.points, scen.weights, solution.partition.centers, solution.assignment
        )

    def keep(self, solution):
        return solution.objective

    def finish(self, pool, kept, rerun):
        """Re-solve the first measure untimed: the objective must repeat bit for bit."""
        if not kept:
            return "repeat_objective", None  # nothing passed, nothing to repeat
        index = min(kept)
        problems = checks.compare_repeat(kept[index], rerun(index).objective)
        return "repeat_objective", {index: problems} if problems else {}

    def fingerprint(self, pool) -> dict:
        measure = pool[0][0]
        return {
            "instances": len(pool),
            "L": measure.num_scenarios,
            "k": measure.dimension,
            "S": self.states,
            "restarts": self.restarts,
            "inputs_sha256": _digest(
                b for m, s in pool for b in (m.points.tobytes(), m.weights.tobytes(), s.to_bytes(8, "little"))
            ),
        }


# --- operator pipeline --------------------------------------------------------

class Pipeline:
    """One operator day: fetch an ensemble (cold cache, then warm), then
    ``ingest``, ``partition --solver exact --states 4 --svg``, ``clear`` on
    bids for those 4 states, and ``report``, all through ``cli.main``."""

    tag, pool_size, trace_ops = 4, 8, 16
    members, states = 12, 4
    endpoint = "bench://ensemble"  # never contacted: fetches go through ``transport``
    locations = ((54.0, 7.0), (52.0, 2.0))

    def __init__(self):
        self.first_outputs: dict[int, dict] = {}

    def build(self, seed, index):
        rng = _rng(seed, self.tag, index)
        windy = rng.random(self.members) < 0.5
        base = np.where(windy, 11.0, 4.0) + rng.normal(0.0, 1.5, self.members)
        members = [
            np.round(np.abs(base + rng.normal(0.0, 1.0, self.members)), 3).tolist()
            for _ in self.locations
        ]
        bid_params = {
            "load_cap": float(rng.uniform(15.0, 25.0)),
            "load_value": float(rng.uniform(80.0, 120.0)),
            "flex_cap": float(rng.uniform(5.0, 15.0)),
            "flex_value": float(rng.uniform(20.0, 60.0)),
            "thermal_cap": float(rng.uniform(10.0, 20.0)),
            "thermal_cost": float(rng.uniform(30.0, 70.0)),
        }
        return {"target_time": f"2026-02-{index % 28 + 1:02d}T12:00:00", "members": members, "bids": bid_params}

    def _bids(self, instance, partition: dict) -> dict:
        """Bid file for the day: wind sized by each state's center, a load, a
        flexible consumer and a thermal plant, all with the state masses as beliefs."""
        mass = np.bincount(
            partition["assignment"], weights=partition["scenarios"]["weights"], minlength=self.states
        )
        beliefs = (mass / mass.sum()).tolist()
        m = instance["bids"]

        def agent(agent_id, points_per_state):
            return {
                "id": agent_id,
                "beliefs": beliefs,
                "utilities": [
                    {"node": 0, "period": 0, "state": s, "points": pts}
                    for s, pts in enumerate(points_per_state)
                ],
            }

        wind = [[[-0.8 * float(np.mean(c)), 0.0], [0.0, 0.0]] for c in partition["centers"]]
        each = range(self.states)
        return {
            "dimensions": {"nodes": 1, "periods": 1, "states": self.states},
            "agents": [
                agent("wind", wind),
                agent("load", [[[0.0, 0.0], [m["load_cap"], m["load_cap"] * m["load_value"]]] for _ in each]),
                agent("flex", [[[0.0, 0.0], [m["flex_cap"], m["flex_cap"] * m["flex_value"]]] for _ in each]),
                agent(
                    "thermal",
                    [[[-m["thermal_cap"], -m["thermal_cap"] * m["thermal_cost"]], [0.0, 0.0]] for _ in each],
                ),
            ],
        }

    def run(self, instance, work: Path, span):
        def transport(url, params):
            site = self.locations.index((params["latitude"], params["longitude"]))
            return json.dumps(instance["members"][site])

        def no_network(url, params):
            raise RuntimeError("warm fetch missed the cache")

        cache = work / "cache"
        fetch = dict(cache_dir=cache, target_time=instance["target_time"])
        with span("scenarios.fetch_ensemble", cache="cold") as attrs:
            cold = scenarios.fetch_ensemble(self.endpoint, self.locations, transport=transport, **fetch)
            attrs["bytes"] = sum(f.stat().st_size for f in cache.iterdir())
        with span("scenarios.fetch_ensemble", cache="warm"):
            warm = scenarios.fetch_ensemble(self.endpoint, self.locations, transport=no_network, **fetch)
        raw, scen, bids = work / "raw.csv", work / "scenarios.csv", work / "bids.json"
        part, result, svg = work / "partition.json", work / "result.json", work / "states.svg"
        scenarios.write_scenarios_csv(warm, raw)
        stages = {
            "ingest": ["--scenarios", raw, "--out", scen],
            "partition": ["--scenarios", scen, "--states", self.states, "--solver", "exact",
                          "--svg", svg, "--out", part],
            "clear": ["--bids", bids, "--out", result],
            "report": ["--partition", part, "--result", result],
        }
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for stage, args in stages.items():
                if stage == "clear":
                    bids.write_text(json.dumps(self._bids(instance, json.loads(part.read_text()))))
                with span("cli.main", stage=stage):
                    codes[stage] = cli.main([stage] + [str(a) for a in args])
                if codes[stage] != 0:
                    break
        return {
            "codes": codes,
            "outputs": {p.name: p.read_text() for p in (part, result) if p.exists()},
            "same_fetch": np.array_equal(cold.points, warm.points),
        }

    def check(self, index, outcome):
        problems = checks.check_pipeline(outcome["codes"], outcome["outputs"])
        if len(outcome["codes"]) != 4:
            problems.append(f"pipeline stopped after {list(outcome['codes'])}")
        if not outcome["same_fetch"]:
            problems.append("warm cache replay differs from the cold fetch")
        first = self.first_outputs.setdefault(index, outcome["outputs"])
        return problems + checks.compare_outputs(first, outcome["outputs"])

    def keep(self, outcome):
        return None  # repeats are compared in ``check``

    def finish(self, pool, kept, rerun):
        return None, {}

    def fingerprint(self, pool) -> dict:
        return {
            "instances": len(pool),
            "L": self.members,
            "k": len(self.locations),
            "S": self.states,
            "inputs_sha256": _digest(json.dumps(d, sort_keys=True) for d in pool),
        }


def clean(work: Path) -> None:
    """Empty an op's work directory (untimed, between ops)."""
    for child in work.iterdir():
        if child.is_dir():
            shutil.rmtree(child)
        else:
            child.unlink()


WORKLOADS = {
    "clear_convex": ClearConvex,
    "clear_commit": ClearCommit,
    "partition_lloyd": PartitionLloyd,
    "pipeline": Pipeline,
}
