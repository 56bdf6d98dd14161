"""Branch and bound over commitments against cell enumeration.

``_best_cell`` must pick the cell that solving every cell in lexicographic
order picks, with the same LP solution bit for bit, and raise the same error
where enumeration raises one.
"""

import numpy as np
import pytest

from statemarket.clearing import clear, core
from statemarket.clearing.core import _best_cell
from statemarket.errors import Infeasible, NumericalFailure, Unbounded
from statemarket.market import ContractGrid, assemble_welfare

from instances import (
    commitment_bids,
    infeasible_commitment_market,
    random_commitment_market,
    random_convex_market,
    unbounded_commitment_market,
)
from oracles import best_cell_by_enumeration


def _binaries(market) -> int:
    return len(assemble_welfare(*market).binaries)


# the oracle solves 2^B LPs per search, so the corpus keeps B <= 6
MARKETS = {
    **{f"random_{seed}": random_commitment_market(seed) for seed in range(30)
       if _binaries(random_commitment_market(seed)) <= 6},
    **{f"fixture_{risk}": commitment_bids(risk) for risk in ("expectation", "worst_case")},
}


def searches(program):
    """(agent, prices) of the welfare search and of every agent's at the
    cleared prices."""
    prices = clear(program).prices
    return [(None, None), *((a, prices) for a in range(len(program.bids)))]


def assert_same(found, expected):
    assert found[0] == expected[0]
    assert found[1] == expected[1]
    for name in ("status", "objective", "iterations"):
        assert getattr(found[2], name) == getattr(expected[2], name)
    for name in ("x", "duals", "reduced_costs"):
        assert np.array_equal(getattr(found[2], name), getattr(expected[2], name))


@pytest.mark.parametrize("market", MARKETS.values(), ids=MARKETS.keys())
def test_search_picks_the_enumerated_cell(market):
    program = assemble_welfare(*market)
    for agent, prices in searches(program):
        assert_same(_best_cell(program, agent, prices),
                    best_cell_by_enumeration(program, agent, prices))


@pytest.mark.parametrize(
    "make, error, welfare_message",
    [
        (infeasible_commitment_market, Infeasible,
         "no binary assignment admits a feasible allocation"),
        (unbounded_commitment_market, Unbounded,
         "cell (0, 0, 0, 0, 0, 0), welfare LP 31x27: the objective is unbounded"),
    ],
    ids=["infeasible", "unbounded"],
)
def test_flawed_market_raises_what_enumeration_raises(make, error, welfare_message):
    bids, dims = make(1)
    program = assemble_welfare(bids, dims)
    unit = next(a for a, bid in enumerate(bids) if len(bid.decisions) >= 2)
    prices = ContractGrid(np.zeros(dims.shape))
    messages = []
    for agent, at in ((None, None), (unit, prices)):
        with pytest.raises(error) as found:
            _best_cell(program, agent, at)
        with pytest.raises(error) as expected:
            best_cell_by_enumeration(program, agent, at)
        assert str(found.value) == str(expected.value)
        messages.append(str(found.value))
    assert messages[0] == welfare_message


def lps_solved(monkeypatch) -> list:
    calls = []
    solve = core.solve_lp

    def counted(lp):
        calls.append(lp)
        return solve(lp)

    monkeypatch.setattr(core, "solve_lp", counted)
    return calls


def test_search_solves_fewer_lps_than_cells(monkeypatch):
    program = assemble_welfare(*random_commitment_market(6))
    assert len(program.binaries) == 6
    calls = lps_solved(monkeypatch)
    _best_cell(program)
    assert len(calls) < 2 ** len(program.binaries)


def test_a_relaxation_that_fails_numerically_prunes_nothing(monkeypatch):
    program = assemble_welfare(*random_commitment_market(6))
    expected = best_cell_by_enumeration(program)
    relaxations, leaves = [], []
    build, solve = core.build_lp, core.solve_lp

    def build_and_record(program, cell, agent=None, prices=None, free=()):
        lp = build(program, cell, agent, prices, free)
        if len(free):
            relaxations.append(lp)
        return lp

    def fail_on_relaxations(lp):
        if any(lp is relaxed for relaxed in relaxations):
            raise NumericalFailure("singular basis: test")
        leaves.append(lp)
        return solve(lp)

    monkeypatch.setattr(core, "build_lp", build_and_record)
    monkeypatch.setattr(core, "solve_lp", fail_on_relaxations)
    found = _best_cell(program)
    assert relaxations
    assert len(leaves) == 2 ** len(program.binaries)
    assert_same(found, expected)


@pytest.mark.parametrize(
    "market",
    [commitment_bids("expectation"), commitment_bids("worst_case"), random_convex_market(0)],
    ids=["fixture_expectation", "fixture_worst_case", "convex"],
)
def test_one_binary_or_none_solves_every_cell_and_nothing_else(monkeypatch, market):
    program = assemble_welfare(*market)
    assert len(program.binaries) <= 1
    for agent, prices in searches(program):
        calls = lps_solved(monkeypatch)
        _best_cell(program, agent, prices)
        own = sum(agent is None or a == agent for a, _ in program.binaries)
        assert len(calls) == 2 ** own
