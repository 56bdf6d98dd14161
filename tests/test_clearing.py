"""Market clearing: golden tables, equilibrium verification, auction facts."""

import itertools

import numpy as np
import pytest

from statemarket.errors import EmptyMarket, Infeasible, NumericalFailure, TooManyBinaries
from statemarket.market import (
    AgentBid,
    ContractGrid,
    Decision,
    LinkingConstraint,
    MarketDimensions,
    PiecewiseUtility,
    assemble_welfare,
    payment,
    valuation,
)
from statemarket.clearing import core
from statemarket.clearing import (
    best_response_value,
    build_lp,
    clear,
    clear_bids,
    sweep_two_state_beliefs,
    verify_equilibrium,
    welfare_equivalence_check,
)

from instances import (
    DEGENERATE_PI1,
    PRICE_FORMATION_TABLE,
    TWO_STATE,
    commitment_bids,
    price_formation_bids,
    random_commitment_market,
    random_convex_market,
    reserving_market,
)
from oracles import highs_optimum


def row_of(result):
    wind = result.allocations["wind_farm"].values.ravel()
    load = result.allocations["load"].values.ravel()
    z = result.decisions["advance_generator"]["output"]
    prices = result.prices.values.ravel()
    return (wind[0], wind[1], load[0], load[1], z, prices[0], prices[1])


def test_price_formation_non_degenerate_rows():
    for pi1, expected in PRICE_FORMATION_TABLE.items():
        if pi1 in DEGENERATE_PI1:
            continue
        bids, dims = price_formation_bids(pi1)
        result = clear_bids(bids, dims)
        assert row_of(result) == pytest.approx(expected, abs=1e-6), f"pi1={pi1}"
        assert result.verification.confirmed


def test_price_formation_degenerate_rows_verify():
    for pi1 in DEGENERATE_PI1:
        bids, dims = price_formation_bids(pi1)
        program = assemble_welfare(bids, dims)
        result = clear(program)
        report = verify_equilibrium(result, program, tol=1e-6)
        assert max(report.gaps.values()) <= 1e-6
        # the produced solution achieves the same welfare as the printed row
        x11, x12, x21, x22, z3, _, _ = PRICE_FORMATION_TABLE[pi1]
        table_welfare = sum(
            valuation(
                bid,
                ContractGrid(np.array([[[a, b]]])),
                {"output": z3} if bid.decisions else {},
            )
            for bid, (a, b) in zip(
                bids, [(x11, x12), (x21, x22), (z3, z3)]
            )
        )
        assert result.welfare == pytest.approx(table_welfare, abs=1e-6)


def test_price_monotonicity_across_sweep():
    bids, dims = price_formation_bids(0.5)
    results = sweep_two_state_beliefs(bids, dims, [0.1 * i for i in range(11)])
    lambda1 = [r.prices.values[0, 0, 0] for _, r in results]
    lambda2 = [r.prices.values[0, 0, 1] for _, r in results]
    assert all(b >= a - 1e-9 for a, b in zip(lambda1, lambda1[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(lambda2, lambda2[1:]))


def test_commitment_expectation_clears_to_known_optimum():
    bids, dims = commitment_bids("expectation")
    result = clear_bids(bids, dims)
    plant = result.allocations["thermal_plant"].values.ravel()
    assert result.decisions["thermal_plant"]["on"] == 1.0
    assert plant == pytest.approx([-10.0, -20.0], abs=1e-9)
    assert result.prices.values.ravel() == pytest.approx([10.0, 20.0], abs=1e-9)
    assert result.surplus["thermal_plant"] == pytest.approx(50.0, abs=1e-9)
    assert result.verification.confirmed


def test_commitment_worst_case_returns_a_listed_optimum():
    bids, dims = commitment_bids("worst_case")
    result = clear_bids(bids, dims)
    plant = result.allocations["thermal_plant"].values.ravel()
    on = result.decisions["thermal_plant"]["on"]
    committed = (on, tuple(np.round(plant, 9)))
    assert committed in {(0.0, (0.0, 0.0)), (1.0, (-10.0, -10.0))}
    profit = result.surplus["thermal_plant"]
    assert profit == pytest.approx(0.0, abs=1e-9)


def test_single_agent_market_forces_zero_trade():
    bid = AgentBid(
        "loner",
        np.array([0.6, 0.4]),
        utilities={
            (0, 0, 0): PiecewiseUtility([-5.0, 0.0, 5.0], [-35.0, 0.0, 20.0]),
            (0, 0, 1): PiecewiseUtility([-5.0, 0.0, 5.0], [-35.0, 0.0, 20.0]),
        },
    )
    result = clear_bids([bid], TWO_STATE)
    assert np.allclose(result.allocations["loner"].values, 0.0)
    assert result.welfare == pytest.approx(0.0, abs=1e-9)


def test_perturbed_prices_break_equilibrium():
    bids, dims = price_formation_bids(0.7)
    program = assemble_welfare(bids, dims)
    result = clear(program)
    assert max(result.verification.gaps.values()) <= 1e-9
    bumped = result.prices.values.copy()
    bumped[0, 0, 0] += 1.0
    from dataclasses import replace

    tampered = replace(result, prices=ContractGrid(bumped))
    report = verify_equilibrium(tampered, program, tol=1e-6)
    assert max(report.gaps.values()) > 1e-3
    assert not report.confirmed


def test_welfare_equivalence_on_table_rows():
    for pi1 in (0.2, 0.4, 0.6, 0.8):
        bids, dims = price_formation_bids(pi1)
        program = assemble_welfare(bids, dims)
        result = clear(program)
        assert welfare_equivalence_check(program, result)


def test_welfare_equivalence_rejects_non_equilibrium():
    bids, dims = price_formation_bids(0.7)
    program = assemble_welfare(bids, dims)
    result = clear(program)
    from dataclasses import replace

    bumped = result.prices.values.copy()
    bumped[0, 0, 1] -= 5.0
    tampered = replace(result, prices=ContractGrid(bumped))
    tampered = replace(
        tampered, verification=verify_equilibrium(tampered, program, tol=1e-6)
    )
    assert welfare_equivalence_check(program, tampered) is False


def test_welfare_equivalence_rejects_tampered_welfare_or_balance():
    from dataclasses import replace

    bids, dims = price_formation_bids(0.7)
    program = assemble_welfare(bids, dims)
    result = clear(program)
    assert welfare_equivalence_check(program, result)
    inflated = replace(result, welfare=result.welfare + 1.0)
    assert welfare_equivalence_check(program, inflated) is False

    # surplus and gaps untouched, but the wind farm now sells 1 MWh nobody buys
    moved = result.allocations["wind_farm"].values.copy()
    moved[0, 0, 0] -= 1.0
    allocations = {**result.allocations, "wind_farm": ContractGrid(moved)}
    unbalanced = replace(result, allocations=allocations)
    unbalanced = replace(
        unbalanced, verification=verify_equilibrium(unbalanced, program, tol=1e-6)
    )
    assert unbalanced.verification.confirmed
    assert welfare_equivalence_check(program, unbalanced) is False


def test_random_convex_markets_satisfy_auction_facts():
    markets = {f"seed={seed}": random_convex_market(seed) for seed in range(25)}
    markets.update({f"reserving seed={seed} {risk}": reserving_market(seed, risk)
                    for seed in range(4) for risk in ("expectation", "worst_case")})
    for name, (bids, dims) in markets.items():
        program = assemble_welfare(bids, dims)
        result = clear(program)
        report = result.verification
        assert report.balance_residual <= 1e-7, name
        assert report.budget_residual <= 1e-6, name
        assert max(report.gaps.values()) <= 1e-6, name
        assert min(result.surplus.values()) >= -1e-6, name
        assert report.confirmed, name
        assert welfare_equivalence_check(program, result), name


def test_too_many_binaries_rejected():
    plants = []
    for i in range(21):
        plants.append(
            AgentBid(
                f"plant_{i}",
                np.array([0.5, 0.5]),
                utilities={
                    (0, 0, 0): PiecewiseUtility([-1.0, 0.0], [-10.0, 0.0]),
                    (0, 0, 1): PiecewiseUtility([-1.0, 0.0], [-10.0, 0.0]),
                },
                decisions=(Decision("on", "binary"),),
            )
        )
    program = assemble_welfare(plants, TWO_STATE)
    with pytest.raises(TooManyBinaries):
        clear(program)


def test_empty_market_rejected():
    with pytest.raises(EmptyMarket):
        clear_bids([], TWO_STATE)


def test_infeasible_market_detected():
    # a fixed buyer with no possible counterparty
    rigid = AgentBid(
        "rigid_buyer",
        np.array([0.5, 0.5]),
        utilities={
            (0, 0, 0): PiecewiseUtility([3.0], [0.0]),
            (0, 0, 1): PiecewiseUtility([3.0], [0.0]),
        },
    )
    with pytest.raises(Infeasible):
        clear_bids([rigid], TWO_STATE)


def test_clearing_is_deterministic():
    bids, dims = random_convex_market(7)
    first = clear_bids(bids, dims)
    second = clear_bids(bids, dims)
    assert first.to_dict() == second.to_dict()


@pytest.mark.parametrize("market, coord", [(random_convex_market, (0, 1, 0)),
                                           (random_commitment_market, (0, 0, 0))])
def test_a_dual_of_rounding_residue_is_posted_as_zero(market, coord):
    """Seed 17 of each generator ends on a zero balance dual that the simplex
    computes as -2e-16 or -1e-15; the posted price is exactly 0.0, and no
    posted price lies within the residue band without being 0.0."""
    program = assemble_welfare(*market(17))
    prices = clear(program).prices.values
    assert prices[coord] == 0.0 and not np.signbit(prices[coord])
    residue = core.PIVOT_TOL * max(1.0, np.abs(program.objective).max())
    assert not np.any((prices != 0.0) & (np.abs(prices) <= residue))


def test_startup_cost_flips_commitment():
    # the plant from the commitment instance, now with a 100 startup cost:
    # the z=1 cell's welfare drops from 50 to -50, so staying offline wins
    bids, dims = commitment_bids("expectation")
    plant = bids[0]
    costly = AgentBid(
        plant.agent_id,
        plant.beliefs,
        plant.risk,
        utilities=plant.utilities,
        decisions=(Decision("on", "binary", utility_coeff=-100.0),),
        constraints=plant.constraints,
    )
    result = clear_bids([costly, bids[1]], dims)
    assert result.decisions["thermal_plant"]["on"] == 0.0
    assert np.allclose(result.allocations["thermal_plant"].values, 0.0)
    assert result.welfare == pytest.approx(0.0, abs=1e-9)

    # a 40 startup cost still leaves 10 of surplus, so the plant commits
    cheaper = AgentBid(
        plant.agent_id,
        plant.beliefs,
        plant.risk,
        utilities=plant.utilities,
        decisions=(Decision("on", "binary", utility_coeff=-40.0),),
        constraints=plant.constraints,
    )
    result = clear_bids([cheaper, bids[1]], dims)
    assert result.decisions["thermal_plant"]["on"] == 1.0
    assert result.welfare == pytest.approx(10.0, abs=1e-9)
    assert result.surplus["thermal_plant"] == pytest.approx(10.0, abs=1e-9)


def test_two_node_congestion_prices():
    # cheap generation at node 0, load at node 1, a 5 MW lossless line between;
    # the line binds, so nodal prices separate and the line earns the rent
    beliefs = np.array([0.5, 0.5])
    gen = AgentBid(
        "gen_node0",
        beliefs,
        utilities={
            (0, 0, s): PiecewiseUtility([-10.0, 0.0], [-100.0, 0.0]) for s in (0, 1)
        },
    )
    load = AgentBid(
        "load_node1",
        beliefs,
        utilities={
            (1, 0, s): PiecewiseUtility([0.0, 8.0], [0.0, 800.0]) for s in (0, 1)
        },
    )
    line = AgentBid(
        "line",
        beliefs,
        utilities={
            (0, 0, 0): PiecewiseUtility([0.0, 5.0], [0.0, 0.0]),
            (0, 0, 1): PiecewiseUtility([0.0, 5.0], [0.0, 0.0]),
            (1, 0, 0): PiecewiseUtility([-5.0, 0.0], [0.0, 0.0]),
            (1, 0, 1): PiecewiseUtility([-5.0, 0.0], [0.0, 0.0]),
        },
        constraints=tuple(
            LinkingConstraint(
                (((0, 0, s), 1.0), ((1, 0, s), 1.0)), (), "=", 0.0
            )
            for s in (0, 1)
        ),
    )
    dims = MarketDimensions(2, 1, 2)
    result = clear_bids([gen, load, line], dims)
    assert result.welfare == pytest.approx(450.0, abs=1e-9)
    prices = result.prices.values
    assert prices[0, 0, :] == pytest.approx([5.0, 5.0], abs=1e-9)
    assert prices[1, 0, :] == pytest.approx([50.0, 50.0], abs=1e-9)
    assert result.surplus["line"] == pytest.approx(450.0, abs=1e-9)
    assert result.verification.confirmed
    assert result.verification.budget_residual <= 1e-9


def test_mixed_risk_market_clears_and_verifies():
    producer = AgentBid(
        "producer",
        np.array([0.5, 0.5]),
        "worst_case",
        utilities={
            (0, 0, 0): PiecewiseUtility([-8.0, 0.0], [-160.0, 0.0]),
            (0, 0, 1): PiecewiseUtility([-8.0, 0.0], [-160.0, 0.0]),
        },
    )
    consumer = AgentBid(
        "consumer",
        np.array([0.3, 0.7]),
        "expectation",
        utilities={
            (0, 0, 0): PiecewiseUtility([0.0, 6.0], [0.0, 360.0]),
            (0, 0, 1): PiecewiseUtility([0.0, 6.0], [0.0, 360.0]),
        },
    )
    program = assemble_welfare([producer, consumer], TWO_STATE)
    result = clear(program)
    assert result.verification.confirmed
    assert result.verification.budget_residual <= 1e-9
    assert min(result.surplus.values()) >= -1e-9


# --- differential test against scipy's HiGHS ----------------------------------

def differential_markets():
    for seed in range(12):
        yield random_convex_market(seed)
    for risk in ("expectation", "worst_case"):
        yield commitment_bids(risk)
    for risk in ("expectation", "worst_case"):
        for seed in (2, 3):  # both seeds reserve a nonzero amount
            yield reserving_market(seed, risk)


@pytest.mark.parametrize("market", list(differential_markets()))
def test_welfare_and_best_responses_match_highs(market):
    pytest.importorskip("scipy")
    bids, dims = market
    program = assemble_welfare(bids, dims)
    result = clear(program)
    scale = max(1.0, abs(result.welfare))

    reference = float("-inf")
    for cell in itertools.product((0, 1), repeat=len(program.binaries)):
        solved = highs_optimum(build_lp(program, cell))
        if solved is not None:
            constant = program.objective_constant + sum(
                c * cell[b] for b, c in program.binary_objective
            )
            reference = max(reference, solved[0] + constant)
    assert result.welfare == pytest.approx(reference, abs=1e-7 * scale)

    # each agent's LP at the posted prices, priced through valuation(), not
    # through the constant the builder sets
    for a, bid in enumerate(bids):
        own = [b for b, (owner, _) in enumerate(program.binaries) if owner == a]
        best = float("-inf")
        for values in itertools.product((0, 1), repeat=len(own)):
            cell = [0] * len(program.binaries)
            for b, value in zip(own, values):
                cell[b] = value
            solved = highs_optimum(build_lp(program, cell, agent=a, prices=result.prices))
            if solved is None:
                continue
            columns = np.flatnonzero(program.variables == a).tolist()
            x = dict(zip(columns, solved[1]))
            grid = np.zeros(dims.shape)
            for coord in bid.utilities:
                lower, deltas = program.quantities[(a, coord)]
                grid[coord] = lower + sum(x[d] for d in deltas)
            z = {}
            for d in bid.decisions:
                if d.kind == "binary":
                    z[d.name] = float(cell[program.binaries.index((a, d.name))])
                else:
                    z[d.name] = x[program.decision_index[(a, d.name)]]
            value = valuation(bid, grid, z, tol=1e-7) - payment(result.prices, ContractGrid(grid))
            best = max(best, value)
        ours = best_response_value(program, a, result.prices)
        assert type(ours) is float
        assert ours == pytest.approx(best, abs=1e-6 * scale), bid.agent_id


def fail_on_call(monkeypatch, failing):
    """Make ``core.solve_lp`` raise on its ``failing``-th call (1-based)."""
    calls = []
    solve = core.solve_lp

    def flaky(lp):
        calls.append(lp)
        if len(calls) == failing:
            raise NumericalFailure("singular basis: test")
        return solve(lp)

    monkeypatch.setattr(core, "solve_lp", flaky)
    return calls


def test_numerical_failure_names_the_welfare_cell(monkeypatch):
    program = assemble_welfare(*commitment_bids("expectation"))
    calls = fail_on_call(monkeypatch, 2)  # cells (0,), then (1,)
    with pytest.raises(NumericalFailure) as caught:
        clear(program)
    m, n = calls[-1].matrix.shape
    assert str(caught.value) == f"cell (1,), welfare LP {m}x{n}: singular basis: test"


def test_numerical_failure_names_the_agent_cell(monkeypatch):
    program = assemble_welfare(*commitment_bids("worst_case"))
    prices = clear(program).prices
    calls = fail_on_call(monkeypatch, 2)
    with pytest.raises(NumericalFailure) as caught:
        best_response_value(program, 0, prices)
    m, n = calls[-1].matrix.shape
    assert str(caught.value) == (
        f"cell (1,), agent 'thermal_plant' LP {m}x{n}: singular basis: test"
    )
