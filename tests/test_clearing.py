"""Market clearing: golden tables, equilibrium verification, auction facts."""

import itertools
import json
from dataclasses import replace

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
    load_bids_json,
    payment,
    valuation,
)
from statemarket.cli import fixture_path
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


def overflowing_price_searches():
    """(program, agent, price) whose priced LP has a non-finite objective: the
    wind farm's lower end -10 overflows its constant at either sign, and a
    slope of 1.5e308 less a price of -1.7e308 overflows a coefficient."""
    program = assemble_welfare(*price_formation_bids(0.5))
    yield program, 0, 1.7e308
    yield program, 0, -1.7e308
    steep = PiecewiseUtility([0.0, 1.0], [0.0, 1.5e308])
    bids = [AgentBid(name, np.array([1.0]), utilities={(0, 0, 0): steep}) for name in "ab"]
    yield assemble_welfare(bids, MarketDimensions(1, 1, 1)), 0, -1.7e308


@pytest.mark.parametrize("program, agent, price", list(overflowing_price_searches()),
                         ids=["constant_high", "constant_low", "coefficient"])
def test_best_response_rejects_prices_that_overflow_the_objective(program, agent, price):
    prices = ContractGrid(np.full(program.dims.shape, price))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="objective coefficients must be finite"):
        best_response_value(program, agent, prices)


def test_clear_rejects_a_binary_shift_that_overflows_a_row():
    # the row's rhs -1.7e308, less the binary's 1.7e308 once it is set, is -inf
    bid = AgentBid(
        "unit", np.array([1.0]),
        utilities={(0, 0, 0): PiecewiseUtility([0.0, 1.0], [0.0, 1.0])},
        decisions=(Decision("on", "binary"),),
        constraints=(LinkingConstraint((((0, 0, 0), 1.0),), (("on", 1.7e308),), "<=",
                                       -1.7e308),),
    )
    program = assemble_welfare([bid], MarketDimensions(1, 1, 1))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="row coefficients must be finite"):
        clear(program)


def test_assembly_rejects_a_binary_listed_twice_whose_coefficients_overflow():
    # 1.7e308 + 1.7e308 in the binary's column of the row is inf
    bid = AgentBid(
        "unit", np.array([1.0]),
        utilities={(0, 0, 0): PiecewiseUtility([0.0, 1.0], [0.0, 1.0])},
        decisions=(Decision("on", "binary"),),
        constraints=(LinkingConstraint((((0, 0, 0), 1.0),), (("on", 1.7e308), ("on", 1.7e308)),
                                       "<=", 0.0),),
    )
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^row coefficients must be finite$"):
        assemble_welfare([bid], MarketDimensions(1, 1, 1))


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


# --- best responses certified by the welfare LP's duals -----------------------

BID_FIXTURES = ("bids_price_formation.json", "bids_commitment_expectation.json",
                "bids_commitment_worst_case.json")
CORPORA = {
    "random_convex_market 0-99": lambda: [random_convex_market(seed) for seed in range(100)],
    "random_commitment_market 0-69": lambda: [random_commitment_market(seed)
                                              for seed in range(70)],
    "bid fixtures": lambda: [load_bids_json(fixture_path(name)) for name in BID_FIXTURES],
}


def _without_best_responses(result):
    payload = result.to_dict()
    best, gaps = (payload["verification"].pop(key) for key in ("best_responses", "gaps"))
    return payload, best, gaps


@pytest.mark.parametrize("corpus", CORPORA.keys())
def test_certified_best_responses_bound_the_lp_route(monkeypatch, corpus):
    """Each reported best response is at least the LP route's less 1e-9
    relative, and everything else, the verdict included, keeps its bits."""
    programs = [assemble_welfare(*market) for market in CORPORA[corpus]()]
    certified = [clear(program) for program in programs]
    monkeypatch.setattr(core, "_certificate", lambda *args: np.inf)
    for program, result in zip(programs, certified):
        by_lp = clear(program)
        payload, best, gaps = _without_best_responses(result)
        lp_payload, lp_best, _ = _without_best_responses(by_lp)
        assert json.dumps(payload, sort_keys=True) == json.dumps(lp_payload, sort_keys=True)
        assert by_lp.verification == verify_equilibrium(result, program)
        for agent, value in lp_best.items():
            assert best[agent] >= value - 1e-9 * max(1.0, abs(value)), agent
            assert gaps[agent] == best[agent] - result.surplus[agent]


def test_a_convex_market_is_verified_without_an_lp(monkeypatch):
    """Every agent's certificate confirms, so the welfare LP is the only one."""
    markets = [random_convex_market(seed) for seed in range(100)]
    markets += [reserving_market(seed, risk) for seed in range(4)
                for risk in ("expectation", "worst_case")]
    markets += [price_formation_bids(pi1) for pi1 in PRICE_FORMATION_TABLE]
    calls = []
    solve = core.solve_lp
    monkeypatch.setattr(core, "solve_lp", lambda lp, start=None: calls.append(lp) or
                        solve(lp, start=start))
    for bids, dims in markets:
        program = assemble_welfare(bids, dims)
        assert not program.binaries
        calls.clear()
        result = clear(program)
        assert len(calls) == 1
        assert result.verification.confirmed


def test_a_confirmed_cleared_cell_is_not_solved_again(monkeypatch):
    """In a commitment market, an agent whose certificate confirms searches
    only its other cells: its cleared cell's LP is built once, for the
    certificate, and never solved."""
    build = core.build_lp
    built = []

    def recorded(program, cell, agent=None, prices=None, free=()):
        if agent is not None and not len(free):
            built.append((agent, tuple(cell)))
        return build(program, cell, agent, prices, free)

    monkeypatch.setattr(core, "build_lp", recorded)
    seeded = 0
    for seed in range(70):
        program = assemble_welfare(*random_commitment_market(seed))
        built.clear()
        result = clear(program)
        made = list(built)
        _, cell, outcome = core._best_cell(program)
        for a, bid in enumerate(program.bids):
            own = tuple(v if owner == a else 0 for (owner, _), v in zip(program.binaries, cell))
            bound = core._certificate(program, a, own, result.prices, outcome.duals)
            confirms = bound - result.surplus[bid.agent_id] <= result.verification.tolerance
            if all(owner != a for owner, _ in program.binaries):
                assert confirms and made.count((a, own)) == 1
                continue
            assert made.count((a, own)) == (1 if confirms else 2)
            seeded += confirms
    assert seeded == 366  # every unit of the corpus


def _all_worst_case(market):
    """The market with every agent worst case, so that every agent has rows
    and every certificate depends on the duals."""
    bids, dims = market
    return [replace(bid, risk="worst_case") for bid in bids], dims


@pytest.mark.parametrize("tamper", ["negated", "zero", "noise"])
def test_wrong_duals_fall_back_to_the_lp_route(monkeypatch, tamper):
    """Wrong duals only loosen each certificate. Negated or zero duals leave
    every state row without a positive multiplier, so every agent falls back
    to its LP and the report is the LP route's, bit for bit. Noise may land
    on other multipliers that prove the same value where the agent's dual is
    not unique (3 of the 120 agents here); such an agent keeps a bound at
    least its LP optimum, and every other agent falls back."""
    markets = [_all_worst_case(random_convex_market(seed)) for seed in range(10)]
    markets += [_all_worst_case(random_commitment_market(seed)) for seed in range(10)]
    markets += [_all_worst_case(commitment_bids("expectation"))]
    rng = np.random.default_rng(5)
    searched = []
    best_response = core.best_response_value

    def recorded(program, agent, prices, *, incumbent=None):
        searched.append((agent, incumbent))
        return best_response(program, agent, prices, incumbent=incumbent)

    monkeypatch.setattr(core, "best_response_value", recorded)
    agents = certified = 0
    for bids, dims in markets:
        program = assemble_welfare(bids, dims)
        result = clear(program)
        _, cell, outcome = core._best_cell(program)
        duals = {"negated": -outcome.duals, "zero": np.zeros_like(outcome.duals),
                 "noise": outcome.duals + rng.normal(0.0, 5.0, outcome.duals.shape)}[tamper]
        searched.clear()
        report = core._verify(program, result.allocations, result.prices, result.surplus,
                              core.DEFAULT_TOL, duals, cell)
        fallen_back = {a for a, incumbent in searched if incumbent is None}
        by_lp = verify_equilibrium(result, program)
        for a, bid in enumerate(bids):
            best, lp_best = report.best_responses[bid.agent_id], by_lp.best_responses[bid.agent_id]
            if a in fallen_back:
                assert repr(best) == repr(lp_best)
            else:
                assert best >= lp_best - 1e-9 * max(1.0, abs(lp_best))
        if len(fallen_back) == len(bids):
            assert report == by_lp
        assert report.confirmed == by_lp.confirmed
        agents += len(bids)
        certified += len(bids) - len(fallen_back)
    assert certified == (3 if tamper == "noise" else 0)
    assert agents == 120
