"""Contracts, valuations, payments, and welfare assembly."""

import numpy as np
import pytest

from statemarket.errors import DimensionMismatch, EmptyMarket, InconsistentDimensions
from statemarket.market import (
    AgentBid,
    ContractGrid,
    Decision,
    MarketDimensions,
    PiecewiseUtility,
    assemble_welfare,
    payment,
    valuation,
)

from instances import TWO_STATE, commitment_bids, price_formation_bids, thermal_plant_bid


def grid(*state_values) -> ContractGrid:
    return ContractGrid(np.array([[list(state_values)]], dtype=float))


# --- payment -------------------------------------------------------------------

def test_payment_wind_farm_receives_200():
    prices = grid(10.0, 20.0)
    assert payment(prices, grid(-10.0, -5.0)) == pytest.approx(-200.0)


def test_payment_load_pays_300():
    prices = grid(10.0, 20.0)
    assert payment(prices, grid(10.0, 10.0)) == pytest.approx(300.0)


def test_payment_zero_portfolio():
    assert payment(grid(10.0, 20.0), grid(0.0, 0.0)) == 0.0


def test_payment_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        payment(grid(10.0, 20.0), ContractGrid(np.zeros((1, 1, 3))))


def test_payment_is_bilinear():
    rng = np.random.default_rng(70)
    prices = ContractGrid(rng.normal(0, 50, (2, 3, 2)))
    x = ContractGrid(rng.normal(0, 5, (2, 3, 2)))
    y = ContractGrid(rng.normal(0, 5, (2, 3, 2)))
    combined = ContractGrid(x.values + y.values)
    assert payment(prices, combined) == pytest.approx(
        payment(prices, x) + payment(prices, y), abs=1e-9
    )
    scaled = ContractGrid(2.5 * x.values)
    assert payment(prices, scaled) == pytest.approx(2.5 * payment(prices, x), abs=1e-9)


# --- valuation -----------------------------------------------------------------

def test_plant_expected_cost_is_450():
    plant = thermal_plant_bid("expectation")
    value = valuation(plant, grid(-10.0, -20.0), {"on": 1.0})
    assert value == pytest.approx(-450.0)
    # with the 500 upfront payment at prices (10, 20) the profit is 50
    pay = payment(grid(10.0, 20.0), grid(-10.0, -20.0))
    assert value - pay == pytest.approx(50.0)


def test_plant_worst_case_offline_is_zero():
    plant = thermal_plant_bid("worst_case")
    assert valuation(plant, grid(0.0, 0.0), {"on": 0.0}) == 0.0


def test_valuation_infeasible_linking_is_minus_inf():
    plant = thermal_plant_bid("expectation")
    # online but delivering less than the 10 MWh minimum
    assert valuation(plant, grid(-5.0, -15.0), {"on": 1.0}) == float("-inf")
    # not committed but delivering
    assert valuation(plant, grid(-10.0, -10.0), {"on": 0.0}) == float("-inf")


def test_valuation_outside_trading_interval_is_minus_inf():
    bid = AgentBid(
        "buyer",
        np.array([0.5, 0.5]),
        utilities={(0, 0, 0): PiecewiseUtility([0.0, 5.0], [0.0, 100.0])},
    )
    assert valuation(bid, grid(6.0, 0.0)) == float("-inf")
    assert valuation(bid, grid(0.0, 1.0)) == float("-inf")  # undeclared coordinate


def test_valuation_linear_in_beliefs():
    rng = np.random.default_rng(71)
    x = grid(-12.0, -17.0)
    values = []
    for pi1 in (0.2, 0.5, 0.8):
        plant = thermal_plant_bid("expectation")
        plant = AgentBid(
            plant.agent_id,
            np.array([pi1, 1 - pi1]),
            "expectation",
            utilities=plant.utilities,
            decisions=plant.decisions,
            constraints=plant.constraints,
        )
        values.append(valuation(plant, x, {"on": 1.0}))
    # affine in pi1, so the middle point is the average of the end points
    assert values[1] == pytest.approx((values[0] + values[2]) / 2, abs=1e-9)


def test_worst_case_below_expectation():
    rng = np.random.default_rng(72)
    for _ in range(20):
        quantities = grid(*rng.uniform(-18, 0, 2))
        pi1 = rng.uniform(0, 1)
        beliefs = np.array([pi1, 1 - pi1])
        base = thermal_plant_bid("expectation")
        expectation_bid = AgentBid(
            "p", beliefs, "expectation",
            utilities=base.utilities, decisions=base.decisions,
            constraints=base.constraints,
        )
        worst_bid = AgentBid(
            "p", beliefs, "worst_case",
            utilities=base.utilities, decisions=base.decisions,
            constraints=base.constraints,
        )
        expectation_value = valuation(expectation_bid, quantities, {"on": 1.0})
        worst_value = valuation(worst_bid, quantities, {"on": 1.0})
        if worst_value == float("-inf"):
            assert expectation_value == float("-inf")
        else:
            assert worst_value <= expectation_value + 1e-12


def test_concavity_validation():
    with pytest.raises(ValueError):
        PiecewiseUtility([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])  # increasing slopes


def test_piecewise_value_interpolation():
    piece = PiecewiseUtility([0.0, 4.0, 10.0], [0.0, 40.0, 70.0])
    assert piece.value(0.0) == 0.0
    assert piece.value(2.0) == pytest.approx(20.0)
    assert piece.value(7.0) == pytest.approx(55.0)
    assert piece.value(10.0) == pytest.approx(70.0)


# --- assembly -------------------------------------------------------------------

def test_assemble_price_formation_structure():
    bids, dims = price_formation_bids(0.5)
    program = assemble_welfare(bids, dims)
    assert len(program.balance_rows) == 2  # one per state
    assert program.binaries == ()
    assert program.num_enumeration_cells == 1
    labels = program.rows
    assert sum(1 for l in labels if l.startswith("balance")) == 2
    assert sum(1 for l in labels if l.startswith("link")) == 2
    # one segment column per (agent, state) plus the generator's decision;
    # quantities are lower + sum(delta), so there are no x columns or pwl rows
    assert len(program.variables) == 7
    assert len(program.rows) == 4
    assert not any(l.startswith("pwl") for l in labels)


def test_quantities_substitute_lower_ends_into_rows():
    bids, dims = price_formation_bids(0.5)
    program = assemble_welfare(bids, dims)
    wind_lower, wind_deltas = program.quantities[(0, (0, 0, 0))]
    assert wind_lower == -10.0 and len(wind_deltas) == 1
    balance = program.balance_rows[(0, 0, 0)]
    # wind [-10, 0], load [0, 11], generator [-5, 0]
    assert program.rhs[balance] == 15.0
    assert program.matrix[balance][program.matrix[balance] != 0].tolist() == [1.0] * 3
    link = program.rows.index("link:advance_generator:0")
    assert program.rhs[link] == 5.0  # 0 - 1.0 * (-5)


def test_pinned_quantities_keep_an_empty_balance_row():
    pinned = PiecewiseUtility([3.0], [0.0])
    bid = AgentBid("rigid", np.array([1.0]), utilities={(0, 0, 0): pinned})
    program = assemble_welfare([bid], MarketDimensions(1, 1, 1))
    assert program.quantities[(0, (0, 0, 0))] == (3.0, ())
    assert program.matrix.shape == (1, 0)
    assert program.rhs[program.balance_rows[(0, 0, 0)]] == -3.0


def test_assemble_counts_binaries_and_cells():
    bids, dims = commitment_bids("expectation")
    two_plants = [
        thermal_plant_bid("expectation"),
        AgentBid(
            "second_plant",
            np.array([0.5, 0.5]),
            "expectation",
            utilities=thermal_plant_bid("expectation").utilities,
            decisions=(Decision("on", "binary"),),
        ),
        bids[1],
    ]
    program = assemble_welfare(two_plants, dims)
    assert len(program.binaries) == 2
    assert program.num_enumeration_cells == 4


def test_assemble_rejects_empty_market():
    with pytest.raises(EmptyMarket):
        assemble_welfare([], TWO_STATE)


def test_assemble_rejects_mismatched_states():
    bids, _ = price_formation_bids(0.5)
    with pytest.raises(InconsistentDimensions):
        assemble_welfare(bids, MarketDimensions(1, 1, 3))


def test_assemble_rejects_out_of_range_coordinates():
    bid = AgentBid(
        "a",
        np.array([1.0]),
        utilities={(2, 0, 0): PiecewiseUtility([0.0, 1.0], [0.0, 1.0])},
    )
    with pytest.raises(InconsistentDimensions):
        assemble_welfare([bid], MarketDimensions(1, 1, 1))


def test_every_variable_belongs_to_exactly_one_agent_block():
    bids, dims = price_formation_bids(0.4)
    program = assemble_welfare(bids, dims)
    outside = np.ones(program.matrix.shape, dtype=bool)
    for a, bid in enumerate(bids):
        rows, columns = program.agent_rows[a], program.agent_columns[a]
        assert np.all(program.variables[columns] == a)
        assert all(label.split(":")[1] == bid.agent_id for label in program.rows[rows])
        outside[rows, columns] = False
    # every non-balance row is in some agent's block, and its terms stay there
    agent_rows = max(r.stop for r in program.agent_rows)
    assert min(program.balance_rows.values()) == agent_rows
    assert not np.any(program.matrix[:agent_rows][outside[:agent_rows]])


@pytest.mark.parametrize(
    "lower, upper",
    [(float("nan"), 0.0), (-5.0, float("nan")), (np.inf, np.inf), (-np.inf, -np.inf), (1.0, 0.0)],
)
def test_decision_rejects_empty_or_nan_range(lower, upper):
    with pytest.raises(ValueError, match="empty range"):
        Decision("output", "continuous", lower, upper)


def test_decision_accepts_a_free_range():
    free = Decision("output", "continuous", -np.inf, np.inf)
    assert (free.lower, free.upper) == (-np.inf, np.inf)
