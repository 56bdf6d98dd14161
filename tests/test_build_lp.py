"""Cell and agent LPs sliced from the program's arrays, against the row-wise
reference builder, and the row view the benchmark harness reads."""

import itertools

import numpy as np
import pytest

from statemarket.cli import fixture_path
from statemarket.clearing import build_lp, clear
from statemarket.market import (
    AgentBid,
    Decision,
    LinkingConstraint,
    MarketDimensions,
    PiecewiseUtility,
    assemble_welfare,
    load_bids_json,
)

from instances import commitment_bids, price_formation_bids, random_convex_market
from reference_builder import reference_lp

FIXTURES = ("price_formation", "commitment_expectation", "commitment_worst_case")


def markets():
    for name in FIXTURES:
        yield load_bids_json(fixture_path(f"bids_{name}.json"))
    for pi1 in (0.0, 0.3, 0.5, 1.0):
        yield price_formation_bids(pi1)
    for risk in ("expectation", "worst_case"):
        yield commitment_bids(risk)
    for seed in range(12):
        yield random_convex_market(seed)


def cells(program, agent=None):
    """Every binary vector, or with ``agent`` only its own binaries set."""
    own = [b for b, (a, _) in enumerate(program.binaries) if agent is None or a == agent]
    for values in itertools.product((0, 1), repeat=len(own)):
        cell = [0] * len(program.binaries)
        for b, value in zip(own, values):
            cell[b] = value
        yield cell


def lp_arrays(lp):
    return (lp.objective, lp.lower, lp.upper, lp.matrix, lp.senses, lp.rhs)


def assert_same_bits(lp, reference):
    names = ("objective", "lower", "upper", "matrix", "senses", "rhs")
    for name, ours, theirs in zip(names, lp_arrays(lp), reference):
        assert ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name


@pytest.mark.parametrize("market", list(markets()))
def test_every_cell_and_priced_lp_matches_the_row_wise_builder(market):
    bids, dims = market
    program = assemble_welfare(bids, dims)
    prices = clear(program).prices
    for cell in cells(program):
        assert_same_bits(build_lp(program, cell), reference_lp(bids, dims, cell))
        assert_same_bits(
            build_lp(program, cell, prices=prices), reference_lp(bids, dims, cell, prices=prices)
        )
    for a in range(len(bids)):
        for cell in cells(program, a):
            assert_same_bits(
                build_lp(program, cell, a, prices), reference_lp(bids, dims, cell, a, prices)
            )


def test_link_row_with_binaries_listed_in_descending_order():
    # the row lists binary "b" (index 1) before "a" (index 0); build_lp
    # subtracts set binaries in ascending order, so with both set the rhs is
    # (0.1 - 0.7) - 0.2 where the row-wise order gives (0.1 - 0.2) - 0.7
    utility = PiecewiseUtility([0.0, 5.0], [0.0, 50.0])
    bid = AgentBid(
        "unit",
        np.array([1.0]),
        utilities={(0, 0, 0): utility},
        decisions=(Decision("a", "binary"), Decision("b", "binary")),
        constraints=(
            LinkingConstraint((((0, 0, 0), 1.0),), (("b", 0.2), ("a", 0.7)), "<=", 0.1),
        ),
    )
    buyer = AgentBid("buyer", np.array([1.0]), utilities={(0, 0, 0): utility})
    bids, dims = [bid, buyer], MarketDimensions(1, 1, 1)
    program = assemble_welfare(bids, dims)
    for cell in cells(program):
        lp = build_lp(program, cell)
        reference = reference_lp(bids, dims, cell)
        for ours, theirs in zip(lp_arrays(lp)[:5], reference[:5]):
            assert ours.tobytes() == theirs.tobytes()
        assert lp.rhs == pytest.approx(reference[5], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("market", [commitment_bids("worst_case"), random_convex_market(3)])
def test_row_view_and_program_sizes_match_the_arrays(market):
    program = assemble_welfare(*market)
    assert len(program.variables) == program.matrix.shape[1]
    assert len(program.rows) == program.matrix.shape[0]
    for cell in cells(program):
        lp = build_lp(program, cell)
        dense = np.zeros(lp.matrix.shape)
        for i, row in enumerate(lp.rows):
            np.add.at(dense[i], list(row.indices), row.coeffs)
        assert np.array_equal(dense, lp.matrix)
        assert [row.rhs for row in lp.rows] == lp.rhs.tolist()
        assert [row.sense for row in lp.rows] == lp.senses.tolist()


def test_program_arrays_are_read_only():
    program = assemble_welfare(*commitment_bids("worst_case"))
    for name in ("objective", "lower", "upper", "matrix", "senses", "rhs",
                 "binary_matrix", "column_contract", "variables"):
        array = getattr(program, name)
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array
    lp = build_lp(program, (1,), agent=0, prices=clear(program).prices)
    with pytest.raises(ValueError, match="read-only"):
        lp.matrix[0, 0] = 1.0
