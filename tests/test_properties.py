"""Property tests of the welfare program over random markets.

Markets mix expectation and worst-case agents, single-breakpoint (pinned)
quantities, linking constraints with non-zero lower ends, and up to three
binary commitments over two agents, so every substitution of
``lower + sum(delta)`` into a row is exercised, and the branch and bound over
commitments meets both the welfare and an agent's own search. Commitment
markets of up to five binaries, with exact twins, check every search against
cell enumeration bit for bit.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statemarket.clearing import clear, core
from statemarket.clearing.core import _best_cell
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

from oracles import assert_same_search, best_cell_by_enumeration


@st.composite
def beliefs(draw, states):
    raw = np.array([draw(st.floats(0.1, 1.0)) for _ in range(states)])
    return raw / raw.sum()


@st.composite
def convex_piece(draw, sign):
    """Two-segment concave piece on [-cap, 0] (sign -1) or [0, cap] (sign +1)."""
    cap = draw(st.integers(5, 15))
    knee = cap * draw(st.floats(0.3, 0.7))
    steep = draw(st.floats(5.0, 100.0))
    flat = steep - draw(st.floats(0.0, 40.0))
    if sign > 0:
        return PiecewiseUtility([0.0, knee, cap], [0.0, steep * knee, steep * knee + flat * (cap - knee)])
    return PiecewiseUtility(
        [-cap, -knee, 0.0], [-(flat * knee + steep * (cap - knee)), -flat * knee, 0.0]
    )


@st.composite
def markets(draw):
    states = draw(st.integers(1, 3))
    periods = draw(st.integers(1, 2))
    dims = MarketDimensions(1, periods, states)
    coords = list(dims.coordinates())
    risk = st.sampled_from(["expectation", "worst_case"])
    bids = []
    # a producer and a consumer on every coordinate, each able to absorb
    # the pinned trades below (|q| <= 3 < cap)
    for name, sign in (("producer", -1), ("consumer", 1)):
        bids.append(
            AgentBid(
                name,
                draw(beliefs(states)),
                draw(risk),
                utilities={c: draw(convex_piece(sign)) for c in coords},
            )
        )
    # a must-run agent: some quantities pinned by a single breakpoint
    pinned = {
        c: PiecewiseUtility([draw(st.integers(-3, 3))], [draw(st.floats(-50.0, 50.0))])
        for c in coords
        if draw(st.booleans())
    }
    if pinned:
        bids.append(AgentBid("must_run", draw(beliefs(states)), draw(risk), utilities=pinned))
    # a committer: one output level across states, linked through "=" rows
    # whose quantities start at -cap
    if draw(st.booleans()):
        cap = float(draw(st.integers(2, 6)))
        cost = draw(st.floats(10.0, 80.0))
        utilities = {c: PiecewiseUtility([-cap, 0.0], [-cost * cap, 0.0]) for c in coords}
        constraints = tuple(
            LinkingConstraint(((c, 1.0),), ((f"level_{c[1]}", -1.0),), "=", 0.0) for c in coords
        )
        decisions = tuple(Decision(f"level_{t}", "continuous", -cap, 0.0) for t in range(periods))
        bids.append(
            AgentBid("committer", draw(beliefs(states)), draw(risk), utilities, decisions, constraints)
        )
    # up to two binary units, three binaries in all: each binary brings a
    # block of capacity the unit may only produce from when it is on, and a
    # fixed cost
    blocks = ()
    if draw(st.booleans()):
        blocks = draw(st.sampled_from([(1, 0), (2, 0), (1, 1), (2, 1), (1, 2)]))
    for u, count in enumerate(blocks):
        if not count:
            continue
        caps = [float(draw(st.integers(2, 8))) for _ in range(count)]
        cost = draw(st.floats(5.0, 60.0))
        names = [f"on_{i}" for i in range(count)]
        top = sum(caps)
        utilities = {c: PiecewiseUtility([-top, 0.0], [-cost * top, 0.0]) for c in coords}
        constraints = tuple(
            LinkingConstraint(((c, 1.0),), tuple(zip(names, caps)), ">=", 0.0) for c in coords
        )
        decisions = tuple(
            Decision(name, "binary", utility_coeff=-draw(st.floats(0.0, 50.0))) for name in names
        )
        bids.append(AgentBid(f"unit_{u}", draw(beliefs(states)), draw(risk), utilities,
                             decisions, constraints))
    return bids, dims


@st.composite
def thermal_unit(draw, agent_id, states, boost):
    """Binary "on": off, or output between lo and hi at a marginal and a fixed
    cost. With ``boost``, a second binary that needs "on" adds capacity."""
    lo = draw(st.floats(2.0, 10.0))
    hi = lo + draw(st.floats(0.0, 10.0))
    extra = draw(st.floats(1.0, 8.0)) if boost else 0.0
    marginal = draw(st.floats(10.0, 60.0))
    decisions = [Decision("on", "binary", utility_coeff=-draw(st.floats(0.0, 300.0)))]
    z_terms = [("on", hi)]
    constraints = []
    if boost:
        decisions.append(Decision("boost", "binary", utility_coeff=-draw(st.floats(0.0, 150.0))))
        z_terms.append(("boost", extra))
        constraints.append(LinkingConstraint((), (("boost", 1.0), ("on", -1.0)), "<=", 0.0))
    utilities = {}
    for s in range(states):
        coord = (0, 0, s)
        utilities[coord] = PiecewiseUtility([-(hi + extra), 0.0], [-marginal * (hi + extra), 0.0])
        constraints.append(LinkingConstraint(((coord, 1.0),), (("on", lo),), "<=", 0.0))
        constraints.append(LinkingConstraint(((coord, 1.0),), tuple(z_terms), ">=", 0.0))
    risk = draw(st.sampled_from(["expectation", "worst_case"]))
    return AgentBid(agent_id, draw(beliefs(states)), risk, utilities, tuple(decisions),
                    tuple(constraints))


@st.composite
def commitment_markets(draw):
    """One to four thermal units, some exact twins of the unit before (so
    cells tie), the last maybe boosted, so five binaries at most, against one
    or two consumers and maybe a producer; 1 node, 1 period, 1-3 states.
    Every unit off is feasible."""
    states = draw(st.integers(1, 3))
    dims = MarketDimensions(1, 1, states)
    coords = list(dims.coordinates())
    units = draw(st.integers(1, 4))
    bids = []
    for u in range(units):
        last = u == units - 1
        if bids and not last and draw(st.booleans()):
            bids.append(replace(bids[-1], agent_id=f"unit_{u}"))
        else:
            bids.append(draw(thermal_unit(f"unit_{u}", states, last and draw(st.booleans()))))
    sides = [1] * draw(st.integers(1, 2)) + [-1] * draw(st.integers(0, 1))
    for i, sign in enumerate(sides):
        bids.append(AgentBid(f"convex_{i}", draw(beliefs(states)), "expectation",
                             utilities={c: draw(convex_piece(sign)) for c in coords}))
    return bids, dims


def value_through_valuation(program, found, agent=None, prices=None):
    """A search's value rebuilt from its LP solution: the sum of the agents'
    valuations, or one agent's valuation less its payment at ``prices``."""
    _, cell, outcome = found
    agents = range(len(program.bids)) if agent is None else [agent]
    columns = range(program.objective.size)
    if agent is not None:
        columns = columns[program.agent_columns[agent]]
    x = dict(zip(columns, outcome.x))
    total = 0.0
    for a in agents:
        bid = program.bids[a]
        grid = np.zeros(program.dims.shape)
        for coord in bid.utilities:
            lower, deltas = program.quantities[(a, coord)]
            grid[coord] = lower + sum(x[d] for d in deltas)
        z = {d.name: float(cell[program.binaries.index((a, d.name))]) if d.kind == "binary"
             else x[program.decision_index[(a, d.name)]] for d in bid.decisions}
        total += valuation(bid, ContractGrid(grid), z, tol=1e-7)
        if prices is not None:
            total -= payment(prices, ContractGrid(grid))
    return total


@settings(max_examples=40, deadline=None)
@given(markets())
def test_welfare_is_the_sum_of_valuations_at_the_allocation(market):
    bids, dims = market
    program = assemble_welfare(bids, dims)
    assert not any(label.startswith("pwl") for label in program.rows)
    searches = []

    def recorded(*args):  # clear's own calls, with what they returned
        searches.append((args, _best_cell(*args)))
        return searches[-1][1]

    with mock.patch.object(core, "_best_cell", recorded):
        result = clear(program)
    scale = max(1.0, abs(result.welfare))
    values = {}
    for bid in bids:
        allocation = result.allocations[bid.agent_id]
        values[bid.agent_id] = valuation(bid, allocation, result.decisions[bid.agent_id])
        assert np.isfinite(values[bid.agent_id]), bid.agent_id
        paid = payment(result.prices, allocation)
        assert result.surplus[bid.agent_id] == pytest.approx(
            values[bid.agent_id] - paid, abs=1e-9 * scale
        )
    assert result.welfare == pytest.approx(sum(values.values()), abs=1e-7 * scale)
    assert result.verification.balance_residual <= 1e-9 * scale
    # every search's value is its solution's value through valuation(), or
    # the incumbent's bound where an agent's search kept it; each unseeded
    # search over two or more binaries picked enumeration's cell, bit for bit.
    # A seeded search starts from a certified bound instead of its cell's LP
    # bits, so among cells that tie up to rounding another may win: it keeps
    # enumeration's value, at least that value less 1e-9 relative
    for args, found in searches:
        agent = args[1] if len(args) > 1 else None
        incumbent = args[3] if len(args) > 3 else None
        if found[2] is None:
            assert found[:2] == incumbent
        else:
            rebuilt = value_through_valuation(program, found, *args[1:3])
            assert found[0] == pytest.approx(rebuilt, abs=1e-7 * max(1.0, abs(rebuilt))), agent
        if incumbent is not None:
            value = best_cell_by_enumeration(*args[:3])[0]
            assert found[0] >= value - 1e-9 * max(1.0, abs(value)), agent
            assert found[0] == pytest.approx(value, abs=1e-7 * max(1.0, abs(value))), agent
            continue
        if sum(agent is None or a == agent for a, _ in program.binaries) < 2:
            continue  # one or no binary: the search solves enumeration's LPs
        expected = best_cell_by_enumeration(*args[:3])
        assert found[:2] == expected[:2]
        assert np.array_equal(found[2].x, expected[2].x)
        assert np.array_equal(found[2].duals, expected[2].duals)


@settings(max_examples=40, deadline=None)
@given(commitment_markets())
def test_every_search_picks_the_enumerated_cell(market):
    program = assemble_welfare(*market)
    assert len(program.binaries) <= 5
    prices = clear(program).prices
    for agent, at in [(None, None), *((a, prices) for a in range(len(program.bids)))]:
        assert_same_search(_best_cell(program, agent, at),
                           best_cell_by_enumeration(program, agent, at))
