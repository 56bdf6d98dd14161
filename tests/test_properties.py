"""Property tests of the welfare program over random markets.

Markets mix expectation and worst-case agents, single-breakpoint (pinned)
quantities, linking constraints with non-zero lower ends, and an optional
binary commitment, so every substitution of ``lower + sum(delta)`` into a
row is exercised.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statemarket.clearing import clear
from statemarket.market import (
    AgentBid,
    Decision,
    LinkingConstraint,
    MarketDimensions,
    PiecewiseUtility,
    assemble_welfare,
    payment,
    valuation,
)


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
    # a binary unit: may only produce when on, and pays a fixed cost for it
    if draw(st.booleans()):
        cap = float(draw(st.integers(2, 8)))
        cost = draw(st.floats(5.0, 60.0))
        utilities = {c: PiecewiseUtility([-cap, 0.0], [-cost * cap, 0.0]) for c in coords}
        constraints = tuple(LinkingConstraint(((c, 1.0),), (("on", cap),), ">=", 0.0) for c in coords)
        decisions = (Decision("on", "binary", utility_coeff=-draw(st.floats(0.0, 50.0))),)
        bids.append(
            AgentBid("unit", draw(beliefs(states)), draw(risk), utilities, decisions, constraints)
        )
    return bids, dims


@settings(max_examples=40, deadline=None)
@given(markets())
def test_welfare_is_the_sum_of_valuations_at_the_allocation(market):
    bids, dims = market
    program = assemble_welfare(bids, dims)
    assert not any(label.startswith("pwl") for label in program.rows)
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
