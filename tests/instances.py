"""Shared test instances: golden markets from the worked examples,
seeded generators of random convex and commitment markets, and seeded LPs
for the simplex."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from statemarket.clearing import LinearProgram, build_lp
from statemarket.market import (
    AgentBid,
    Decision,
    LinkingConstraint,
    MarketDimensions,
    PiecewiseUtility,
    assemble_welfare,
)

TWO_STATE = MarketDimensions(1, 1, 2, state_labels=("high wind", "low wind"))


def price_formation_bids(pi1: float = 0.5):
    """Three-agent market: free wind, an 11 MWh load valuing 100, and a
    5 MWh must-commit generator at cost 50."""
    beliefs = np.array([pi1, 1.0 - pi1])
    wind = AgentBid(
        "wind_farm",
        beliefs,
        "expectation",
        utilities={
            (0, 0, 0): PiecewiseUtility([-10.0, 0.0], [0.0, 0.0]),
            (0, 0, 1): PiecewiseUtility([-5.0, 0.0], [0.0, 0.0]),
        },
    )
    load = AgentBid(
        "load",
        beliefs,
        "expectation",
        utilities={
            (0, 0, 0): PiecewiseUtility([0.0, 11.0], [0.0, 1100.0]),
            (0, 0, 1): PiecewiseUtility([0.0, 11.0], [0.0, 1100.0]),
        },
    )
    generator = AgentBid(
        "advance_generator",
        beliefs,
        "expectation",
        utilities={
            (0, 0, 0): PiecewiseUtility([-5.0, 0.0], [-250.0, 0.0]),
            (0, 0, 1): PiecewiseUtility([-5.0, 0.0], [-250.0, 0.0]),
        },
        decisions=(Decision("output", "continuous", -5.0, 0.0),),
        constraints=(
            LinkingConstraint((((0, 0, 0), 1.0),), (("output", -1.0),), "=", 0.0),
            LinkingConstraint((((0, 0, 1), 1.0),), (("output", -1.0),), "=", 0.0),
        ),
    )
    return [wind, load, generator], TWO_STATE


# Expected rows of the price-formation sweep:
# pi1 -> (x11, x12, x21, x22, z3, lambda1, lambda2)
PRICE_FORMATION_TABLE = {
    0.0: (0.0, -5.0, 5.0, 10.0, -5.0, 0.0, 100.0),
    0.1: (-6.0, -5.0, 11.0, 10.0, -5.0, 0.0, 90.0),
    0.2: (-6.0, -5.0, 11.0, 10.0, -5.0, 0.0, 80.0),
    0.3: (-6.0, -5.0, 11.0, 10.0, -5.0, 0.0, 70.0),
    0.4: (-6.0, -5.0, 11.0, 10.0, -5.0, 0.0, 60.0),
    0.5: (-6.0, -5.0, 11.0, 10.0, -5.0, 0.0, 50.0),
    0.6: (-10.0, -5.0, 11.0, 6.0, -1.0, 10.0, 40.0),
    0.7: (-10.0, -5.0, 11.0, 6.0, -1.0, 20.0, 30.0),
    0.8: (-10.0, -5.0, 11.0, 6.0, -1.0, 30.0, 20.0),
    0.9: (-10.0, -5.0, 11.0, 6.0, -1.0, 40.0, 10.0),
    1.0: (-10.0, -5.0, 11.0, 6.0, -1.0, 50.0, 0.0),
}
DEGENERATE_PI1 = (0.0, 0.5, 1.0)


def thermal_plant_bid(risk: str) -> AgentBid:
    """10-20 MWh block at 30/MWh behind a binary commitment (injections are
    negative, so online means x in [-20, -10])."""
    return AgentBid(
        "thermal_plant",
        np.array([0.5, 0.5]),
        risk,
        utilities={
            (0, 0, 0): PiecewiseUtility([-20.0, 0.0], [-600.0, 0.0]),
            (0, 0, 1): PiecewiseUtility([-20.0, 0.0], [-600.0, 0.0]),
        },
        decisions=(Decision("on", "binary"),),
        constraints=(
            LinkingConstraint((((0, 0, 0), 1.0),), (("on", 10.0),), "<=", 0.0),
            LinkingConstraint((((0, 0, 0), 1.0),), (("on", 20.0),), ">=", 0.0),
            LinkingConstraint((((0, 0, 1), 1.0),), (("on", 10.0),), "<=", 0.0),
            LinkingConstraint((((0, 0, 1), 1.0),), (("on", 20.0),), ">=", 0.0),
        ),
    )


def commitment_bids(risk: str):
    """Thermal plant against an elastic buyer whose expected marginal values
    pin equilibrium prices at (10, 20)."""
    buyer = AgentBid(
        "buyer",
        np.array([0.5, 0.5]),
        "expectation",
        utilities={
            (0, 0, 0): PiecewiseUtility([0.0, 30.0], [0.0, 600.0]),
            (0, 0, 1): PiecewiseUtility([0.0, 30.0], [0.0, 1200.0]),
        },
    )
    return [thermal_plant_bid(risk), buyer], TWO_STATE


def _producer(rng, agent_id, states, periods) -> AgentBid:
    utilities = {}
    for t in range(periods):
        for s in range(states):
            cap = float(rng.integers(5, 20))
            knee = cap * float(rng.uniform(0.3, 0.7))
            cheap = float(rng.uniform(5.0, 40.0))
            steep = cheap + float(rng.uniform(0.0, 40.0))
            utilities[(0, t, s)] = PiecewiseUtility(
                [-cap, -knee, 0.0],
                [-(cheap * knee + steep * (cap - knee)), -cheap * knee, 0.0],
            )
    return AgentBid(agent_id, _beliefs(rng, states), _risk(rng), utilities=utilities)


def _consumer(rng, agent_id, states, periods) -> AgentBid:
    utilities = {}
    for t in range(periods):
        for s in range(states):
            cap = float(rng.integers(5, 20))
            knee = cap * float(rng.uniform(0.3, 0.7))
            high = float(rng.uniform(60.0, 120.0))
            low = high - float(rng.uniform(0.0, 50.0))
            utilities[(0, t, s)] = PiecewiseUtility(
                [0.0, knee, cap],
                [0.0, high * knee, high * knee + low * (cap - knee)],
            )
    return AgentBid(agent_id, _beliefs(rng, states), _risk(rng), utilities=utilities)


def _committer(rng, agent_id, states, periods) -> AgentBid:
    """Generator that must fix one output level across all states."""
    cap = float(rng.integers(2, 8))
    cost = float(rng.uniform(20.0, 60.0))
    utilities = {}
    constraints = []
    for t in range(periods):
        for s in range(states):
            utilities[(0, t, s)] = PiecewiseUtility([-cap, 0.0], [-cost * cap, 0.0])
            constraints.append(
                LinkingConstraint(
                    (((0, t, s), 1.0),), ((f"level_{t}", -1.0),), "=", 0.0
                )
            )
    decisions = tuple(
        Decision(f"level_{t}", "continuous", -cap, 0.0) for t in range(periods)
    )
    return AgentBid(
        agent_id,
        _beliefs(rng, states),
        "expectation",
        utilities=utilities,
        decisions=decisions,
        constraints=tuple(constraints),
    )


def _beliefs(rng, states) -> np.ndarray:
    raw = rng.random(states) + 0.2
    return raw / raw.sum()


def _risk(rng) -> str:
    return "worst_case" if rng.random() < 0.25 else "expectation"


def random_convex_market(seed: int):
    """Seeded convex market: 2-5 agents, 2-4 states, no binaries.

    Always contains at least one producer and one consumer per period so that
    trade is possible; every trading interval contains zero, so sitting out
    is feasible for every agent (individual rationality applies).
    """
    rng = np.random.default_rng(seed)
    states = int(rng.integers(2, 5))
    periods = int(rng.integers(1, 3))
    dims = MarketDimensions(1, periods, states)
    bids = [
        _producer(rng, "producer_0", states, periods),
        _consumer(rng, "consumer_0", states, periods),
    ]
    for extra in range(int(rng.integers(0, 4))):
        kind = rng.random()
        if kind < 0.4:
            bids.append(_producer(rng, f"producer_{extra + 1}", states, periods))
        elif kind < 0.8:
            bids.append(_consumer(rng, f"consumer_{extra + 1}", states, periods))
        else:
            bids.append(_committer(rng, f"committer_{extra + 1}", states, periods))
    return bids, dims


def reserving_market(seed: int, risk: str):
    """``random_convex_market`` plus a producer with the given risk attitude
    that reserves injection capacity ahead of time at a cost per MWh: a
    continuous decision ``reserve`` in [-cap, 0] with a positive
    ``utility_coeff``, which no injection may exceed."""
    bids, dims = random_convex_market(seed)
    rng = np.random.default_rng([seed, 1])
    cap = float(rng.integers(5, 15))
    cost = float(rng.uniform(5.0, 50.0))
    utilities, constraints = {}, []
    for t in range(dims.periods):
        for s in range(dims.states):
            utilities[(0, t, s)] = PiecewiseUtility([-cap, 0.0], [-cost * cap, 0.0])
            constraints.append(
                LinkingConstraint((((0, t, s), 1.0),), (("reserve", -1.0),), ">=", 0.0)
            )
    reserve = Decision("reserve", "continuous", -cap, 0.0,
                       utility_coeff=float(rng.uniform(1.0, 20.0)))
    bids.append(AgentBid("reserver", _beliefs(rng, dims.states), risk, utilities,
                         (reserve,), tuple(constraints)))
    return bids, dims


def _thermal_unit(rng, agent_id, states, risk, boost=False) -> AgentBid:
    """Binary unit: off, or online between a minimum and a maximum output at
    a fixed cost (injections are negative). With ``boost``, a second binary
    that needs ``on`` adds capacity at a fixed cost of its own."""
    lo = float(rng.uniform(6.0, 11.0))
    hi = lo + float(rng.uniform(4.0, 10.0))
    extra = float(rng.uniform(3.0, 8.0)) if boost else 0.0
    marginal = float(rng.uniform(20.0, 60.0))
    decisions = [Decision("on", "binary", utility_coeff=-float(rng.uniform(50.0, 300.0)))]
    if boost:
        boost_cost = float(rng.uniform(20.0, 150.0))
        decisions.append(Decision("boost", "binary", utility_coeff=-boost_cost))
    utilities, constraints = {}, []
    for s in range(states):
        coord = (0, 0, s)
        top = hi + extra
        utilities[coord] = PiecewiseUtility([-top, 0.0], [-marginal * top, 0.0])
        constraints.append(LinkingConstraint(((coord, 1.0),), (("on", lo),), "<=", 0.0))
        z_terms = (("on", hi), ("boost", extra)) if boost else (("on", hi),)
        constraints.append(LinkingConstraint(((coord, 1.0),), z_terms, ">=", 0.0))
    if boost:
        constraints.append(LinkingConstraint((), (("boost", 1.0), ("on", -1.0)), "<=", 0.0))
    return AgentBid(agent_id, _beliefs(rng, states), risk, utilities,
                    tuple(decisions), tuple(constraints))


def random_commitment_market(seed: int):
    """Seeded commitment market: 2-8 binary thermal units, about a third of
    them exact twins of the unit before (so cells tie exactly), the last one
    with a second "boost" binary, against 1-3 consumers and maybe a producer;
    1 node, 1 period, 1-3 states. Every unit off is feasible."""
    rng = np.random.default_rng(seed)
    states = int(rng.integers(1, 4))
    units = int(rng.integers(2, 9))
    bids = []
    for u in range(units):
        if 0 < u < units - 1 and rng.random() < 0.35:
            bids.append(replace(bids[-1], agent_id=f"unit_{u}"))
        else:
            bids.append(_thermal_unit(rng, f"unit_{u}", states, _risk(rng), boost=u == units - 1))
    for c in range(int(rng.integers(1, 4))):
        bids.append(_consumer(rng, f"consumer_{c}", states, 1))
    if rng.random() < 0.5:
        bids.append(_producer(rng, "producer", states, 1))
    return bids, MarketDimensions(1, 1, states)


def infeasible_commitment_market(seed: int):
    """``random_commitment_market`` whose boosted unit must have on + boost
    >= 3: no cell is feasible, for the welfare and for that unit alone."""
    bids, dims = random_commitment_market(seed)
    rule = LinkingConstraint((), (("on", 1.0), ("boost", 1.0)), ">=", 3.0)
    i = _boosted(bids)
    bids[i] = replace(bids[i], constraints=bids[i].constraints + (rule,))
    return bids, dims


def unbounded_commitment_market(seed: int):
    """``random_commitment_market`` whose boosted unit also values an
    unbounded continuous decision: every feasible cell is unbounded, for the
    welfare and for that unit alone."""
    bids, dims = random_commitment_market(seed)
    spill = Decision("spill", "continuous", 0.0, np.inf, utility_coeff=1.0)
    i = _boosted(bids)
    bids[i] = replace(bids[i], decisions=bids[i].decisions + (spill,))
    return bids, dims


def _boosted(bids) -> int:
    return next(i for i, bid in enumerate(bids) if len(bid.decisions) == 2)


# --- seeded LPs ---------------------------------------------------------------

def random_lp(rng, max_vars=8, max_rows=6):
    """Boxed, one-sided, free and fixed columns; some rows repeated exactly.

    Coefficients on a 0.1 grid make degenerate vertices and ratio ties common.
    """
    n = int(rng.integers(1, max_vars + 1))
    kind = rng.integers(0, 5, n)  # boxed, lower only, upper only, free, fixed
    lower = rng.uniform(-5, 0, n).round(1)
    upper = lower + rng.uniform(0.5, 6, n).round(1)
    lower = np.where((kind == 2) | (kind == 3), -np.inf, lower)
    upper = np.where((kind == 1) | (kind == 3), np.inf, np.where(kind == 4, lower, upper))
    rows, senses, rhs = [], [], []
    for _ in range(int(rng.integers(0, max_rows + 1))):
        idx = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        row = np.zeros(n)
        row[idx] += rng.uniform(-2, 2, idx.size).round(1)
        rows.append(row)
        senses.append(("<=", ">=", "=")[int(rng.integers(0, 3))])
        rhs.append(round(float(rng.uniform(-4, 4)), 1))
        if rng.random() < 0.2:
            rows.append(row)
            senses.append(senses[-1])
            rhs.append(rhs[-1])
    sense = "max" if rng.random() < 0.5 else "min"
    return LinearProgram(rng.uniform(-3, 3, n).round(1), lower, upper,
                         np.array(rows).reshape(-1, n), np.array(senses, dtype="U2"),
                         np.array(rhs), sense)


LONG_SEEDS = (0, 5, 6, 7, 8, 9)


def long_lp(seed, rows=50, columns=100):
    """Nonnegative columns without upper bounds, so no pivot is a bound flip.
    Infeasible; each of LONG_SEEDS takes more than 2 * REFACTOR_EVERY pivots
    to prove it."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0, 1, (rows, columns)) * (rng.random((rows, columns)) < 0.6)
    senses = ["<="] * (rows - rows // 3) + [">="] * (rows // 3)
    rhs = rng.uniform(1, 10, rows)
    objective = rng.uniform(0, 3, columns)
    return LinearProgram(objective, np.zeros(columns), np.full(columns, np.inf),
                         matrix, np.array(senses), rhs)


def ladder_lp(agents, states, periods, seed):
    """Welfare LP of alternating producers and consumers, 1 node, no binaries."""
    rng = np.random.default_rng(seed)
    bids = [
        (_producer if a % 2 == 0 else _consumer)(rng, f"agent_{a}", states, periods)
        for a in range(agents)
    ]
    return build_lp(assemble_welfare(bids, MarketDimensions(1, periods, states)), ())
