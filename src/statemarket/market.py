"""State-contingent contracts, agent bids, and welfare-program assembly.

Sign conventions follow the contract definition: positive quantities are
withdrawal rights, negative quantities are injection obligations, and a
positive payment means the agent pays. Utilities are piecewise-linear concave
in the traded quantity per (node, period, state), optionally linked to
advance-commitment decisions through linear constraints.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyMarket, InconsistentDimensions

Coord = tuple[int, int, int]  # (node, period, state)

NEG_INF = float("-inf")
FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class MarketDimensions:
    """Contract index space: N nodes x T periods x S states."""

    nodes: int
    periods: int
    states: int
    state_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if min(self.nodes, self.periods, self.states) < 1:
            raise InconsistentDimensions(
                f"all dimensions must be >= 1, got {(self.nodes, self.periods, self.states)}"
            )
        if self.state_labels is not None and len(self.state_labels) != self.states:
            raise InconsistentDimensions(
                f"{len(self.state_labels)} labels for {self.states} states"
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nodes, self.periods, self.states)

    def coordinates(self) -> Iterable[Coord]:
        return itertools.product(range(self.nodes), range(self.periods), range(self.states))


@dataclass(frozen=True)
class ContractGrid:
    """Dense quantities or prices over (node, period, state)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 3:
            raise DimensionMismatch(f"expected a 3-D grid, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid entries must be finite")
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape


def payment(prices: ContractGrid, quantities: ContractGrid) -> float:
    """Upfront payment for a contract portfolio; positive means the agent pays."""
    if prices.shape != quantities.shape:
        raise DimensionMismatch(
            f"price grid {prices.shape} does not match quantity grid {quantities.shape}"
        )
    return float(np.sum(prices.values * quantities.values))


@dataclass(frozen=True)
class PiecewiseUtility:
    """Concave piecewise-linear utility of a traded quantity.

    Defined by breakpoints and utility values at them; the quantity must stay
    within [breakpoints[0], breakpoints[-1]] (a single breakpoint pins the
    quantity). Slopes must be non-increasing.
    """

    breakpoints: np.ndarray
    utilities: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.breakpoints, dtype=float).ravel()
        v = np.asarray(self.utilities, dtype=float).ravel()
        object.__setattr__(self, "breakpoints", q)
        object.__setattr__(self, "utilities", v)
        if q.size < 1 or q.size != v.size:
            raise ValueError("need matching, non-empty breakpoint and utility arrays")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(v))):
            raise ValueError("breakpoints and utilities must be finite")
        if np.any(np.diff(q) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        slopes = np.diff(v) / np.diff(q)
        if np.any(np.diff(slopes) > 1e-9):
            raise ValueError("utility must be concave (non-increasing slopes)")

    @property
    def lower(self) -> float:
        return float(self.breakpoints[0])

    @property
    def upper(self) -> float:
        return float(self.breakpoints[-1])

    def segments(self) -> list[tuple[float, float]]:
        """(width, slope) per linear piece, left to right."""
        widths = np.diff(self.breakpoints)
        slopes = np.diff(self.utilities) / widths
        return list(zip(widths.tolist(), slopes.tolist()))

    def value(self, quantity: float, tol: float = FEASIBILITY_TOL) -> float:
        """Utility at ``quantity``; -inf outside the trading interval (+/- tol)."""
        if quantity < self.lower - tol or quantity > self.upper + tol:
            return NEG_INF
        q = min(max(quantity, self.lower), self.upper)
        if self.breakpoints.size == 1:
            return float(self.utilities[0])
        pos = int(np.searchsorted(self.breakpoints, q, side="right"))
        pos = min(max(pos, 1), self.breakpoints.size - 1)
        left_q = self.breakpoints[pos - 1]
        left_v = self.utilities[pos - 1]
        slope = (self.utilities[pos] - left_v) / (self.breakpoints[pos] - left_q)
        return float(left_v + slope * (q - left_q))


@dataclass(frozen=True)
class Decision:
    """An advance-commitment variable: binary or box-bounded continuous.

    ``utility_coeff`` adds a linear term to the per-state utility (e.g. a
    negative commitment cost), identical across states.
    """

    name: str
    kind: str = "continuous"
    lower: float = 0.0
    upper: float = 1.0
    utility_coeff: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("binary", "continuous"):
            raise ValueError(f"unknown decision kind {self.kind!r}")
        if self.kind == "binary":
            object.__setattr__(self, "lower", 0.0)
            object.__setattr__(self, "upper", 1.0)
        elif not (self.lower <= self.upper and self.lower < np.inf and self.upper > -np.inf):
            raise ValueError(f"decision {self.name!r} has empty range [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class LinkingConstraint:
    """Linear constraint over one agent's quantities and decisions."""

    x_terms: tuple[tuple[Coord, float], ...]
    z_terms: tuple[tuple[str, float], ...]
    sense: str
    rhs: float

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "="):
            raise ValueError(f"unknown sense {self.sense!r}")


@dataclass(frozen=True)
class AgentBid:
    """One agent's reported valuation of state-contingent contracts.

    Coordinates without a declared utility are not tradable by the agent
    (quantity pinned to zero). Beliefs are per-state subjective probabilities;
    ``risk`` selects how per-state utilities aggregate.
    """

    agent_id: str
    beliefs: np.ndarray
    risk: str = "expectation"
    utilities: dict[Coord, PiecewiseUtility] = field(default_factory=dict)
    decisions: tuple[Decision, ...] = ()
    constraints: tuple[LinkingConstraint, ...] = ()

    def __post_init__(self) -> None:
        beliefs = np.asarray(self.beliefs, dtype=float).ravel()
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "decisions", tuple(self.decisions))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.risk not in ("expectation", "worst_case"):
            raise ValueError(f"unknown risk functional {self.risk!r}")
        if np.any(beliefs < 0.0) or abs(float(beliefs.sum()) - 1.0) > 1e-12:
            raise ValueError(
                f"agent {self.agent_id!r}: beliefs must be non-negative and sum to 1"
            )
        names = [d.name for d in self.decisions]
        if len(set(names)) != len(names):
            raise ValueError(f"agent {self.agent_id!r}: duplicate decision names")
        known = set(names)
        for constraint in self.constraints:
            for name, _ in constraint.z_terms:
                if name not in known:
                    raise ValueError(
                        f"agent {self.agent_id!r}: constraint references unknown decision {name!r}"
                    )

    @property
    def num_states(self) -> int:
        return self.beliefs.shape[0]


def _state_utilities(
    bid: AgentBid,
    x: np.ndarray,
    z: Mapping[str, float],
    tol: float,
) -> np.ndarray | None:
    """Per-state utilities at (z, x); None when the combination is infeasible."""
    states = x.shape[2]
    decision_part = 0.0
    for d in bid.decisions:
        value = float(z[d.name])
        if d.kind == "binary":
            if min(abs(value), abs(value - 1.0)) > tol:
                return None
        elif value < d.lower - tol or value > d.upper + tol:
            return None
        decision_part += d.utility_coeff * value

    for constraint in bid.constraints:
        activity = sum(c * x[coord] for coord, c in constraint.x_terms)
        activity += sum(c * float(z[name]) for name, c in constraint.z_terms)
        if constraint.sense == "<=" and activity > constraint.rhs + tol:
            return None
        if constraint.sense == ">=" and activity < constraint.rhs - tol:
            return None
        if constraint.sense == "=" and abs(activity - constraint.rhs) > tol:
            return None

    utilities = np.full(states, decision_part)
    declared = set(bid.utilities)
    for coord in np.ndindex(x.shape):
        if coord in declared:
            piece = bid.utilities[coord].value(x[coord], tol)
            if piece == NEG_INF:
                return None
            utilities[coord[2]] += piece
        elif abs(x[coord]) > tol:
            return None  # not tradable by this agent
    return utilities


def valuation(
    bid: AgentBid,
    x: ContractGrid | np.ndarray,
    z: Mapping[str, float] | None = None,
    tol: float = FEASIBILITY_TOL,
) -> float:
    """Risk-adjusted utility of holding portfolio ``x`` with decisions ``z``.

    Returns -inf when any trading interval, decision bound, or linking
    constraint is violated (infeasible combination). Expectation aggregates
    with the agent's own beliefs; worst_case takes the minimum over states.
    """
    grid = x.values if isinstance(x, ContractGrid) else np.asarray(x, dtype=float)
    if grid.ndim != 3:
        raise DimensionMismatch(f"expected (node, period, state) quantities, got {grid.shape}")
    if grid.shape[2] != bid.num_states:
        raise DimensionMismatch(
            f"quantities have {grid.shape[2]} states, bid has {bid.num_states}"
        )
    z = dict(z or {})
    missing = [d.name for d in bid.decisions if d.name not in z]
    if missing:
        raise DimensionMismatch(f"missing decision values {missing}")
    utilities = _state_utilities(bid, grid, z, tol)
    if utilities is None:
        return NEG_INF
    if bid.risk == "expectation":
        return float(bid.beliefs @ utilities)
    return float(np.min(utilities))


# --- welfare program ---------------------------------------------------------

@dataclass(frozen=True)
class WelfareProgram:
    """The central welfare maximization problem as read-only arrays.

    Each agent's columns and rows form one block (``agent_columns``,
    ``agent_rows``); one balance row per traded (n, t, s) follows them. Every
    traded quantity is ``lower + sum(delta)``: ``quantities`` maps (agent,
    coord) to that lower end and the segment columns. ``rhs`` has every binary
    at 0, and setting binary b to 1 subtracts column b of ``binary_matrix``.
    ``column_contract`` is the flat price-grid index a segment column trades,
    -1 elsewhere. ``rows`` (labels) and ``variables`` (owning agent of each
    column) are kept for the benchmark harness.
    """

    bids: tuple[AgentBid, ...]
    dims: MarketDimensions
    binaries: tuple[tuple[int, str], ...]
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    matrix: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    binary_matrix: np.ndarray
    column_contract: np.ndarray
    agent_columns: tuple[slice, ...]
    agent_rows: tuple[slice, ...]
    rows: tuple[str, ...]
    variables: np.ndarray
    balance_rows: dict[Coord, int]
    quantities: dict[tuple[int, Coord], tuple[float, tuple[int, ...]]]
    decision_index: dict[tuple[int, str], int]
    agent_constants: tuple[float, ...]
    objective_constant: float
    binary_objective: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False  # LPs hold slices of these

    @property
    def num_enumeration_cells(self) -> int:
        return 1 << len(self.binaries)


def _summed(shape: tuple[int, int], entries: list[tuple[int, int, float]]) -> np.ndarray:
    """Dense array of (row, column, coeff) entries; repeated positions add up
    in list order."""
    out = np.zeros(shape)
    index = np.array([e[:2] for e in entries], dtype=int).reshape(-1, 2)
    np.add.at(out, (index[:, 0], index[:, 1]), [e[2] for e in entries])
    return out


def _unzip(table: list[tuple], k: int, dtype=float) -> np.ndarray:
    """Entry ``k`` of every tuple in ``table``, as an array."""
    return np.array([entry[k] for entry in table], dtype=dtype)


def assemble_welfare(bids: Sequence[AgentBid], dims: MarketDimensions) -> WelfareProgram:
    """Assemble the central program: agent feasibility blocks plus balance rows.

    With all binaries fixed the continuous relaxation is an LP: concave
    piecewise utilities enter through bounded segment variables whose slopes
    are non-increasing, so they fill in order automatically under maximization.
    Quantities are substituted as ``lower + sum(delta)`` into the balance and
    linking rows, so the pinned part ``lower`` moves into their right-hand
    sides. Row terms are collected as (row, column, coeff) triplets and summed
    into the matrix once, row by row and term by term.
    """
    bids = tuple(bids)
    if not bids:
        raise EmptyMarket("no bids to clear")
    ids = [b.agent_id for b in bids]
    if len(set(ids)) != len(ids):
        raise InconsistentDimensions(f"duplicate agent ids in {ids}")
    for bid in bids:
        if bid.num_states != dims.states:
            raise InconsistentDimensions(
                f"agent {bid.agent_id!r} has {bid.num_states} states, market has {dims.states}"
            )
        for coord in bid.utilities:
            if not all(0 <= c < n for c, n in zip(coord, dims.shape)):
                raise InconsistentDimensions(
                    f"agent {bid.agent_id!r} bids on {coord}, outside {dims.shape}"
                )
        for constraint in bid.constraints:
            for c_coord, _ in constraint.x_terms:
                if c_coord not in bid.utilities:
                    raise InconsistentDimensions(
                        f"agent {bid.agent_id!r} constrains untradable coordinate {c_coord}"
                    )

    binaries: list[tuple[int, str]] = []
    binary_pos: dict[tuple[int, str], int] = {}
    for a, bid in enumerate(bids):
        for d in bid.decisions:
            if d.kind == "binary":
                binary_pos[(a, d.name)] = len(binaries)
                binaries.append((a, d.name))

    # columns hold (agent, lower, upper, objective, contract), rows (label, sense, rhs)
    columns: list[tuple[int, float, float, float, int]] = []
    rows: list[tuple[str, str, float]] = []
    entries: list[tuple[int, int, float]] = []  # (row, column, coeff)
    binary_entries: list[tuple[int, int, float]] = []  # (row, binary, coeff)
    agent_columns: list[slice] = []
    agent_rows: list[slice] = []
    quantities: dict[tuple[int, Coord], tuple[float, tuple[int, ...]]] = {}
    decision_index: dict[tuple[int, str], int] = {}
    agent_constants: list[float] = []
    binary_objective: dict[int, float] = {}

    def add_var(agent, lower, upper, objective, contract=-1) -> int:
        columns.append((agent, lower, upper, objective, contract))
        return len(columns) - 1

    def add_row(label, terms, sense, rhs, binary_terms=()) -> int:
        i = len(rows)
        rows.append((label, sense, rhs))
        entries.extend((i, j, c) for j, c in terms)
        binary_entries.extend((i, b, c) for b, c in binary_terms)
        return i

    for a, bid in enumerate(bids):
        first_column, first_row = len(columns), len(rows)
        expectation = bid.risk == "expectation"
        # worst-case agents maximize an epigraph variable under per-state rows
        epi = None if expectation else add_var(a, -np.inf, np.inf, 1.0)
        state_offsets = np.zeros(dims.states)  # constants inside each state's utility
        state_terms: list[list[tuple[int, float]]] = [[] for _ in range(dims.states)]

        for coord in sorted(bid.utilities):
            piece = bid.utilities[coord]
            state = coord[2]
            state_offsets[state] += piece.value(piece.lower)
            contract = (coord[0] * dims.periods + coord[1]) * dims.states + state  # flat
            deltas = []
            for width, slope in piece.segments():
                weight = bid.beliefs[state] * slope if expectation else 0.0
                deltas.append(add_var(a, 0.0, width, weight, contract))
                if not expectation:
                    state_terms[state].append((deltas[-1], slope))
            quantities[(a, coord)] = (piece.lower, tuple(deltas))

        for d in bid.decisions:
            if d.kind == "binary":
                b = binary_pos[(a, d.name)]
                if expectation:
                    # beliefs sum to 1, so the per-state coefficient collapses
                    binary_objective[b] = binary_objective.get(b, 0.0) + d.utility_coeff
                continue
            weight = d.utility_coeff if expectation else 0.0
            z_var = add_var(a, d.lower, d.upper, weight)
            decision_index[(a, d.name)] = z_var
            if not expectation and d.utility_coeff != 0.0:
                for s in range(dims.states):
                    state_terms[s].append((z_var, d.utility_coeff))

        if expectation:
            agent_constants.append(float(bid.beliefs @ state_offsets))
        else:
            agent_constants.append(0.0)
            binary_terms = [
                (binary_pos[(a, d.name)], -d.utility_coeff)
                for d in bid.decisions
                if d.kind == "binary" and d.utility_coeff != 0.0
            ]
            for s in range(dims.states):
                terms = [(epi, 1.0)] + [(v, -c) for v, c in state_terms[s]]
                add_row(f"worstcase:{bid.agent_id}:{s}", terms, "<=",
                        float(state_offsets[s]), binary_terms)

        for i, constraint in enumerate(bid.constraints):
            terms = []
            rhs = constraint.rhs
            for coord, c in constraint.x_terms:
                lower, deltas = quantities[(a, coord)]
                terms += [(d, c) for d in deltas]
                rhs -= c * lower
            binary_terms = []
            for name, c in constraint.z_terms:
                if (a, name) in binary_pos:
                    binary_terms.append((binary_pos[(a, name)], c))
                else:
                    terms.append((decision_index[(a, name)], c))
            add_row(f"link:{bid.agent_id}:{i}", terms, constraint.sense, rhs, binary_terms)
        agent_columns.append(slice(first_column, len(columns)))
        agent_rows.append(slice(first_row, len(rows)))

    balance_rows: dict[Coord, int] = {}
    for coord in dims.coordinates():
        traders = [quantities[(a, coord)] for a in range(len(bids)) if (a, coord) in quantities]
        if not traders:
            continue  # nobody trades this contract; its price is reported as 0
        # kept even without terms: pinned quantities must still net to zero
        rhs = 0.0
        for lower, _ in traders:
            rhs -= lower
        terms = [(d, 1.0) for _, deltas in traders for d in deltas]
        balance_rows[coord] = add_row(f"balance:{coord}", terms, "=", rhs)

    m, n = len(rows), len(columns)
    return WelfareProgram(
        bids=bids,
        dims=dims,
        binaries=tuple(binaries),
        objective=_unzip(columns, 3),
        lower=_unzip(columns, 1),
        upper=_unzip(columns, 2),
        matrix=_summed((m, n), entries),
        senses=_unzip(rows, 1, "U2"),
        rhs=_unzip(rows, 2),
        binary_matrix=_summed((m, len(binaries)), binary_entries),
        column_contract=_unzip(columns, 4, int),
        agent_columns=tuple(agent_columns),
        agent_rows=tuple(agent_rows),
        rows=tuple(row[0] for row in rows),
        variables=_unzip(columns, 0, int),
        balance_rows=balance_rows,
        quantities=quantities,
        decision_index=decision_index,
        agent_constants=tuple(agent_constants),
        objective_constant=float(sum(agent_constants)),
        binary_objective=tuple(sorted(binary_objective.items())),
    )


# --- JSON bid format ---------------------------------------------------------

def _utility_from_json(entry: dict) -> tuple[Coord, PiecewiseUtility]:
    coord = (int(entry["node"]), int(entry["period"]), int(entry["state"]))
    points = entry["points"]
    return coord, PiecewiseUtility(
        np.asarray([p[0] for p in points], dtype=float),
        np.asarray([p[1] for p in points], dtype=float),
    )


def _constraint_from_json(entry: dict) -> LinkingConstraint:
    x_terms = tuple(
        ((int(t["node"]), int(t["period"]), int(t["state"])), float(t["coeff"]))
        for t in entry.get("x", [])
    )
    z_terms = tuple((str(t["name"]), float(t["coeff"])) for t in entry.get("z", []))
    return LinkingConstraint(x_terms, z_terms, entry["sense"], float(entry["rhs"]))


def load_bids_json(path: str | Path) -> tuple[list[AgentBid], MarketDimensions]:
    """Read a bid file (schema documented in the README)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    try:
        dims_entry = payload.get("dimensions", {})
        labels = payload.get("state_labels")
        dims = MarketDimensions(
            nodes=int(dims_entry.get("nodes", 1)),
            periods=int(dims_entry.get("periods", 1)),
            states=int(dims_entry["states"]),
            state_labels=tuple(labels) if labels else None,
        )
        bids = []
        for agent in payload.get("agents", []):
            utilities = dict(_utility_from_json(u) for u in agent.get("utilities", []))
            decisions = tuple(
                Decision(
                    name=str(d["name"]),
                    kind=str(d.get("kind", "continuous")),
                    lower=float(d.get("lower", 0.0)),
                    upper=float(d.get("upper", 1.0)),
                    utility_coeff=float(d.get("utility_coeff", 0.0)),
                )
                for d in agent.get("decisions", [])
            )
            constraints = tuple(
                _constraint_from_json(c) for c in agent.get("constraints", [])
            )
            bids.append(
                AgentBid(
                    agent_id=str(agent["id"]),
                    beliefs=np.asarray(agent["beliefs"], dtype=float),
                    risk=str(agent.get("risk", "expectation")),
                    utilities=utilities,
                    decisions=decisions,
                    constraints=constraints,
                )
            )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed bid file ({exc!r})") from None
    if not bids:
        raise EmptyMarket(f"{path} declares no agents")
    return bids, dims
