"""Welfare maximization, equilibrium prices, and property verification.

Binary commitments (at most MAX_BINARIES) are cleared by an exact
depth-first branch and bound (Land & Doig 1960), whose rules ``_best_cell``
states. Each assignment of the binaries, a cell, yields an LP whose optimum,
objective constant included, is the cell's welfare and whose balance-row
duals are the candidate contract prices. Every relaxation is the root
relaxation with the set binaries fixed by bounds, warm-started from the
nearest optimal relaxation above it. The search dives toward the rounding
of each relaxation it solves and drops only subtrees in which no cell could
have won, so the winner and its LP are those that enumerating every cell
would give, exact ties going to the lexicographically smallest
binary vector. For purely convex programs the outcome is a Walrasian
equilibrium; with binaries the verification report surfaces any agent that
could deviate profitably at the posted prices. The report bounds each
agent's best response from the winning LP's duals by weak duality, and
solves the agent's LP only where that bound does not confirm (``_verify``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from ..errors import Infeasible, NumericalFailure, TooManyBinaries, Unbounded
from ..market import (
    AgentBid,
    ContractGrid,
    MarketDimensions,
    WelfareProgram,
    assemble_welfare,
    payment,
    valuation,
)
from .simplex import PIVOT_TOL, ColumnState, LinearProgram, LPResult, solve_lp

MAX_BINARIES = 20
DEFAULT_TOL = 1e-6
PRUNE_MARGIN = 1e-9  # a bound prunes only below incumbent - margin * max(1, |incumbent|)


@dataclass(frozen=True)
class VerificationReport:
    """Equilibrium diagnostics: residuals and per-agent best-response gaps."""

    balance_residual: float
    budget_residual: float
    gaps: dict[str, float]
    best_responses: dict[str, float]
    achieved: dict[str, float]
    negative_surplus_agents: tuple[str, ...]
    tolerance: float
    confirmed: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ClearingResult:
    """Equilibrium allocation, prices, decisions, welfare, and verification."""

    dims: MarketDimensions
    agent_ids: tuple[str, ...]
    allocations: dict[str, ContractGrid]
    decisions: dict[str, dict[str, float]]
    prices: ContractGrid
    welfare: float
    surplus: dict[str, float]
    verification: VerificationReport

    def to_dict(self) -> dict:
        return {
            "dimensions": {
                "nodes": self.dims.nodes,
                "periods": self.dims.periods,
                "states": self.dims.states,
            },
            "agents": list(self.agent_ids),
            "allocations": {a: g.values.tolist() for a, g in self.allocations.items()},
            "decisions": {a: dict(z) for a, z in self.decisions.items()},
            "prices": self.prices.values.tolist(),
            "welfare": self.welfare,
            "surplus": dict(self.surplus),
            "verification": self.verification.to_dict(),
        }


def build_lp(
    program: WelfareProgram,
    binary_values: Sequence[int],
    agent: int | None = None,
    prices: ContractGrid | None = None,
    free: Sequence[int] = (),
) -> LinearProgram:
    """LP for one commitment cell, sliced from the program's arrays.

    Its rhs is the program's less column b of ``binary_matrix`` for each set
    binary b, in ascending b. With ``agent`` set, the LP is that agent's block
    alone (its columns and rows, no balance rows). With ``prices`` set, each
    segment column also pays the price of its contract, so the objective is
    valuation minus payment. Each binary in ``free`` (0 in ``binary_values``)
    appends a [0, 1] column, in the given order: its column of
    ``binary_matrix`` and summed ``binary_objective`` coefficient, unpriced.
    The LP's constant is the base utility of every agent, or only ``agent``,
    plus its set binaries' terms, less the payment on its pinned lower ends
    when ``prices`` is set. So the optimum is the cell's value; with ``free``,
    it bounds every cell that fixes those binaries.

    The program was checked when it was made (``WelfareProgram``), so the
    LP is made unchecked (``LinearProgram._unchecked``): its bounds are the
    program's or [0, 1], its senses and matrix entries the program's. Only
    what is computed here from other data can fail, and is checked with
    ``LinearProgram``'s messages: the objective and constant, which take the
    prices and the binaries' summed gains, and the rhs, which takes the
    binary shift; a sum or difference of finite floats can overflow.
    """
    rows = columns = slice(None)
    if agent is not None:
        rows, columns = program.agent_rows[agent], program.agent_columns[agent]
    objective = program.objective[columns]
    base = program.objective_constant if agent is None else program.agent_constants[agent]
    constant = base + sum(c * binary_values[b] for b, c in program.binary_objective
                          if agent is None or program.binaries[b][0] == agent)
    if prices is not None:
        contract = program.column_contract[columns]
        objective = objective - np.where(contract >= 0, prices.values.ravel()[contract], 0.0)
        for (a, coord), (lower, _) in program.quantities.items():
            if agent is None or a == agent:
                constant -= float(prices.values[coord]) * lower
    rhs = program.rhs[rows]
    for b in np.flatnonzero(binary_values):
        rhs = rhs - program.binary_matrix[rows, b]
    lower, upper = program.lower[columns], program.upper[columns]
    matrix = program.matrix[rows, columns]
    if len(free):
        free, k = list(free), len(free)
        gain = np.zeros(len(program.binaries))
        for b, c in program.binary_objective:
            gain[b] += c
        objective = np.concatenate([objective, gain[free]])
        lower = np.concatenate([lower, np.zeros(k)])
        upper = np.concatenate([upper, np.ones(k)])
        matrix = np.hstack([matrix, program.binary_matrix[rows][:, free]])
    if not (np.all(np.isfinite(objective)) and math.isfinite(constant)):
        raise ValueError("objective coefficients must be finite")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("row coefficients must be finite")
    return LinearProgram._unchecked(objective, lower, upper, matrix, program.senses[rows], rhs,
                                    "max", constant)


Bound = tuple[float, np.ndarray]  # a relaxation's optimum and its free binaries' values
Incumbent = tuple[float, tuple[int, ...]]  # a cell and an upper bound on its value


class _Search:
    """Depth-first branch and bound over one search's binaries; see ``_best_cell``."""

    def __init__(self, program: WelfareProgram, agent: int | None,
                 prices: ContractGrid | None, incumbent: Incumbent | None = None):
        self.program, self.agent, self.prices = program, agent, prices
        self.own = [b for b, (a, _) in enumerate(program.binaries)
                    if agent is None or a == agent]
        self.cell = [0] * len(program.binaries)
        self.best: tuple[float, tuple[int, ...], LPResult | None] | None = None
        self.known = None  # the incumbent's cell, whose LP is not solved
        if incumbent is not None:
            self.best, self.known = (*incumbent, None), incumbent[1]
        self.root: LinearProgram | None = None  # the root relaxation, once needed

    def run(self) -> tuple[float, tuple[int, ...], LPResult | None] | None:
        self.node(0, None, None)
        return self.best

    def relax(self, depth: int, start: ColumnState | None
              ) -> tuple[bool, Bound | None, ColumnState | None]:
        """(infeasible, bound, start below) of the relaxation freeing the binaries
        from ``depth`` on below the current cell, solved from ``start``; unless it
        is optimal, the bound is None and ``start`` is passed on."""
        if self.root is None:
            self.root = build_lp(self.program, self.cell, self.agent, self.prices, self.own)
        try:
            outcome = solve_lp(self.fixed(depth), start=start)
        except NumericalFailure:
            return False, None, start
        if outcome.status != "optimal":
            return outcome.status == "infeasible", None, start
        return False, (outcome.objective, outcome.x[depth - len(self.own):]), outcome.state

    def fixed(self, depth: int) -> LinearProgram:
        """The root relaxation with the binaries set above ``depth`` fixed at
        their values by their columns' bounds, so the root's basis, and that
        of any relaxation between, is a basis of it; ``fixed(0)`` is the root.
        Nothing is checked again: the root is ``build_lp``'s, and each fixed
        column's bounds are one 0 or 1, finite and not crossed."""
        if not depth:
            return self.root
        first = self.root.num_vars - len(self.own)
        lower, upper = self.root.lower.copy(), self.root.upper.copy()
        lower[first:first + depth] = upper[first:first + depth] = [
            self.cell[b] for b in self.own[:depth]]
        return LinearProgram._unchecked(**vars(self.root) | {"lower": lower, "upper": upper})

    def node(self, depth: int, bound: Bound | None, start: ColumnState | None) -> None:
        """Search the cells below the first ``depth`` branches of ``self.cell``,
        given the nearest agreeing relaxation's bound and nearest optimal one's state."""
        free = self.own[depth:]
        if bound is None and len(free) >= 2:
            infeasible, bound, start = self.relax(depth, start)
            if infeasible:
                return
        best = self.best
        if bound is not None and best is not None and (
                bound[0] < best[0] - PRUNE_MARGIN * max(1.0, abs(best[0]))):
            return
        if not free:
            self.leaf()
            return
        first = 0 if bound is None else int(bound[1][0] >= 0.5)
        for value in (first, 1 - first):
            self.cell[free[0]] = value
            agrees = bound is not None and bound[1][0] == value
            self.node(depth + 1, (bound[0], bound[1][1:]) if agrees else None, start)
        self.cell[free[0]] = 0

    def leaf(self) -> None:
        cell = tuple(self.cell)
        if cell == self.known:
            return
        lp = build_lp(self.program, self.cell, self.agent, self.prices)
        try:
            outcome = solve_lp(lp)
            if outcome.status == "unbounded":
                raise Unbounded("the objective is unbounded")
        except (NumericalFailure, Unbounded) as exc:
            owner = ("welfare" if self.agent is None
                     else f"agent {self.program.bids[self.agent].agent_id!r}")
            m, n = lp.matrix.shape
            raise type(exc)(f"cell {cell}, {owner} LP {m}x{n}: {exc}") from exc
        if outcome.status == "infeasible":
            return
        value, best = outcome.objective, self.best
        if best is None or value > best[0] or (value == best[0] and cell < best[1]):
            self.best = (value, cell, outcome)


def _best_cell(
    program: WelfareProgram,
    agent: int | None = None,
    prices: ContractGrid | None = None,
    incumbent: Incumbent | None = None,
) -> tuple[float, tuple[int, ...], LPResult | None]:
    """Best (value, binary cell, LP solution) of ``build_lp``'s cells.

    Searches every binary, or with ``agent`` set only that agent's own (the
    others stay 0), by depth-first branch and bound. A cell's value is its
    LP's optimum, and a cell replaces the best when its value is greater, or
    equal and the cell lexicographically smaller, so ties keep the
    lex-smallest cell in whatever order the search meets them. A node's
    relaxation is the LP of rule 4, whose optimum is that of ``build_lp``
    with the node's free binaries ``free``.

    1. A node inherits (value, relaxed binaries) from the nearest relaxation
       above it whose relaxed binaries equal every branch taken since. That
       relaxation's optimum is feasible below the node, so the value is the
       node's own bound. Any other node with two or more free binaries
       solves its relaxation.
    2. An infeasible relaxation prunes the subtree, and so does a bound below
       the best cell's value by more than PRUNE_MARGIN relative; an unbounded
       relaxation, or a numerical failure, prunes nothing.
    3. A node branches on its first free binary, first to the value its
       relaxation rounds that binary to (1 from 0.5 up), and to 0 first when
       it has no bound. So the search dives toward the relaxation's rounding,
       and an integral root relaxation names the first cell solved.
    4. Every cell's LP is solved from the slack basis. Every relaxation is
       the root's LP, ``build_lp`` with all the search's binaries free, with
       the set ones' columns fixed at their values by bounds instead of
       moved into the rhs. It starts (``solve_lp``'s ``start``) from the
       ``state`` of the nearest relaxation solved to optimality above it,
       or from the slack basis when there is none: the root, and below a
       root that is unbounded or fails.

    A pruned cell's value is below a solved cell's, so it could not have
    won, and the result is the one enumerating every cell gives. Rule 4's
    form keeps this: it is the node's relaxation, so its optimum bounds
    every cell below the node and differs from ``build_lp``'s only by
    rounding, far inside PRUNE_MARGIN; its "infeasible" (a row that no
    column can bring within bounds) means no cell below is feasible; and
    its failure, like any, prunes nothing. A relaxation decides only what
    is pruned and the branch order, never a cell's LP, so every solved
    cell, the winner's LP included, keeps the bits of a solve from the
    slack basis. A numerical failure, or an unbounded LP, in a cell
    met by the search is raised naming the cell, the LP and its size.

    An ``incumbent`` (value, cell) starts the search as its best, with no LP
    solution, and that cell's LP is not solved; every other cell is searched
    and pruned against it as above. Where its value is an upper bound on its
    cell's, the result's value is one on every cell's.
    """
    best = _Search(program, agent, prices, incumbent).run()
    if best is None:
        if agent is None:
            raise Infeasible("no binary assignment admits a feasible allocation")
        raise Infeasible(f"agent {program.bids[agent].agent_id!r} has no feasible position")
    return best


def clear(program: WelfareProgram, tol: float = DEFAULT_TOL) -> ClearingResult:
    """Clear the market: welfare-optimal allocation, dual prices, verification.

    Prices are the balance-row duals of the winning fixed-commitment LP;
    contracts nobody can trade are priced at zero, and so is a dual within
    PIVOT_TOL * max(1, max |objective coefficient|) of zero, which is the
    simplex's rounding residue. The verification report takes each agent's
    best response from the winning LP's row duals where their weak-duality
    certificate confirms it, and from ``best_response_value`` elsewhere;
    see ``_verify``.
    """
    if len(program.binaries) > MAX_BINARIES:
        raise TooManyBinaries(f"{len(program.binaries)} binary decisions exceed the "
                              f"branch and bound's cap of {MAX_BINARIES}")
    welfare, cell, outcome = _best_cell(program)
    dims = program.dims

    residue = PIVOT_TOL * float(np.max(np.abs(program.objective), initial=1.0))
    prices_grid = np.zeros(dims.shape)
    for coord, row_index in program.balance_rows.items():
        dual = float(outcome.duals[row_index])
        prices_grid[coord] = 0.0 if abs(dual) <= residue else dual
    prices = ContractGrid(prices_grid)

    allocations: dict[str, ContractGrid] = {}
    decisions: dict[str, dict[str, float]] = {}
    surplus: dict[str, float] = {}
    for a, bid in enumerate(program.bids):
        grid = np.zeros(dims.shape)
        for coord in bid.utilities:
            lower, deltas = program.quantities[(a, coord)]
            grid[coord] = lower + sum(outcome.x[d] for d in deltas)
        allocation = ContractGrid(grid)
        z: dict[str, float] = {}
        for d in bid.decisions:
            if d.kind == "binary":
                z[d.name] = float(cell[program.binaries.index((a, d.name))])
            else:
                z[d.name] = float(outcome.x[program.decision_index[(a, d.name)]])
        allocations[bid.agent_id] = allocation
        decisions[bid.agent_id] = z
        surplus[bid.agent_id] = valuation(bid, allocation, z) - payment(prices, allocation)

    verification = _verify(program, allocations, prices, surplus, tol, outcome.duals, cell)
    return ClearingResult(
        dims=dims,
        agent_ids=tuple(b.agent_id for b in program.bids),
        allocations=allocations,
        decisions=decisions,
        prices=prices,
        welfare=welfare,
        surplus=surplus,
        verification=verification,
    )


def best_response_value(
    program: WelfareProgram, agent: int, prices: ContractGrid, *,
    incumbent: Incumbent | None = None,
) -> float:
    """max valuation - payment for one agent at fixed prices.

    Searches the agent's own binaries; each cell is a small LP over the
    agent's block only (no balance rows). An ``incumbent`` (value, cell),
    one of the agent's cells and an upper bound on its value, starts the
    search as its best (``_best_cell``): that cell's LP is not solved, and
    the result is an upper bound on the best response, which is the LP
    optimum wherever another cell wins.
    """
    return float(_best_cell(program, agent, prices, incumbent)[0])


def _certificate(program: WelfareProgram, agent: int, cell: Sequence[int],
                 prices: ContractGrid, duals: np.ndarray) -> float:
    """Upper bound on ``agent``'s value in its ``cell`` at ``prices``, from
    row multipliers on its rows taken from ``duals``, a welfare LP's row
    duals; +inf where it proves nothing.

    Weak duality (the pricing argument of Dantzig & Wolfe 1960). The agent's
    LP, ``build_lp(program, cell, agent, prices)``, maximizes c'x + k subject
    to A x (senses) b and l <= x <= u. Take y >= 0 on its "<=" rows, y <= 0
    on its ">=" rows and any sign on "=" rows. Then y'(b - A x) >= 0 for
    every feasible x, so

        c'x + k <= k + b'y + d'x <= k + b'y + sum_j d_j side_j,

    with d = c - A'y and side_j the bound that d_j's sign prefers: u_j where
    d_j > 0, l_j where d_j < 0, and no term where d_j = 0. The side is
    picked before the product, so no infinite bound meets a zero d_j, and an
    infinite side makes the bound +inf. y is ``duals`` on the agent's rows,
    each clipped to its row's sign, so the bound holds whatever the duals
    are: a wrong dual only loosens it. At the welfare LP's optimum, d is its
    reduced cost of the agent's columns less the rounding in the posted
    prices, so complementary slackness makes the bound the agent's achieved
    value, up to rounding.

    A worst-case agent's block starts with its epigraph column, free, with
    objective 1 and a 1 in each of its first S rows (one per state) only. Its
    d is 1 - (the sum of those rows' multipliers), and any nonzero d makes
    the bound +inf. So y is divided by that sum, which keeps every sign where
    the sum is positive (+inf is returned where it is not). The exact
    quotients' state multipliers sum to 1, so the column's d is 0 for them;
    the floats differ from them by one rounding each, as every other term
    of the bound does, and the column's term is dropped.
    """
    lp = build_lp(program, cell, agent, prices)
    y = duals[program.agent_rows[agent]]
    y = np.where(lp.senses == "<=", np.maximum(y, 0.0),
                 np.where(lp.senses == ">=", np.minimum(y, 0.0), y))
    worst_case = program.bids[agent].risk == "worst_case"
    if worst_case:
        total = float(y[:program.dims.states].sum())
        if not total > 0.0:
            return math.inf
        y = y / total
    d = lp.objective - lp.matrix.T @ y
    if worst_case:
        d[0] = 0.0
    side = np.where(d > 0.0, lp.upper, np.where(d < 0.0, lp.lower, 0.0))
    return lp.constant + float(lp.rhs @ y) + float((d * side).sum())


def _verify(
    program: WelfareProgram,
    allocations: Mapping[str, ContractGrid],
    prices: ContractGrid,
    surplus: Mapping[str, float],
    tol: float,
    duals: np.ndarray | None = None,
    cell: Sequence[int] = (),
) -> VerificationReport:
    """Residuals, and each agent's best response at ``prices``, its gap over
    the achieved ``surplus`` and the verdict that every gap is within ``tol``.

    Without ``duals``, each best response is ``best_response_value``'s LP
    optimum. ``clear`` passes the winning LP's row ``duals`` and binary
    ``cell``; then each agent's value in its cleared cell (its own binaries
    as in ``cell``, the others 0) is first bounded by ``_certificate``. That
    bound is at least the best response over that cell, and it confirms
    where it is within ``tol`` of the achieved surplus. Then the agent's
    search (``best_response_value``) takes it as the incumbent, so the
    cleared cell's LP is not solved; an agent without binaries has no other
    cell, and reports the bound with no LP. Any other agent's best response
    is the LP optimum. So ``best_responses`` holds, for each agent, an upper
    bound that a certificate proves, or the LP optimum where none confirms,
    and ``confirmed`` is the LP route's verdict: a confirmed certificate's
    gap is within ``tol``, and it is at least the LP's gap up to rounding.
    """
    dims = program.dims
    net = np.zeros(dims.shape)
    payments_total = 0.0
    for grid in allocations.values():
        net += grid.values
    for bid in program.bids:
        payments_total += payment(prices, allocations[bid.agent_id])

    gaps: dict[str, float] = {}
    best_responses: dict[str, float] = {}
    achieved: dict[str, float] = {}
    owners = [a for a, _ in program.binaries]
    for a, bid in enumerate(program.bids):
        got = surplus[bid.agent_id]
        own = tuple(v if owner == a else 0 for owner, v in zip(owners, cell))
        bound = math.inf if duals is None else _certificate(program, a, own, prices, duals)
        incumbent = (bound, own) if bound - got <= tol else None
        best = best_response_value(program, a, prices, incumbent=incumbent)
        gaps[bid.agent_id] = best - got
        best_responses[bid.agent_id] = best
        achieved[bid.agent_id] = got

    negative = tuple(a for a, s in surplus.items() if s < -tol)
    return VerificationReport(
        balance_residual=float(np.max(np.abs(net))),
        budget_residual=abs(payments_total),
        gaps=gaps,
        best_responses=best_responses,
        achieved=achieved,
        negative_surplus_agents=negative,
        tolerance=tol,
        confirmed=all(g <= tol for g in gaps.values()),
    )


def verify_equilibrium(
    result: ClearingResult, program: WelfareProgram, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Re-run the equilibrium diagnostics for an existing result. A result
    carries no duals, so every best response is ``best_response_value``'s
    LP optimum."""
    return _verify(program, result.allocations, result.prices, result.surplus, tol)


def welfare_equivalence_check(
    program: WelfareProgram, result: ClearingResult, tol: float = DEFAULT_TOL
) -> bool:
    """Strong-duality certificate that a confirmed equilibrium is welfare-optimal.

    True iff the verification is confirmed, the market balances, and the
    welfare equals the sum of the agents' best responses at the posted prices.
    Each reported best response is at least the agent's true one: a
    weak-duality bound (``_certificate``) or an LP optimum. Any balanced
    allocation's welfare is at most the sum of the true ones (payments
    cancel), so equality certifies optimality without re-solving the central
    program. Where ``clear`` certified every agent, as on a convex market
    whose certificates all confirm, the check is the strong-duality
    statement itself: the welfare LP's duals price a bound that its optimum
    meets.
    """
    report = result.verification
    total = sum(report.best_responses.values())
    return (
        report.confirmed
        and report.balance_residual <= tol
        and abs(result.welfare - total) <= tol
    )


def clear_bids(
    bids: Sequence[AgentBid], dims: MarketDimensions, tol: float = DEFAULT_TOL
) -> ClearingResult:
    return clear(assemble_welfare(bids, dims), tol)


def sweep_two_state_beliefs(
    bids: Sequence[AgentBid],
    dims: MarketDimensions,
    pi_values: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> list[tuple[float, ClearingResult]]:
    """Clear the same market under common two-state beliefs (pi1, 1 - pi1)."""
    if dims.states != 2:
        raise ValueError("belief sweep requires exactly two states")
    results = []
    for pi1 in pi_values:
        beliefs = np.array([pi1, 1.0 - pi1])
        swept = [replace(bid, beliefs=beliefs) for bid in bids]
        results.append((float(pi1), clear_bids(swept, dims, tol)))
    return results
