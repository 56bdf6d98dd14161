"""Welfare maximization, equilibrium prices, and property verification.

Binary commitments are cleared by exhaustive enumeration (hard cap, no
branch and bound): each assignment yields an LP whose balance-row duals are
the candidate contract prices. The welfare-maximal cell wins, ties going to
the lexicographically smallest binary vector. For purely convex programs the
outcome is a Walrasian equilibrium; with binaries the verification report
surfaces any agent that could deviate profitably at the posted prices.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from ..errors import Infeasible, NumericalFailure, TooManyBinaries
from ..market import (
    AgentBid,
    ContractGrid,
    MarketDimensions,
    WelfareProgram,
    assemble_welfare,
    payment,
    valuation,
)
from .simplex import LinearProgram, LPResult, solve_lp

MAX_BINARIES = 20
DEFAULT_TOL = 1e-6


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
) -> LinearProgram:
    """LP for one enumeration cell, sliced from the program's arrays.

    Its rhs is the program's less column b of ``binary_matrix`` for each set
    binary b, in ascending b. With ``agent`` set, the LP is that agent's block
    alone (its columns and rows, no balance rows). With ``prices`` set, each
    segment column also pays the price of its contract, so the objective is
    valuation minus payment. The constant the LP leaves out is
    ``_cell_constant`` with the same arguments.
    """
    rows = columns = slice(None)
    if agent is not None:
        rows, columns = program.agent_rows[agent], program.agent_columns[agent]
    objective = program.objective[columns]
    if prices is not None:
        contract = program.column_contract[columns]
        objective = objective - np.where(contract >= 0, prices.values.ravel()[contract], 0.0)
    rhs = program.rhs[rows]
    for b in np.flatnonzero(binary_values):
        rhs = rhs - program.binary_matrix[rows, b]
    return LinearProgram(objective, program.lower[columns], program.upper[columns],
                         program.matrix[rows, columns], program.senses[rows], rhs, "max")


def _cell_constant(
    program: WelfareProgram,
    binary_values: Sequence[int],
    agent: int | None = None,
    prices: ContractGrid | None = None,
) -> float:
    """Objective constant of ``build_lp`` with the same arguments: utility at
    the pinned lower ends and of the fixed binaries, less the payment on the
    pinned lower ends when ``prices`` is set."""
    if agent is None:
        extra = sum(c * binary_values[b] for b, c in program.binary_objective)
        constant = program.objective_constant + extra
    else:
        constant = program.agent_constants[agent] + sum(
            c * binary_values[b]
            for b, c in program.binary_objective
            if program.binaries[b][0] == agent
        )
    if prices is not None:
        for (a, coord), (lower, _) in program.quantities.items():
            if agent is None or a == agent:
                constant -= float(prices.values[coord]) * lower
    return constant


def _best_cell(
    program: WelfareProgram,
    agent: int | None = None,
    prices: ContractGrid | None = None,
) -> tuple[float, tuple[int, ...], LPResult]:
    """Best (value, binary cell, LP solution) of ``build_lp`` plus its constant.

    Enumerates every binary, or with ``agent`` set only that agent's own (the
    others stay 0); ties keep the lex-smallest cell. Cells are independent and
    could be solved in parallel; selection is a deterministic reduction. A
    numerical failure is raised again naming the cell, the LP and its size.
    """
    own = [b for b, (a, _) in enumerate(program.binaries) if agent is None or a == agent]
    best = None
    for values in itertools.product((0, 1), repeat=len(own)):
        cell = [0] * len(program.binaries)
        for b, value in zip(own, values):
            cell[b] = value
        lp = build_lp(program, cell, agent, prices)
        try:
            outcome = solve_lp(lp)
        except NumericalFailure as exc:
            owner = "welfare" if agent is None else f"agent {program.bids[agent].agent_id!r}"
            m, n = lp.matrix.shape
            raise NumericalFailure(f"cell {tuple(cell)}, {owner} LP {m}x{n}: {exc}") from exc
        if outcome.status != "optimal":
            continue
        value = outcome.objective + _cell_constant(program, cell, agent, prices)
        if best is None or value > best[0]:
            best = (value, tuple(cell), outcome)
    if best is None:
        if agent is None:
            raise Infeasible("no binary assignment admits a feasible allocation")
        raise Infeasible(f"agent {program.bids[agent].agent_id!r} has no feasible position")
    return best


def clear(program: WelfareProgram, tol: float = DEFAULT_TOL) -> ClearingResult:
    """Clear the market: welfare-optimal allocation, dual prices, verification.

    Prices are the balance-row duals of the winning fixed-commitment LP;
    contracts nobody can trade are priced at zero. The verification report is
    populated by re-solving each agent's best response at the posted prices.
    """
    if len(program.binaries) > MAX_BINARIES:
        raise TooManyBinaries(
            f"{len(program.binaries)} binary decisions exceed the enumeration cap "
            f"of {MAX_BINARIES}"
        )
    welfare, cell, outcome = _best_cell(program)
    dims = program.dims

    prices_grid = np.zeros(dims.shape)
    for coord, row_index in program.balance_rows.items():
        prices_grid[coord] = outcome.duals[row_index] + 0.0  # drop negative zeros
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

    verification = _verify(program, allocations, prices, surplus, tol)
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
    program: WelfareProgram, agent: int, prices: ContractGrid
) -> float:
    """max valuation - payment for one agent at fixed prices.

    Enumerates the agent's own binaries; each cell is a small LP over the
    agent's block only (no balance rows).
    """
    return float(_best_cell(program, agent, prices)[0])


def _verify(
    program: WelfareProgram,
    allocations: Mapping[str, ContractGrid],
    prices: ContractGrid,
    surplus: Mapping[str, float],
    tol: float,
) -> VerificationReport:
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
    for a, bid in enumerate(program.bids):
        best = best_response_value(program, a, prices)
        got = surplus[bid.agent_id]
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
    """Re-run the equilibrium diagnostics for an existing result."""
    return _verify(program, result.allocations, result.prices, result.surplus, tol)


def welfare_equivalence_check(
    program: WelfareProgram, result: ClearingResult, tol: float = DEFAULT_TOL
) -> bool:
    """Strong-duality certificate that a confirmed equilibrium is welfare-optimal.

    True iff the verification is confirmed, the market balances, and the
    welfare equals the sum of the agents' best responses at the posted prices.
    Any balanced allocation's welfare is at most that sum (payments cancel),
    so equality certifies optimality without re-solving the central program.
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
