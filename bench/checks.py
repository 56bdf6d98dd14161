"""Per-op output checks. Each returns a list of problems; empty means passed.

The checks recompute what they can from the program's public outputs
instead of trusting the report that came with them.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from statemarket.clearing import build_lp
from statemarket.market import payment, valuation
from statemarket.quantize.partition import nearest_center

# Relative to max(1, |welfare|): residuals and certificates are sums of
# price x quantity terms of that magnitude.
REL_TOL = 1e-6
BARYCENTRE_TOL = 1e-9


def check_clearing(program, result, *, require_equilibrium: bool) -> list[str]:
    """Balance, budget and per-agent surplus at the posted prices; with
    ``require_equilibrium`` also a confirmed verification and the
    strong-duality certificate welfare == sum of best responses."""
    problems = []
    tol = REL_TOL * max(1.0, abs(result.welfare))
    allocations = [result.allocations[bid.agent_id] for bid in program.bids]
    balance = float(np.max(np.abs(sum(g.values for g in allocations))))
    if balance > tol:
        problems.append(f"balance residual {balance:.3g}")
    budget = abs(sum(payment(result.prices, g) for g in allocations))
    if budget > tol:
        problems.append(f"budget residual {budget:.3g}")
    achieved = result.verification.achieved
    for bid, grid in zip(program.bids, allocations):
        surplus = valuation(bid, grid, result.decisions[bid.agent_id]) - payment(result.prices, grid)
        if not abs(surplus - achieved[bid.agent_id]) <= tol:
            problems.append(
                f"{bid.agent_id}: surplus {surplus:.9g} at the posted prices, "
                f"verification reports {achieved[bid.agent_id]:.9g}"
            )
    if require_equilibrium:
        if not result.verification.confirmed:
            problems.append("verification not confirmed")
        total = sum(result.verification.best_responses.values())
        if not abs(result.welfare - total) <= tol:
            problems.append(f"welfare {result.welfare:.9g} != sum of best responses {total:.9g}")
    return problems


def highs_reference_welfare(program) -> float | None:
    """Max over enumeration cells of the HiGHS optimum of ``build_lp`` plus
    the cell constant; None when scipy is not installed."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    best = None
    for cell in itertools.product((0, 1), repeat=len(program.binaries)):
        lp = build_lp(program, cell)
        n = lp.num_vars
        eq, eq_rhs, ub, ub_rhs = [], [], [], []
        for row in lp.rows:
            dense = np.zeros(n)
            np.add.at(dense, list(row.indices), row.coeffs)
            if row.sense == "=":
                eq.append(dense)
                eq_rhs.append(row.rhs)
            else:
                flip = 1.0 if row.sense == "<=" else -1.0
                ub.append(flip * dense)
                ub_rhs.append(flip * row.rhs)
        bounds = [
            (None if not np.isfinite(lo) else lo, None if not np.isfinite(hi) else hi)
            for lo, hi in zip(lp.lower, lp.upper)
        ]
        sign = -1.0 if lp.sense == "max" else 1.0
        res = linprog(
            sign * lp.objective,
            A_ub=np.array(ub) if ub else None,
            b_ub=ub_rhs or None,
            A_eq=np.array(eq) if eq else None,
            b_eq=eq_rhs or None,
            bounds=bounds,
            method="highs",
        )
        if res.status != 0:
            continue
        constant = program.objective_constant + sum(c * cell[b] for b, c in program.binary_objective)
        value = sign * res.fun + constant
        best = value if best is None else max(best, value)
    return best if best is not None else float("-inf")


def compare_welfare(welfare: float, reference: float) -> list[str]:
    if abs(welfare - reference) <= REL_TOL * max(1.0, abs(reference)):
        return []
    return [f"welfare {welfare:.9g} != HiGHS reference {reference:.9g}"]


def check_lloyd_fixed_point(points, weights, centers, assignment) -> list[str]:
    """The assignment is the nearest-center one and every center is its
    cell's barycentre, i.e. one more Lloyd step changes nothing."""
    problems = []
    nearest, _ = nearest_center(points, centers)
    moved = int(np.count_nonzero(nearest != assignment))
    if moved:
        problems.append(f"{moved} points are not assigned to their nearest center")
    num_states, k = centers.shape
    mass = np.bincount(assignment, weights=weights, minlength=num_states)
    if np.any(mass <= 0):
        return problems + ["a state owns no scenario"]
    barycentres = np.column_stack(
        [np.bincount(assignment, weights=weights * points[:, j], minlength=num_states) for j in range(k)]
    ) / mass[:, None]
    shift = float(np.max(np.abs(barycentres - centers)))
    if shift > BARYCENTRE_TOL:
        problems.append(f"a center is {shift:.3g} away from its cell's barycentre")
    return problems


def compare_repeat(first: float, again: float) -> list[str]:
    if first == again:
        return []
    return [f"objective {first!r} repeated as {again!r}"]


def check_pipeline(codes: dict, outputs: dict) -> list[str]:
    """Every CLI stage exits 0; the exact partition certifies its optimum."""
    problems = [f"{stage} exited {code}" for stage, code in codes.items() if code != 0]
    if "partition.json" in outputs:
        solution = json.loads(outputs["partition.json"])
        if solution["lower_bound"] != solution["objective"]:
            problems.append(
                f"exact lower_bound {solution['lower_bound']!r} != objective {solution['objective']!r}"
            )
    return problems


def without_metadata(text: str) -> str:
    payload = json.loads(text)
    payload.pop("metadata", None)
    return json.dumps(payload, sort_keys=True, indent=2)


def compare_outputs(first: dict, again: dict) -> list[str]:
    """JSON outputs of a repeated input are byte-identical outside ``metadata``."""
    return [
        f"{name} differs from the first run of the same input"
        for name in sorted(set(first) | set(again))
        if name not in first or name not in again
        or without_metadata(first[name]) != without_metadata(again[name])
    ]
