"""Independent oracles used to cross-check the solvers.

Deliberately written with different algorithms (and mostly plain Python
arithmetic) than the package paths they verify: literal set-partition
enumeration against the subset-DP exact solver, and basic-solution
enumeration and scipy's HiGHS (a dev-only dependency) against the simplex.
A pure-Python bottom-up subset DP is the tie-rule reference for the
vectorised DP of ``_optimal_blocks``, a scan per state the bit reference
for the sorted barycentres of ``_cell_barycentres``, and cell enumeration
the reference for the branch and bound over commitments.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from statemarket.clearing import core
from statemarket.errors import Infeasible, NumericalFailure, Unbounded


# --- set-partition enumeration ------------------------------------------------

def iter_set_partitions(count: int, max_blocks: int):
    """All partitions of range(count) into at most max_blocks blocks,
    generated via restricted growth strings."""
    labels = [0] * count

    def rec(position: int, used: int):
        if position == count:
            blocks = [[] for _ in range(used)]
            for index in range(count):
                blocks[labels[index]].append(index)
            yield [tuple(b) for b in blocks]
            return
        for label in range(used):
            labels[position] = label
            yield from rec(position + 1, used)
        if used < max_blocks:
            labels[position] = used
            yield from rec(position + 1, used + 1)

    yield from rec(0, 0)


def blocks_cost(points, weights, blocks) -> float:
    """Two-pass partition cost: barycentre per block, then weighted squared
    deviations. Pure Python on purpose."""
    dim = len(points[0])
    total = 0.0
    for block in blocks:
        mass = sum(weights[l] for l in block)
        centre = [
            sum(weights[l] * points[l][j] for l in block) / mass for j in range(dim)
        ]
        total += sum(
            weights[l] * sum((points[l][j] - centre[j]) ** 2 for j in range(dim))
            for l in block
        )
    return total


def best_partition_bruteforce(points, weights, max_blocks):
    """Exhaustive minimum over all set partitions with <= max_blocks blocks."""
    points = [list(map(float, p)) for p in points]
    weights = [float(w) for w in weights]
    best = math.inf
    best_blocks = None
    for blocks in iter_set_partitions(len(points), max_blocks):
        cost = blocks_cost(points, weights, blocks)
        if cost < best:
            best = cost
            best_blocks = blocks
    return best, best_blocks


def weighted_mean(points, weights, subset) -> list[float]:
    """Spreadsheet-style weighted average over a subset of rows."""
    dim = len(points[0])
    mass = sum(weights[l] for l in subset)
    return [sum(weights[l] * points[l][j] for l in subset) / mass for j in range(dim)]


def scan_barycentres(points, weights, assignment, num_states):
    """Each state's weighted barycentre from a scan of the assignment per
    state: its members in ascending order, gathered and sent to one BLAS
    call. The bit reference for ``_cell_barycentres``."""
    centers = np.empty((num_states, points.shape[1]))
    for s in range(num_states):
        members = np.flatnonzero(assignment == s)
        w = weights[members]
        centers[s] = (w @ np.take(points, members, axis=0)) / w.sum()
    return centers


# --- bottom-up subset DP: tie-rule reference ----------------------------------

def optimal_blocks_bottom_up(cost, length, num_states):
    """Blocks (bitmasks) of a minimum-cost partition into ``num_states`` blocks.

    ``cost[mask]`` is the block cost of every subset (``inf`` for the empty
    one). Fills f_s over all 2^L masks for s = 2..S, splitting off the block
    that holds the lowest point with its rest's submasks in descending
    ``(sub - 1) & rest`` order; the first strict minimum wins, and the blocks
    are read back through per-level choice tables from (S, full set) down.
    """
    full = (1 << length) - 1
    if num_states == 1:
        return [full]
    cost = [float(c) for c in cost]
    popcount = [bin(m).count("1") for m in range(full + 1)]
    inf = float("inf")
    f_prev = list(cost)
    choices = []
    for s in range(2, num_states + 1):
        f_cur = [inf] * (full + 1)
        choice = [0] * (full + 1)
        for mask in range(1, full + 1):
            if popcount[mask] < s:
                continue
            low = mask & (-mask)
            rest = mask ^ low
            best, best_block = inf, 0
            sub = rest
            while True:
                block = sub | low
                remainder_cost = f_prev[mask ^ block]
                if remainder_cost < inf:
                    cand = remainder_cost + cost[block]
                    if cand < best:
                        best, best_block = cand, block
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            f_cur[mask] = best
            choice[mask] = best_block
        choices.append(choice)
        f_prev = f_cur
    blocks = []
    mask = full
    for level in range(num_states - 2, -1, -1):
        blocks.append(choices[level][mask])
        mask ^= blocks[-1]
    blocks.append(mask)
    return blocks


# --- LP oracle: enumerate basic solutions -------------------------------------

def lp_vertex_oracle(lp) -> float:
    """Optimal objective of a bounded LP by enumerating basic solutions.

    Collects every row and finite bound as a hyperplane, forces equality rows
    active, and scans all choices of active sets of size n. An equality row
    whose coefficients depend on earlier ones is not forced: it would make
    every active set singular, and the feasibility check still holds each
    point to it. Exponential, for tiny test instances only.
    """
    n = lp.num_vars
    planes = []  # (coeff vector, rhs, kind) with kind in {"eq", "ineq"}
    for a, rhs, sense in zip(lp.matrix, lp.rhs, lp.senses):
        planes.append((a, rhs, "eq" if sense == "=" else "ineq"))
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        if np.isfinite(lp.lower[j]):
            planes.append((unit.copy(), lp.lower[j], "ineq"))
        if np.isfinite(lp.upper[j]):
            planes.append((unit.copy(), lp.upper[j], "ineq"))

    forced = []
    for i, (a, _, kind) in enumerate(planes):
        if kind == "eq" and np.linalg.matrix_rank(
                np.vstack([planes[k][0] for k in forced] + [a])) > len(forced):
            forced.append(i)
    optional = [i for i, p in enumerate(planes) if p[2] == "ineq"]
    need = n - len(forced)
    if need < 0:
        raise ValueError("oracle expects at most n equality rows")

    def feasible(x) -> bool:
        if np.any(x < lp.lower - 1e-7) or np.any(x > lp.upper + 1e-7):
            return False
        for a, rhs, sense in zip(lp.matrix.tolist(), lp.rhs.tolist(), lp.senses):
            activity = sum(c * xj for c, xj in zip(a, x.tolist()))
            if sense == "=" and abs(activity - rhs) > 1e-7:
                return False
            if sense == "<=" and activity > rhs + 1e-7:
                return False
            if sense == ">=" and activity < rhs - 1e-7:
                return False
        return True

    best = None
    for combo in itertools.combinations(optional, need):
        active = forced + list(combo)
        matrix = np.vstack([planes[i][0] for i in active])
        rhs = np.array([planes[i][1] for i in active])
        try:
            x = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError:
            continue
        if not feasible(x):
            continue
        value = float(lp.objective @ x)
        if best is None:
            best = value
        elif lp.sense == "max":
            best = max(best, value)
        else:
            best = min(best, value)
    if best is None:
        raise ValueError("oracle found no feasible vertex")
    return best


# --- LP oracle: scipy's HiGHS -------------------------------------------------

def highs_optimum(lp):
    """(objective, x) of ``lp`` by HiGHS, or None when it is infeasible."""
    res, better = _highs(lp)
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -better * res.fun, res.x


def highs_verdict(lp):
    """(status, objective) of ``lp`` by HiGHS, status "optimal",
    "infeasible" or "unbounded"; the objective is None unless optimal."""
    res, better = _highs(lp)
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, (-better * res.fun + lp.constant if res.status == 0 else None)


def _highs(lp):
    from scipy.optimize import linprog

    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for dense, rhs, sense in zip(lp.matrix, lp.rhs, lp.senses):
        if sense == "=":
            a_eq.append(dense)
            b_eq.append(rhs)
        else:
            flip = 1.0 if sense == "<=" else -1.0
            a_ub.append(flip * dense)
            b_ub.append(flip * rhs)
    better = 1.0 if lp.sense == "max" else -1.0  # linprog minimizes
    res = linprog(
        -better * lp.objective,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=b_ub or None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=b_eq or None,
        bounds=[(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
                for lo, hi in zip(lp.lower, lp.upper)],
        method="highs",
    )
    return res, better


# --- commitment cells: enumerate every one -------------------------------------

def best_cell_by_enumeration(program, agent=None, prices=None):
    """``clearing.core._best_cell`` by solving every cell of the searched
    binaries in lexicographic order; a strictly greater value replaces the
    best, so ties keep the lex-smallest cell."""
    own = [b for b, (a, _) in enumerate(program.binaries) if agent is None or a == agent]
    best = None
    for values in itertools.product((0, 1), repeat=len(own)):
        cell = [0] * len(program.binaries)
        for b, value in zip(own, values):
            cell[b] = value
        lp = core.build_lp(program, cell, agent, prices)
        try:
            outcome = core.solve_lp(lp)
            if outcome.status == "unbounded":
                raise Unbounded("the objective is unbounded")
        except (NumericalFailure, Unbounded) as exc:
            owner = "welfare" if agent is None else f"agent {program.bids[agent].agent_id!r}"
            m, n = lp.matrix.shape
            raise type(exc)(f"cell {tuple(cell)}, {owner} LP {m}x{n}: {exc}") from exc
        if outcome.status != "optimal":
            continue
        if best is None or outcome.objective > best[0]:
            best = (outcome.objective, tuple(cell), outcome)
    if best is None:
        if agent is None:
            raise Infeasible("no binary assignment admits a feasible allocation")
        raise Infeasible(f"agent {program.bids[agent].agent_id!r} has no feasible position")
    return best


def assert_same_search(found, expected):
    """A search's (value, cell, LPResult) equals the oracle's bit for bit."""
    assert found[0] == expected[0]
    assert found[1] == expected[1]
    for name in ("status", "objective", "iterations"):
        assert getattr(found[2], name) == getattr(expected[2], name)
    for name in ("x", "duals", "reduced_costs"):
        assert np.array_equal(getattr(found[2], name), getattr(expected[2], name))
