"""Independent oracles used to cross-check the solvers.

Deliberately written with different algorithms (and mostly plain Python
arithmetic) than the package paths they verify: literal set-partition
enumeration against the subset-DP exact solver, and basic-solution
enumeration and scipy's HiGHS (a dev-only dependency) against the simplex.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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


# --- LP oracle: enumerate basic solutions -------------------------------------

def lp_vertex_oracle(lp) -> float:
    """Optimal objective of a bounded LP by enumerating basic solutions.

    Collects every row and finite bound as a hyperplane, forces equality rows
    active, and scans all choices of active sets of size n. Exponential, for
    tiny test instances only.
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

    forced = [i for i, p in enumerate(planes) if p[2] == "eq"]
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
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -better * res.fun, res.x
