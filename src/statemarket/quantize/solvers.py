"""Solvers for the minimal-size partitioning (location) problem.

Three routes, all minimizing the probability-weighted squared distance of
scenario points to their nearest center:

* ``solve_exact`` — globally optimal at desk scale via a bottom-up DP over
  point subsets, one numpy array row per block count; examines every set
  partition into exactly S blocks, with each block's center placed at its
  barycentre (optimal for squared Euclidean cost).
* ``solve_dp_1d`` — exact for one-dimensional measures; optimal 1-D clusters
  are contiguous in sorted order, so a DP over split points suffices. Its
  cost is O(S L^2) time: seconds at L = 10^4, minutes at 10^5.
* ``solve_lloyd`` — weighted k-means++ seeding plus Lloyd iterations, best of
  a fixed number of restarts; the production path for larger instances.

All solvers are deterministic and order returned states lexicographically by
center coordinates, so equal optima produce identical partitions.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import DimensionNotOne, InstanceTooLarge, SExceedsSupport
from ..scenarios import ScenarioSet
from .partition import (
    QuantizationSolution,
    StatePartition,
    _squared_distances_to,
    nearest_center,
)

# The subset DP pairs every mask with each of its submasks, so its work grows
# as 3^L; beyond this use lloyd (or dp1d in 1-D).
EXACT_LIMIT = 12
LLOYD_MAX_ITERATIONS = 1000


def _distinct_support(points: np.ndarray) -> int:
    """Number of distinct rows of a non-empty point array."""
    ordered = points[np.lexsort(points.T[::-1])]
    return 1 + int(np.count_nonzero((ordered[1:] != ordered[:-1]).any(axis=1)))


def _check_states(scenarios: ScenarioSet, num_states: int) -> None:
    if num_states < 1:
        raise ValueError(f"number of states must be >= 1, got {num_states}")
    support = _distinct_support(scenarios.points)
    if num_states > support:
        raise SExceedsSupport(
            f"requested {num_states} states but support has only {support} distinct points"
        )


def _finalize(
    scenarios: ScenarioSet,
    centers: np.ndarray,
    provenance: str,
    *,
    certified: bool,
) -> QuantizationSolution:
    """Order states lexicographically by center and package the solution.

    The partition assigns the points itself, so its cells follow the
    smallest-index tie rule in the final state order.
    """
    partition = StatePartition(centers[np.lexsort(centers.T[::-1])], scenarios)
    lower_bound = float(scenarios.weights @ partition.distances) if certified else None
    return QuantizationSolution(partition, lower_bound, provenance)


def _cell_barycentres(points, weights, assignment, counts):
    """The weighted barycentre of each state's cell, shape (S, k), where
    ``counts`` is the assignment's ``np.bincount`` over the S states.

    One stable sort of the assignment lines up every cell's members in
    ascending index order; numpy radix-sorts it once it is cast to the
    narrowest unsigned type that holds S - 1. One ``np.take`` then gathers
    the points and weights in that order, and each center is
    ``(w @ P) / w.sum()`` on its cell's contiguous slice. This keeps the
    bits of a scan per state: each cell sends the same members, in the same
    order, to the same BLAS call.
    """
    order = np.argsort(assignment.astype(np.min_scalar_type(counts.size - 1)), kind="stable")
    ends = np.cumsum(counts).tolist()
    sorted_points = np.take(points, order, axis=0)
    sorted_weights = np.take(weights, order)
    centers = np.empty((counts.size, points.shape[1]))
    start = 0
    for s, end in enumerate(ends):
        w = sorted_weights[start:end]
        centers[s] = (w @ sorted_points[start:end]) / w.sum()
        start = end
    return centers


# --- exact solver: DP over point subsets -----------------------------------

def _subset_costs(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted SSE around the barycentre for every subset bitmask."""
    count, dim = points.shape
    # per point: its weight, weighted coordinates and weighted squared norm
    terms = np.column_stack(
        [weights, weights[:, None] * points, weights * np.array([p @ p for p in points])]
    )
    sums = np.zeros((1 << count, dim + 2))
    for l in range(count):
        # the masks whose highest point is l are those below 2^l plus point l
        np.add(sums[:1 << l], terms[l], out=sums[1 << l:2 << l])
    total_w, sumsq = sums[:, 0], sums[:, -1]
    moment = np.ascontiguousarray(sums[:, 1:-1])
    safe_w = np.where(total_w > 0, total_w, 1.0)
    cost = sumsq - np.einsum("mk,mk->m", moment, moment) / safe_w
    np.maximum(cost, 0.0, out=cost)  # guard cancellation noise
    cost[0] = np.inf
    return cost


@functools.cache
def _submask_tables(bits: int) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """The ``(p, masks, blocks)`` of the masks over ``bits`` points with
    p = 2..bits bits set, in that order.

    ``blocks`` is an ``(n, 2^(p-1))`` table: a mask's lowest bit OR-ed with
    every submask of the rest, in descending ``(sub - 1) & rest`` order. It
    is filled from the right by doubling over the rest's bits from the lowest
    up, which keeps that order: the submasks holding the new bit come first.
    The tables depend on ``bits`` alone, so they are built once per process
    and made read-only: 0.72 MB at ``bits = EXACT_LIMIT - 1``, 1.1 MB for all
    bit counts up to it.
    """
    masks = np.arange(1 << bits, dtype=np.int64)
    counts = np.zeros(1 << bits, dtype=np.int64)
    for l in range(bits):
        counts[1 << l:2 << l] = counts[:1 << l] + 1
    tables = []
    for p in range(2, bits + 1):
        group = masks[counts == p]
        width = 1 << (p - 1)
        rest = group & (group - 1)
        blocks = np.empty((group.shape[0], width), dtype=np.int64)
        blocks[:, -1] = group ^ rest
        for filled in (1 << k for k in range(p - 1)):
            bit = rest & -rest
            rest ^= bit
            np.bitwise_or(
                blocks[:, width - filled:], bit[:, None],
                out=blocks[:, width - 2 * filled:width - filled],
            )
        group.flags.writeable = blocks.flags.writeable = False
        tables.append((p, group, blocks))
    return tuple(tables)


def _optimal_blocks(points: np.ndarray, weights: np.ndarray, num_states: int) -> list[int]:
    """Minimum-cost partition of all points into exactly ``num_states`` blocks.

    The first block holds point 0, so every smaller subproblem is a mask over
    points 1..L-1. Row s - 1 of ``value`` and ``choice`` (s = 1..S-1) holds,
    for each such mask, the least cost of s non-empty blocks and the block
    holding its lowest point. The masks are visited by popcount: each group
    takes ``value[s - 2][mask ^ block] + cost[block]`` over its submask table
    and keeps the argmin of each row, which is the first strict minimum in
    ``(sub - 1) & rest`` order. The full set is the same step on one row.
    Returns the blocks as bitmasks from the full set down.
    """
    length = points.shape[0]
    if num_states == 1:
        return [(1 << length) - 1]
    cost = _subset_costs(points, weights)
    without_first = cost[0::2]  # the masks without point 0, indexed by mask >> 1
    size = without_first.shape[0]
    value = np.full((num_states - 1, size), np.inf)
    value[0] = without_first
    choice = np.zeros((num_states - 1, size), dtype=np.int64)
    if num_states > 2:
        # a remainder has fewer points than its mask, so the rows it reads are
        # filled; the S - s blocks above a mask in row s leave it p <= L - S + s
        for p, masks, blocks in _submask_tables(length - 1):
            block_cost = without_first[blocks]
            remainders = masks[:, None] ^ blocks
            rows = np.arange(masks.shape[0])
            for s in range(max(2, p - length + num_states), min(p, num_states - 1) + 1):
                cand = value[s - 2, remainders]
                cand += block_cost
                pick = cand.argmin(axis=1)
                value[s - 1, masks] = cand[rows, pick]
                choice[s - 1, masks] = blocks[rows, pick]
    # the full set's candidate j is point 0 with submask size-1-j, leaving mask j
    mask = int(np.argmin(cost[1::2][::-1] + value[-1]))
    blocks = [2 * (size - 1 - mask) + 1]
    for s in range(num_states - 1, 1, -1):
        block = int(choice[s - 1, mask])
        blocks.append(2 * block)
        mask ^= block
    blocks.append(2 * mask)
    return blocks


def solve_exact(scenarios: ScenarioSet, num_states: int) -> QuantizationSolution:
    """Globally optimal partition by a bottom-up DP over point subsets.

    Guaranteed optimal for L <= ``EXACT_LIMIT``: ``_optimal_blocks`` fills
    one array row per block count, splitting off the block that holds the
    lowest point, and keeps the first strict minimum on ties. One-dimensional
    measures with more points delegate to the 1-D DP, which is also exact, in
    O(S L^2) time. The reported lower bound equals the objective.
    """
    length = scenarios.num_scenarios
    if length > EXACT_LIMIT and scenarios.dimension == 1:
        return solve_dp_1d(scenarios, num_states)  # checks the state count itself
    _check_states(scenarios, num_states)
    if length > EXACT_LIMIT:
        raise InstanceTooLarge(
            f"L={length} exceeds the exact-solver limit {EXACT_LIMIT} for k>=2"
        )
    blocks = np.array(_optimal_blocks(scenarios.points, scenarios.weights, num_states))
    assignment = (blocks[:, None] >> np.arange(length) & 1).argmax(axis=0)
    centers = _cell_barycentres(scenarios.points, scenarios.weights, assignment,
                                np.bincount(assignment, minlength=num_states))
    return _finalize(scenarios, centers, "oracle", certified=True)


# --- exact 1-D solver: contiguous-cluster DP --------------------------------

def solve_dp_1d(scenarios: ScenarioSet, num_states: int) -> QuantizationSolution:
    """Exact optimum for k=1 via DP over sorted points, O(S L^2).

    Optimal 1-D clusters under squared Euclidean cost are contiguous once
    points are sorted, so it suffices to choose S-1 split positions.
    """
    if scenarios.dimension != 1:
        raise DimensionNotOne(f"dp1d requires k=1, got k={scenarios.dimension}")
    _check_states(scenarios, num_states)
    values = scenarios.points[:, 0]
    order = np.argsort(values, kind="stable")
    x = values[order]
    w = scenarios.weights[order]

    cum_w = np.concatenate([[0.0], np.cumsum(w)])
    cum_wx = np.concatenate([[0.0], np.cumsum(w * x)])
    cum_wx2 = np.concatenate([[0.0], np.cumsum(w * x * x)])

    def range_cost(i: np.ndarray, j: int) -> np.ndarray:
        # weighted SSE of sorted slice [i, j)
        weight = cum_w[j] - cum_w[i]
        mean_term = (cum_wx[j] - cum_wx[i]) ** 2 / weight
        return np.maximum(cum_wx2[j] - cum_wx2[i] - mean_term, 0.0)

    length = x.shape[0]
    inf = float("inf")
    best = np.full((num_states + 1, length + 1), inf)
    split = np.zeros((num_states + 1, length + 1), dtype=int)
    best[0, 0] = 0.0
    for s in range(1, num_states + 1):
        for j in range(s, length + 1):
            i = np.arange(s - 1, j)
            candidates = best[s - 1, i] + range_cost(i, j)
            pick = int(np.argmin(candidates))  # smallest split index on ties
            best[s, j] = candidates[pick]
            split[s, j] = i[pick]

    assignment_sorted = np.empty(length, dtype=int)
    j = length
    for s in range(num_states, 0, -1):
        i = split[s, j]
        assignment_sorted[i:j] = s - 1
        j = i
    assignment = np.empty(length, dtype=int)
    assignment[order] = assignment_sorted
    centers = _cell_barycentres(scenarios.points, scenarios.weights, assignment,
                                np.bincount(assignment, minlength=num_states))
    return _finalize(scenarios, centers, "dp1d", certified=True)


# --- Lloyd heuristic ---------------------------------------------------------

def _weighted_draw(rng: np.random.Generator, mass: np.ndarray) -> int:
    cumulative = np.cumsum(mass)
    u = rng.random() * cumulative[-1]
    return min(int(np.searchsorted(cumulative, u, side="right")), mass.shape[0] - 1)


def _seed_centers(
    points: np.ndarray, weights: np.ndarray, num_states: int, rng: np.random.Generator
) -> np.ndarray:
    """Weighted k-means++ seeding: sampling mass = weight * distance^2.

    Returns the chosen points as a fresh (S, k) array.
    """
    coordinates = np.ascontiguousarray(points.T)
    chosen = [_weighted_draw(rng, weights)]
    d2 = _squared_distances_to(coordinates, points[chosen[0]])
    while len(chosen) < num_states:
        index = _weighted_draw(rng, weights * d2)
        chosen.append(index)
        np.minimum(d2, _squared_distances_to(coordinates, points[index]), out=d2)
    return points[chosen]


def _assign_with_repair(points, centers, num_states):
    """Nearest-center assignment and state counts; empty states are repaired by
    relocating the center onto the worst-served point, which strictly lowers
    the objective."""
    while True:
        assignment, d2 = nearest_center(points, centers)
        counts = np.bincount(assignment, minlength=num_states)
        if counts.all():
            return assignment, d2, centers, counts
        empty = int(np.flatnonzero(counts == 0)[0])
        centers = centers.copy()
        centers[empty] = points[int(np.argmax(d2))]


def _lloyd_single_run(points, weights, num_states, rng):
    """One seeded Lloyd run; returns (centers, assignment, objective history).

    Terminates on an assignment fixed point, which exists because the
    objective strictly decreases until the assignment repeats.
    """
    # in Fortran order the coordinate rows that nearest_center and
    # _seed_centers read are a view, not a copy per call; the barycentres
    # gather whole points, which is faster in C order
    by_coordinate = np.asfortranarray(points)
    centers = _seed_centers(by_coordinate, weights, num_states, rng)
    assignment, d2, centers, counts = _assign_with_repair(by_coordinate, centers, num_states)
    history = [float(weights @ d2)]
    for _ in range(LLOYD_MAX_ITERATIONS):
        centers = _cell_barycentres(points, weights, assignment, counts)
        previous = assignment
        assignment, d2, centers, counts = _assign_with_repair(by_coordinate, centers, num_states)
        history.append(float(weights @ d2))
        if np.array_equal(assignment, previous):
            break
    return centers, assignment, history


def solve_lloyd(
    scenarios: ScenarioSet,
    num_states: int,
    restarts: int = 64,
    seed: int = 0,
) -> QuantizationSolution:
    """Best of ``restarts`` independent Lloyd runs; deterministic for a seed.

    Restart r uses the child stream (seed, r), so runs are independent and
    could execute in parallel; ties go to the lowest restart index. The best
    run is then re-centred in the final state order until every center is
    bit for bit the barycentre of its cell: a run's own label order can send
    a tied point to the other cell once the states are sorted.
    """
    _check_states(scenarios, num_states)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    points, weights = scenarios.points, scenarios.weights
    best = None
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        centers, _, history = _lloyd_single_run(points, weights, num_states, rng)
        if best is None or history[-1] < best[0]:
            best = (history[-1], centers)
    centers = best[1]
    by_coordinate = np.asfortranarray(points)  # as in _lloyd_single_run
    for _ in range(LLOYD_MAX_ITERATIONS):
        centers = centers[np.lexsort(centers.T[::-1])]
        assignment, _, centers, counts = _assign_with_repair(by_coordinate, centers, num_states)
        updated = _cell_barycentres(points, weights, assignment, counts)
        if np.array_equal(updated, centers):
            break
        centers = updated
    return _finalize(scenarios, centers, "lloyd", certified=False)
