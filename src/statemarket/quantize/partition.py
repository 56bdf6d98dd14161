"""State partitions: Voronoi cells with smallest-index tie-breaking.

A partition is represented by its generating centers; the cell of center s
is the set of realizations at least as close to it as to any other center,
with boundary points assigned to the smallest index. Cells therefore cover
the sample space and are pairwise disjoint by construction.

Assignment (``nearest_center``) is a running minimum over the centers in
index order: a point moves to center s only when its squared distance to s
is strictly smaller (``<``) than the best so far, so a boundary point stays
with the smallest index. ``classify`` and the solvers all go through it.

A ``StatePartition`` holds its cells: one ``nearest_center`` pass over the
scenario points, made when the partition is built, gives the stored
``assignment`` and ``distances``, so the tie rule governs the stored
assignment too. A ``QuantizationSolution`` reads its assignment, distances
and objective from its partition and keeps no copy of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import (DimensionMismatch, EmptyState, EmptySubset, NonFiniteCoordinate, number,
                      numbers)
from ..scenarios import ScenarioSet, barycentre

# Centers closer than this are considered coincident and rejected.
MIN_CENTER_SEPARATION = 1e-12


def _squared_distances_to(coordinates: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every point to one center, shape (L,).

    ``coordinates`` holds the points one coordinate per row, shape (k, L), as
    ``points.T`` does; a contiguous copy is faster to read.

    The squares of the even coordinates are summed in order, then those of the
    odd coordinates, and the two sums are added. This is the order in which
    numpy's float64 einsum kernel sums a row of fewer than eight terms when its
    vectors hold two doubles, as in the x86-64 wheels, so for k <= 7 the result
    equals ``einsum("lk,lk->l", d, d)`` with ``d = points - center`` bit for
    bit. From k = 8 that kernel unrolls its loop and orders the terms another
    way; builds with wider vectors or fused multiply-add differ too.
    """

    def lane(first: int) -> np.ndarray:
        total = coordinates[first] - center[first]
        total *= total
        for j in range(first + 2, center.shape[0], 2):
            term = coordinates[j] - center[j]
            term *= term
            total += term
        return total

    d2 = lane(0)
    if center.shape[0] > 1:
        d2 += lane(1)
    return d2


def nearest_center(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assign each point to its nearest center (ties to the smallest index).

    Returns (assignment as ``intp``, squared distance to the assigned center).

    The running index is kept in the narrowest unsigned type that holds
    S - 1, where the elementwise max costs under half of what it does on
    ``intp``. This keeps the bits: every distance comes from the same lanes
    in the same order, and the comparison, the minimum and the max of small
    integers are exact whatever the dtype of the index.

    The distances read the points one coordinate per row, a contiguous copy
    of ``points.T``. For points in Fortran order that is ``points.T`` itself,
    so a caller that assigns the same points many times passes them in that
    order and no copy is made.
    """
    coordinates = np.ascontiguousarray(points.T)
    label = np.min_scalar_type(centers.shape[0] - 1).type
    assignment = np.zeros(points.shape[0], dtype=label)
    closer = np.empty(points.shape[0], dtype=bool)
    best = _squared_distances_to(coordinates, centers[0])
    for s in range(1, centers.shape[0]):
        d2 = _squared_distances_to(coordinates, centers[s])
        np.less(d2, best, out=closer)
        # indices so far are below s, so the max writes s exactly where closer
        np.maximum(assignment, closer * label(s), out=assignment)
        np.minimum(best, d2, out=best)
    return assignment.astype(np.intp), best


@dataclass(frozen=True)
class StatePartition:
    """S pairwise-distinct centers and the cells they induce on the scenarios.

    ``assignment`` and ``distances`` hold each scenario's state (ties to the
    smallest index) and its squared distance to that state's center.
    """

    centers: np.ndarray
    scenarios: ScenarioSet
    assignment: np.ndarray = field(init=False, repr=False, compare=False)
    distances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        object.__setattr__(self, "centers", centers)
        if centers.shape[1] != self.scenarios.dimension:
            raise DimensionMismatch(
                f"centers have dimension {centers.shape[1]}, "
                f"scenarios have {self.scenarios.dimension}"
            )
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must be finite")
        for s in range(centers.shape[0] - 1):
            d2 = _squared_distances_to(centers[s + 1:].T, centers[s])
            if np.min(d2) <= MIN_CENTER_SEPARATION**2:
                raise ValueError("centers must be pairwise distinct")
        assignment, distances = nearest_center(self.scenarios.points, centers)
        empty = np.flatnonzero(np.bincount(assignment, minlength=centers.shape[0]) == 0)
        if empty.size:
            raise EmptyState(f"state(s) {empty.tolist()} own no scenario point")
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "distances", distances)

    @property
    def num_states(self) -> int:
        return self.centers.shape[0]

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    def to_dict(self) -> dict:
        return {
            "tie_rule": "smallest-index",
            "centers": self.centers.tolist(),
            "scenarios": {
                "points": self.scenarios.points.tolist(),
                "weights": self.scenarios.weights.tolist(),
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StatePartition":
        scen = ScenarioSet(
            np.asarray(numbers(payload["scenarios"]["points"]), dtype=float),
            np.asarray(numbers(payload["scenarios"]["weights"]), dtype=float),
        )
        return cls(np.asarray(numbers(payload["centers"]), dtype=float), scen)


def classify(partition: StatePartition, xi: Sequence[float]) -> int:
    """State index (0-based) whose center is nearest to ``xi``.

    Boundary points go to the smallest index, so exactly one state occurs for
    every realization.
    """
    point = np.asarray(xi, dtype=float).ravel()
    if point.shape[0] != partition.dimension:
        raise DimensionMismatch(
            f"point has dimension {point.shape[0]}, partition has {partition.dimension}"
        )
    if not np.all(np.isfinite(point)):
        raise NonFiniteCoordinate(f"cannot classify a non-finite point {point.tolist()}")
    return int(nearest_center(point[None, :], partition.centers)[0][0])


def size_of_state(scenarios: ScenarioSet, subset: Sequence[int]) -> float:
    """Variance-weighted probability mass of a state over the given scenarios.

    Sum of ``weight * squared distance to the subset barycentre`` over the
    subset; zero for singletons, the total variance for the full set.
    """
    idx = np.asarray(list(subset), dtype=int)
    if idx.size == 0:
        raise EmptySubset("size of an empty state is undefined")
    omega = barycentre(scenarios, idx)
    dev = scenarios.points[idx] - omega
    return float(scenarios.weights[idx] @ np.einsum("lk,lk->l", dev, dev))


def partition_objective(scenarios: ScenarioSet, partition: StatePartition) -> float:
    """Total size of the partition: sum of state sizes over the induced cells.

    Recomputes each cell's barycentre, so this equals the nearest-center cost
    only when the partition is centroidal.
    """
    assignment, _ = nearest_center(scenarios.points, partition.centers)
    total = 0.0
    for s in range(partition.num_states):
        members = np.flatnonzero(assignment == s)
        if members.size == 0:
            raise EmptyState(f"state {s} owns no scenario point")
        total += size_of_state(scenarios, members)
    return total


PROVENANCES = ("oracle", "dp1d", "lloyd", "external")


@dataclass(frozen=True)
class QuantizationSolution:
    """A solved partition with its solver's lower bound and provenance.

    The assignment, distances and objective are those of the partition's
    cells. ``lower_bound`` equals the objective for certified-optimal solvers
    and is None for heuristics. ``provenance`` is one of PROVENANCES.
    """

    partition: StatePartition
    lower_bound: float | None
    provenance: str

    @property
    def assignment(self) -> np.ndarray:
        return self.partition.assignment

    @property
    def distances(self) -> np.ndarray:
        return self.partition.distances

    @property
    def objective(self) -> float:
        return float(self.partition.scenarios.weights @ self.distances)

    @property
    def num_states(self) -> int:
        return self.partition.num_states

    def state_masses(self) -> np.ndarray:
        w = self.partition.scenarios.weights
        return np.bincount(self.assignment, weights=w, minlength=self.num_states)

    def to_dict(self) -> dict:
        return {
            **self.partition.to_dict(),
            "num_states": self.num_states,
            "assignment": self.assignment.tolist(),
            "distances": self.distances.tolist(),
            "objective": self.objective,
            "lower_bound": self.lower_bound,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QuantizationSolution":
        """Read a solution file, checking its stored cells against the partition.

        The assignment must equal the partition's cells exactly; distances and
        the objective must match within 1e-9. A lower bound must be finite and
        at most the objective + 1e-9, and the provenance one of PROVENANCES.
        """
        solution = cls(
            partition=StatePartition.from_dict(payload),
            lower_bound=(None if payload.get("lower_bound") is None
                         else number(payload["lower_bound"])),
            provenance=str(payload["provenance"]),
        )
        if not np.array_equal(np.asarray(numbers(payload["assignment"])), solution.assignment):
            raise ValueError("stored assignment disagrees with the partition's cells")
        distances = np.asarray(numbers(payload["distances"]), dtype=float)
        if distances.shape != solution.distances.shape or not np.allclose(
            distances, solution.distances, rtol=0.0, atol=1e-9
        ):
            raise ValueError("stored distances disagree with nearest-center distances")
        objective = number(payload["objective"])
        if not math.isclose(objective, solution.objective, rel_tol=0.0, abs_tol=1e-9):
            raise ValueError("objective disagrees with weighted distances")
        bound = solution.lower_bound
        if bound is not None and not (
            math.isfinite(bound) and bound <= solution.objective + 1e-9
        ):
            raise ValueError(f"lower_bound {bound!r} exceeds the objective or is not finite")
        if solution.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {solution.provenance!r}")
        return solution
