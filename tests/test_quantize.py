"""Partition primitives: state size, objective, classification, invariants."""

import numpy as np
import pytest

from statemarket.errors import EmptyState, EmptySubset, NonFiniteCoordinate, SExceedsSupport
from statemarket.quantize import (
    QuantizationSolution,
    StatePartition,
    classify,
    partition_objective,
    size_of_state,
    solve_exact,
)
from statemarket.quantize.partition import nearest_center
from statemarket.scenarios import ScenarioSet

from oracles import best_partition_bruteforce, blocks_cost


def equal_weight_set(points) -> ScenarioSet:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    count = points.shape[0]
    return ScenarioSet(points, np.full(count, 1.0 / count))


def test_size_singleton_is_zero():
    scen = equal_weight_set([[1.0, 2.0], [3.0, 4.0]])
    assert size_of_state(scen, [0]) == 0.0


def test_size_symmetric_pair():
    scen = ScenarioSet(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
    assert size_of_state(scen, [0, 1]) == pytest.approx(1.0, abs=1e-15)


def test_size_matches_two_pass_oracle():
    rng = np.random.default_rng(21)
    points = rng.uniform(0, 10, (6, 2))
    raw = rng.random(6) + 0.1
    weights = raw / raw.sum()
    scen = ScenarioSet(points, weights)
    subset = [0, 2, 3, 5]
    expected = blocks_cost(points.tolist(), weights.tolist(), [tuple(subset)])
    assert size_of_state(scen, subset) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(EmptySubset):
        size_of_state(scen, [])


def test_partition_objective_perfect_quantization():
    scen = equal_weight_set([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    partition = StatePartition(scen.points.copy(), scen)
    assert partition_objective(scen, partition) == 0.0


def test_partition_objective_single_cell_is_total_variance():
    rng = np.random.default_rng(5)
    scen = equal_weight_set(rng.normal(0, 2, (7, 2)))
    partition = StatePartition(scen.mean()[None, :], scen)
    total_var = size_of_state(scen, range(7))
    assert partition_objective(scen, partition) == pytest.approx(total_var, abs=1e-12)


def test_partition_objective_matches_bipartition_oracle():
    rng = np.random.default_rng(8)
    scen = equal_weight_set(rng.uniform(0, 4, (5, 2)))
    solution = solve_exact(scen, 2)
    best, _ = best_partition_bruteforce(
        scen.points.tolist(), scen.weights.tolist(), 2
    )
    assert partition_objective(scen, solution.partition) == pytest.approx(best, abs=1e-9)


def test_partition_objective_empty_state():
    scen = equal_weight_set([[0.0], [1.0]])
    # second center is far away and owns nothing
    with pytest.raises(EmptyState):
        StatePartition(np.array([[0.5], [100.0]]), scen)


def test_classify_tie_goes_to_smallest_index():
    scen = ScenarioSet(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
    partition = StatePartition(np.array([[0.0], [2.0]]), scen)
    assert classify(partition, [1.0]) == 0


@pytest.mark.parametrize("xi", [[float("nan"), float("nan")], [9.0, float("nan")]])
def test_classify_rejects_a_non_finite_point(xi):
    scen = equal_weight_set([[0.0, 0.0], [10.0, 0.0]])
    partition = StatePartition(scen.points.copy(), scen)
    with pytest.raises(NonFiniteCoordinate):
        classify(partition, xi)


def test_classify_zero_distance():
    scen = equal_weight_set([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    partition = StatePartition(scen.points.copy(), scen)
    assert classify(partition, scen.points[2]) == 2


def test_classify_matches_explicit_distance_argmin():
    rng = np.random.default_rng(17)
    scen = equal_weight_set(rng.uniform(0, 10, (12, 3)))
    solution = solve_exact(scen, 4)
    for _ in range(50):
        probe = rng.uniform(0, 10, 3)
        distances = [
            sum((probe[j] - c[j]) ** 2 for j in range(3))
            for c in solution.partition.centers
        ]
        assert classify(solution.partition, probe) == int(np.argmin(distances))


def dense_nearest_center(points, centers):
    """The L x S x k einsum-then-argmin kernel that nearest_center replaced."""
    diff = points[:, None, :] - centers[None, :, :]
    d2 = np.einsum("lsk,lsk->ls", diff, diff)
    assignment = np.argmin(d2, axis=1)
    return assignment, d2[np.arange(points.shape[0]), assignment]


def assert_matches_dense_kernel(points, centers):
    assignment, d2 = nearest_center(points, centers)
    expected_assignment, expected_d2 = dense_nearest_center(points, centers)
    assert assignment.dtype == np.intp
    assert np.array_equal(assignment, expected_assignment)
    assert np.array_equal(d2, expected_d2)
    return assignment


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("states", [1, 2, 8])
def test_nearest_center_matches_dense_kernel_bitwise(dim, states):
    rng = np.random.default_rng(100 * dim + states)
    for scale in (1e-3, 1.0, 1e3):
        points = rng.normal(size=(257, dim)) * scale
        centers = rng.normal(size=(states, dim)) * scale
        assert_matches_dense_kernel(points, centers)
        assert_matches_dense_kernel(points[:1], centers)  # a single point
    # integer grids: many points are exactly equidistant from several centers
    grid = rng.integers(-3, 4, (400, dim)).astype(float)
    centers = rng.permutation(np.unique(grid, axis=0))[:states]
    assert_matches_dense_kernel(grid, centers)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("states", [257, 607])
def test_nearest_center_past_256_centers_matches_dense_kernel_bitwise(dim, states):
    # indices above 255 need the running index wider than uint8
    rng = np.random.default_rng(10 * dim + states)
    points = rng.normal(size=(2000, dim))
    centers = rng.normal(size=(states, dim))
    assignment = assert_matches_dense_kernel(points, centers)
    assert assignment.max() > 255


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_nearest_center_ties_go_to_smallest_index(dim):
    unit = np.eye(dim)
    far = np.full((1, dim), 50.0)
    # center 0 is far away; centers 1 and 2 (and 3 for k >= 2) sit at distance 1
    # from the origin, so the origin is a two- or three-way tie won by index 1
    centers = np.vstack([far, unit[0], -unit[0]] + ([unit[1]] if dim > 1 else []))
    points = np.zeros((3, dim))
    points[1, 0] = 0.5  # nearer to index 1
    points[2, 0] = -0.5  # nearer to index 2
    assignment = assert_matches_dense_kernel(points, centers)
    assert assignment.tolist() == [1, 1, 2]
    # the same tie reversed: the smaller index still wins
    assignment = assert_matches_dense_kernel(np.zeros((1, dim)), centers[[0, 2, 1]])
    assert assignment.tolist() == [1]


def test_each_center_lies_in_its_own_cell():
    rng = np.random.default_rng(23)
    scen = equal_weight_set(rng.uniform(0, 10, (10, 2)))
    solution = solve_exact(scen, 3)
    for s, center in enumerate(solution.partition.centers):
        assert classify(solution.partition, center) == s


def test_partition_axioms_on_probe_grid():
    rng = np.random.default_rng(29)
    scen = equal_weight_set(rng.uniform(0, 10, (9, 2)))
    solution = solve_exact(scen, 3)
    grid = np.linspace(-1, 11, 40)
    seen = set()
    for gx in grid:
        for gy in grid:
            state = classify(solution.partition, [gx, gy])
            assert 0 <= state < solution.num_states  # cover, single-valued
            seen.add(state)
    assert seen == set(range(solution.num_states))


def test_distinct_center_validation():
    scen = equal_weight_set([[0.0], [1.0]])
    with pytest.raises(ValueError):
        StatePartition(np.array([[0.5], [0.5]]), scen)


def test_solution_invariant_validation():
    # The middle point is equidistant from both centers, so the tie rule puts
    # it in state 0; moving it to state 1 keeps distances and objective.
    scen = equal_weight_set([[0.0], [2.0], [4.0]])
    partition = StatePartition(np.array([[0.0], [4.0]]), scen)
    payload = QuantizationSolution(partition, None, "external").to_dict()
    assert payload["assignment"] == [0, 0, 1]
    assert QuantizationSolution.from_dict(payload).objective == payload["objective"]
    tampered = [
        {**payload, "distances": [0.0, 3.0, 0.0]},
        {**payload, "assignment": [0, 1, 1]},
        {**payload, "objective": payload["objective"] + 0.5},
    ]
    for bad in tampered:
        with pytest.raises(ValueError):
            QuantizationSolution.from_dict(bad)


def test_partition_json_round_trip():
    rng = np.random.default_rng(30)
    scen = equal_weight_set(rng.uniform(0, 10, (6, 2)))
    partition = solve_exact(scen, 2).partition
    clone = StatePartition.from_dict(partition.to_dict())
    assert np.array_equal(clone.centers, partition.centers)
    assert np.array_equal(clone.scenarios.points, partition.scenarios.points)


def test_solution_json_round_trip():
    rng = np.random.default_rng(31)
    scen = equal_weight_set(rng.uniform(0, 10, (8, 2)))
    solution = solve_exact(scen, 3)
    clone = QuantizationSolution.from_dict(solution.to_dict())
    assert np.array_equal(clone.partition.centers, solution.partition.centers)
    assert np.array_equal(clone.assignment, solution.assignment)
    assert clone.objective == solution.objective
    assert clone.lower_bound == solution.lower_bound
    assert clone.provenance == solution.provenance


def test_s_exceeds_support():
    scen = ScenarioSet(
        np.array([[1.0], [1.0], [2.0]]), np.array([0.25, 0.25, 0.5])
    )
    with pytest.raises(SExceedsSupport):
        solve_exact(scen, 3)  # only two distinct support points
