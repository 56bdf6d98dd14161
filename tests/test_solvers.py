"""Quantization solvers against independent oracles and solver properties."""

import numpy as np
import pytest

from statemarket.cli import fixture_path
from statemarket.errors import DimensionNotOne, InstanceTooLarge
from statemarket.quantize import (
    classify,
    partition_objective,
    size_of_state,
    solve_dp_1d,
    solve_exact,
    solve_lloyd,
)
from statemarket.quantize import solvers
from statemarket.quantize.partition import nearest_center
from statemarket.quantize.solvers import (
    _assign_with_repair,
    _cell_barycentres,
    _distinct_support,
    _lloyd_single_run,
    _optimal_blocks,
    _seed_centers,
    _subset_costs,
    _weighted_draw,
)
from statemarket.scenarios import ScenarioSet, barycentre, load_scenarios_csv

from oracles import (
    best_partition_bruteforce,
    blocks_cost,
    optimal_blocks_bottom_up,
    scan_barycentres,
)


def equal_weight_set(points) -> ScenarioSet:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    count = points.shape[0]
    return ScenarioSet(points, np.full(count, 1.0 / count))


def random_set(rng, count, dim) -> ScenarioSet:
    points = rng.uniform(0.0, 10.0, (count, dim))
    raw = rng.random(count) + 0.1
    return ScenarioSet(points, raw / raw.sum())


def assert_centroidal(solution, tol=1e-9):
    scen = solution.partition.scenarios
    for s in range(solution.num_states):
        members = np.flatnonzero(solution.assignment == s)
        assert members.size > 0
        cell_centre = barycentre(scen, members)
        assert np.max(np.abs(cell_centre - solution.partition.centers[s])) <= tol


# --- solve_exact ---------------------------------------------------------------

def test_exact_single_state_is_mean_and_variance():
    rng = np.random.default_rng(2)
    scen = random_set(rng, 7, 2)
    solution = solve_exact(scen, 1)
    assert np.allclose(solution.partition.centers[0], scen.mean(), atol=1e-12)
    assert solution.objective == pytest.approx(
        size_of_state(scen, range(7)), abs=1e-12
    )
    assert solution.lower_bound == solution.objective


def test_exact_unit_square_two_states():
    scen = equal_weight_set([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    solution = solve_exact(scen, 2)
    assert solution.objective == pytest.approx(0.25, abs=1e-12)
    centers = {tuple(c) for c in solution.partition.centers}
    assert centers in (
        {(0.5, 0.0), (0.5, 1.0)},  # split along horizontal sides
        {(0.0, 0.5), (1.0, 0.5)},  # split along vertical sides
    )
    # verified against all 7 bipartitions
    best, _ = best_partition_bruteforce(
        scen.points.tolist(), scen.weights.tolist(), 2
    )
    assert best == pytest.approx(0.25, abs=1e-12)


def test_exact_perfect_quantization():
    rng = np.random.default_rng(4)
    scen = random_set(rng, 6, 2)
    solution = solve_exact(scen, 6)
    assert solution.objective == pytest.approx(0.0, abs=1e-12)


def test_exact_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(40)
    for _ in range(25):
        count = int(rng.integers(3, 9))
        dim = int(rng.integers(1, 4))
        states = int(rng.integers(1, min(count, 4) + 1))
        scen = random_set(rng, count, dim)
        solution = solve_exact(scen, states)
        best, _ = best_partition_bruteforce(
            scen.points.tolist(), scen.weights.tolist(), states
        )
        assert solution.objective == pytest.approx(best, abs=1e-9)
        # the returned blocks are themselves optimal under the oracle's formula
        blocks = [
            tuple(np.flatnonzero(solution.assignment == s))
            for s in range(solution.num_states)
        ]
        assert blocks_cost(
            scen.points.tolist(), scen.weights.tolist(), blocks
        ) == pytest.approx(best, abs=1e-9)
        assert_centroidal(solution)


@pytest.mark.parametrize("kind", ["grid", "uniform"])
def test_optimal_blocks_keep_the_bottom_up_tie_rule(kind):
    # integer grids hold many equal-cost partitions, so only the tie rule
    # decides which blocks come back; compare list for list
    rng = np.random.default_rng(41)
    for _ in range(40):
        count = int(rng.integers(1, 11))
        dim = int(rng.integers(1, 4))
        if kind == "grid":
            points = rng.integers(0, 3, (count, dim)).astype(float)
            weights = np.full(count, 1.0 / count)
        else:
            points = rng.uniform(0.0, 1.0, (count, dim))
            raw = rng.random(count) + 0.1
            weights = raw / raw.sum()
        cost = _subset_costs(points, weights)
        for states in range(1, min(count, 5) + 1):
            assert _optimal_blocks(points, weights, states) == optimal_blocks_bottom_up(
                cost, count, states
            ), (points.tolist(), states)


@pytest.mark.parametrize(
    "kind, count, dim",
    [("grid", 11, 1), ("grid", 12, 2), ("uniform", 11, 2), ("uniform", 12, 3)],
)
def test_optimal_blocks_keep_the_bottom_up_tie_rule_at_the_limit(kind, count, dim):
    # the sizes the exact partition runs at, up to S equal to the distinct
    # support, the most states solve_exact accepts
    rng = np.random.default_rng([42, count, dim])
    if kind == "grid":
        points = rng.integers(0, 3, (count, dim)).astype(float)
        weights = np.full(count, 1.0 / count)
    else:
        points = rng.uniform(0.0, 1.0, (count, dim))
        raw = rng.random(count) + 0.1
        weights = raw / raw.sum()
    cost = _subset_costs(points, weights)
    for states in sorted({1, 2, 4, 6, _distinct_support(points)}):
        assert _optimal_blocks(points, weights, states) == optimal_blocks_bottom_up(
            cost, count, states
        ), (points.tolist(), states)


def test_the_cached_submask_tables_are_read_only():
    solve_exact(random_set(np.random.default_rng(7), 6, 2), 3)  # warms the 5-bit tables
    tables = solvers._submask_tables(5)
    assert solvers._submask_tables(5) is tables
    for _, masks, blocks in tables:
        for table in (masks, blocks):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0


def test_exact_instance_too_large():
    rng = np.random.default_rng(6)
    scen = random_set(rng, 13, 2)
    with pytest.raises(InstanceTooLarge):
        solve_exact(scen, 3)


def test_exact_delegates_to_dp_for_large_1d(monkeypatch):
    rng = np.random.default_rng(7)
    scen = random_set(rng, 40, 1)
    counted = []
    count_support = solvers._distinct_support
    monkeypatch.setattr(solvers, "_distinct_support",
                        lambda points: counted.append(1) or count_support(points))
    solution = solve_exact(scen, 3)
    assert solution.provenance == "dp1d"
    assert solution.lower_bound == solution.objective
    assert len(counted) == 1  # the state count is checked once


# --- solve_dp_1d ---------------------------------------------------------------

def test_dp1d_perfect_quantization():
    scen = equal_weight_set([[float(v)] for v in range(10)])
    solution = solve_dp_1d(scen, 10)
    assert solution.objective == pytest.approx(0.0, abs=1e-15)


def test_dp1d_two_cluster_example():
    scen = equal_weight_set([[0.0], [1.0], [8.0], [9.0]])
    solution = solve_dp_1d(scen, 2)
    assert solution.objective == pytest.approx(0.25, abs=1e-12)
    assert np.array_equal(solution.assignment, [0, 0, 1, 1])
    assert np.allclose(solution.partition.centers.ravel(), [0.5, 8.5])
    cross = solve_exact(scen, 2)
    assert cross.objective == pytest.approx(solution.objective, abs=1e-12)


def test_dp1d_single_state_is_variance():
    rng = np.random.default_rng(9)
    scen = random_set(rng, 12, 1)
    solution = solve_dp_1d(scen, 1)
    assert solution.objective == pytest.approx(
        size_of_state(scen, range(12)), abs=1e-12
    )


def test_dp1d_rejects_multidimensional():
    rng = np.random.default_rng(10)
    with pytest.raises(DimensionNotOne):
        solve_dp_1d(random_set(rng, 5, 2), 2)


def test_dp1d_agrees_with_exact_on_random_instances():
    rng = np.random.default_rng(41)
    for _ in range(20):
        count = int(rng.integers(3, 11))
        states = int(rng.integers(1, min(count, 4) + 1))
        scen = random_set(rng, count, 1)
        a = solve_dp_1d(scen, states)
        b = solve_exact(scen, states)
        assert a.objective == pytest.approx(b.objective, abs=1e-9)
        assert_centroidal(a)


def test_dp1d_handles_duplicate_points():
    scen = ScenarioSet(
        np.array([[1.0], [1.0], [5.0], [9.0]]), np.array([0.3, 0.3, 0.2, 0.2])
    )
    solution = solve_dp_1d(scen, 2)
    best, _ = best_partition_bruteforce(
        scen.points.tolist(), scen.weights.tolist(), 2
    )
    assert solution.objective == pytest.approx(best, abs=1e-12)


# --- solve_lloyd ---------------------------------------------------------------

def test_lloyd_single_state_is_mean():
    rng = np.random.default_rng(12)
    scen = random_set(rng, 9, 2)
    solution = solve_lloyd(scen, 1, restarts=1, seed=0)
    assert np.allclose(solution.partition.centers[0], scen.mean(), atol=1e-12)


def test_lloyd_rejects_a_negative_seed():
    scen = random_set(np.random.default_rng(14), 6, 2)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        solve_lloyd(scen, 2, restarts=1, seed=-1)


def test_lloyd_deterministic_for_fixed_seed():
    rng = np.random.default_rng(13)
    scen = random_set(rng, 20, 2)
    a = solve_lloyd(scen, 4, restarts=8, seed=5)
    b = solve_lloyd(scen, 4, restarts=8, seed=5)
    assert np.array_equal(a.partition.centers, b.partition.centers)
    assert np.array_equal(a.assignment, b.assignment)
    assert a.objective == b.objective


def test_lloyd_never_beats_exact_and_usually_matches():
    rng = np.random.default_rng(42)
    hits = 0
    trials = 20
    for _ in range(trials):
        count = int(rng.integers(4, 11))
        states = int(rng.integers(2, min(count, 4) + 1))
        scen = random_set(rng, count, 2)
        exact = solve_exact(scen, states)
        heuristic = solve_lloyd(scen, states, restarts=64, seed=1)
        assert heuristic.objective >= exact.objective - 1e-9
        assert heuristic.objective <= 1.05 * exact.objective + 1e-9
        if heuristic.objective <= exact.objective + 1e-9:
            hits += 1
    assert hits >= 0.9 * trials


def test_lloyd_objective_monotone_within_run():
    rng = np.random.default_rng(14)
    scen = random_set(rng, 30, 2)
    for restart in range(5):
        gen = np.random.default_rng([3, restart])
        _, _, history = _lloyd_single_run(scen.points, scen.weights, 4, gen)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_assignment_repair_moves_an_idle_center_onto_the_worst_served_point():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0], [4.0, 1.0], [9.0, 3.0]])
    weights = np.array([0.1, 0.2, 0.3, 0.2, 0.2])
    centers = np.array([[0.5, 0.0], [50.0, 50.0], [4.0, 0.5]])  # the second owns nothing
    before, d2_before = nearest_center(points, centers)
    assert 1 not in before
    worst = int(np.argmax(d2_before))
    assignment, d2, repaired, counts = _assign_with_repair(points, centers, 3)
    assert np.array_equal(repaired[1], points[worst])
    assert np.array_equal(np.delete(repaired, 1, axis=0), np.delete(centers, 1, axis=0))
    assert np.array_equal(counts, np.bincount(assignment, minlength=3)) and counts.all()
    assert weights @ d2 <= weights @ d2_before
    assert centers[1].tolist() == [50.0, 50.0]  # the caller's centers are not modified


def test_lloyd_converged_solution_is_centroidal():
    rng = np.random.default_rng(15)
    scen = random_set(rng, 25, 2)
    solution = solve_lloyd(scen, 3, restarts=16, seed=2)
    assert_centroidal(solution, tol=1e-9)
    assert solution.lower_bound is None
    assert solution.provenance == "lloyd"


def test_lloyd_on_fixture_matches_pinned_result():
    # Assignments and objectives of the solver as it was before the kernels
    # became a running-min assignment and gathered barycentres (commit aa7df4b).
    pinned = {
        2: ("010111001001011110111010101010100011011", 2.8142330248183187),
        3: ("020111002001011210221010101011200011012", 2.012906112637362),
        4: ("030121003002012310332020202011300022013", 1.5618384869759867),
    }
    scen = load_scenarios_csv(fixture_path("scenarios_northsea_39x2.csv"))
    for states, (assignment, objective) in pinned.items():
        solution = solve_lloyd(scen, states, restarts=64, seed=0)
        assert "".join(map(str, solution.assignment)) == assignment
        assert solution.objective == pytest.approx(objective, rel=1e-12, abs=0)


def test_lloyd_assignment_follows_tie_rule_in_final_state_order():
    # The point 1 lies halfway between the centers 0 and 2. This run finds the
    # centers in the order (2, 0), so its own tie rule put the point with 2;
    # in the final order (0, 2) the tie rule puts it in state 0, and one more
    # Lloyd step in that order moves both centers to their cells' barycentres.
    points = np.array([[2.0], [3.0], [2.0], [2.0], [2.0], [2.0], [1.0], [0.0]])
    scen = equal_weight_set(points)
    solution = solve_lloyd(scen, 2, restarts=1, seed=431)
    centers = solution.partition.centers
    assert np.array_equal(centers, [[0.5], [13.0 / 6.0]])
    assert np.array_equal(solution.assignment, nearest_center(points, centers)[0])
    assert solution.assignment.tolist() == [
        classify(solution.partition, point) for point in points
    ]
    assert np.array_equal(solution.state_masses(), [0.25, 0.75])
    assert solution.objective == pytest.approx(1.0 / 6.0, rel=1e-12, abs=0)
    assert_centroidal(solution, tol=1e-12)


def test_lloyd_centers_are_their_cells_barycentres_on_tie_data():
    # Integer grids put many points exactly halfway between two centers.
    rng = np.random.default_rng(7)
    for trial in range(300):
        count, dim = int(rng.integers(4, 13)), int(rng.integers(1, 3))
        scen = equal_weight_set(rng.integers(0, 4, (count, dim)))
        support = len({tuple(p) for p in scen.points})
        states = int(rng.integers(1, min(4, support) + 1))
        solution = solve_lloyd(scen, states, restarts=int(rng.integers(1, 4)), seed=trial)
        assert_centroidal(solution, tol=1e-12)


def masked_barycentres(points, weights, assignment, num_states):
    """The per-state boolean-mask barycentres that _cell_barycentres replaced."""
    centers = np.empty((num_states, points.shape[1]))
    for s in range(num_states):
        members = assignment == s
        w = weights[members]
        centers[s] = (w @ points[members]) / w.sum()
    return centers


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cell_barycentres_match_boolean_mask_version_bitwise(dim):
    rng = np.random.default_rng(60 + dim)
    # state 2 has one member; states 0 and 1 are non-contiguous
    assignments = [np.array([0, 1, 0, 2, 1, 0, 1])]
    for count, states in ((200, 5), (10_000, 8)):
        assignment = rng.integers(0, states - 1, count)
        assignment[rng.integers(count)] = states - 1  # a state with one member
        assignments.append(assignment)
    for assignment in assignments:
        states = int(assignment.max()) + 1
        assert np.bincount(assignment).min() >= 1
        scen = random_set(rng, assignment.shape[0], dim)
        centers = _cell_barycentres(scen.points, scen.weights, assignment,
                                    np.bincount(assignment, minlength=states))
        expected = masked_barycentres(scen.points, scen.weights, assignment, states)
        assert np.array_equal(centers, expected)


def assert_matches_scan(points, weights, assignment, num_states):
    centers = _cell_barycentres(points, weights, assignment,
                                np.bincount(assignment, minlength=num_states))
    assert centers.tobytes() == scan_barycentres(points, weights, assignment, num_states).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_cell_barycentres_match_the_scan_per_state_bitwise(dim):
    rng = np.random.default_rng(80 + dim)
    for _ in range(40):
        count, states = int(rng.integers(1, 3000)), int(rng.integers(1, 41))
        states = min(states, count)
        scen = random_set(rng, count, dim)
        points = scen.points * 10.0 ** int(rng.integers(-3, 4))
        # every state occupied, the rest of the labels at random
        assignment = rng.integers(0, states, count)
        assignment[rng.permutation(count)[:states]] = np.arange(states)
        assert_matches_scan(points, scen.weights, assignment, states)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cell_barycentres_match_the_scan_per_state_on_tie_grids(dim):
    # the cells nearest_center draws on an integer grid, whose ties the
    # smallest index wins, with equal weights
    rng = np.random.default_rng(85 + dim)
    for states in (2, 5, 12, 40):
        grid = rng.integers(-4, 5, (900, dim)).astype(float)
        centers = rng.permutation(np.unique(grid, axis=0))[:states]
        assignment, _ = nearest_center(grid, centers)
        weights = np.full(grid.shape[0], 1.0 / grid.shape[0])
        assert_matches_scan(grid, weights, assignment, centers.shape[0])


def test_cell_barycentres_match_the_scan_per_state_past_256_states():
    # more labels than uint8 holds: the sort key widens to uint16
    rng = np.random.default_rng(89)
    points = rng.normal(size=(3000, 1))
    assignment = rng.integers(0, 607, 3000)
    assignment[:607] = np.arange(607)
    assert_matches_scan(points, rng.random(3000) + 0.1, assignment, 607)


def einsum_seed_centers(points, weights, num_states, rng):
    """The k-means++ seeding as it was, with an einsum per drawn center."""
    chosen = [_weighted_draw(rng, weights)]
    d2 = np.einsum("lk,lk->l", points - points[chosen[0]], points - points[chosen[0]])
    while len(chosen) < num_states:
        index = _weighted_draw(rng, weights * d2)
        chosen.append(index)
        diff = points - points[index]
        d2 = np.minimum(d2, np.einsum("lk,lk->l", diff, diff))
    return points[chosen].astype(float).copy()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_seed_centers_match_einsum_version(dim):
    rng = np.random.default_rng(70 + dim)
    for seed in range(20):
        scen = random_set(rng, 200, dim)
        centers = _seed_centers(scen.points, scen.weights, 6, np.random.default_rng(seed))
        expected = einsum_seed_centers(
            scen.points, scen.weights, 6, np.random.default_rng(seed)
        )
        assert np.array_equal(centers, expected)


# --- cross-solver properties ----------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
def test_distinct_support_matches_unique_rows(dim):
    rng = np.random.default_rng(90 + dim)
    signed_zeros = np.array([[0.0], [-0.0]])[rng.integers(0, 2, (40, 1)), 0]
    cases = [
        rng.normal(size=(1, dim)),  # L = 1
        rng.normal(size=(500, dim)),
        rng.integers(0, 3, (500, dim)).astype(float),  # grid full of duplicates
        np.repeat(rng.normal(size=(7, dim)), 5, axis=0)[rng.permutation(35)],
        np.tile(signed_zeros, (1, dim)),  # 0.0 and -0.0 are one coordinate
        np.hstack([signed_zeros, rng.integers(0, 2, (40, dim - 1)).astype(float)]),
    ]
    for points in cases:
        assert _distinct_support(points) == np.unique(points, axis=0).shape[0]


def test_objective_monotone_in_state_count():
    rng = np.random.default_rng(43)
    scen = random_set(rng, 9, 2)
    values = [solve_exact(scen, s).objective for s in range(1, 6)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    scen1 = random_set(rng, 30, 1)
    values1 = [solve_dp_1d(scen1, s).objective for s in range(1, 8)]
    assert all(b <= a + 1e-12 for a, b in zip(values1, values1[1:]))


def test_scale_equivariance():
    rng = np.random.default_rng(44)
    scen = random_set(rng, 8, 2)
    base = solve_exact(scen, 3)
    for factor in (0.5, 3.0):
        scaled = ScenarioSet(scen.points * factor, scen.weights)
        solution = solve_exact(scaled, 3)
        assert solution.objective == pytest.approx(
            factor**2 * base.objective, rel=1e-9
        )
        assert np.allclose(
            solution.partition.centers, factor * base.partition.centers, atol=1e-9
        )


def test_partition_objective_consistent_with_solver_objective():
    rng = np.random.default_rng(45)
    scen = random_set(rng, 10, 2)
    for solver in (lambda: solve_exact(scen, 3), lambda: solve_lloyd(scen, 3, 16, 0)):
        solution = solver()
        assert partition_objective(scen, solution.partition) == pytest.approx(
            solution.objective, abs=1e-9
        )
