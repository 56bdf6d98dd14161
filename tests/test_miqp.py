"""MIQP text export: model structure, big-M, and evaluation round-trips."""

import numpy as np
import pytest

from statemarket.errors import NonPositiveM
from statemarket.quantize import (
    auto_big_m,
    evaluate_miqp,
    export_miqp,
    parse_miqp,
    solve_exact,
)
from statemarket.scenarios import ScenarioSet


def equal_weight_set(points) -> ScenarioSet:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    count = points.shape[0]
    return ScenarioSet(points, np.full(count, 1.0 / count))


def test_smallest_model_structure():
    scen = equal_weight_set([[0.0], [3.0]])
    model = parse_miqp(export_miqp(scen, 1))
    center_vars = [v for v in model["bounds"] if v.startswith("omega")]
    distance_vars = [v for v in model["bounds"] if v.startswith("d_")]
    assert len(center_vars) == 1
    assert len(distance_vars) == 2
    assert len(model["binaries"]) == 2
    assert len(model["constraints"]) == 2 + 2  # assignment rows + distance rows
    assert model["sizes"] == (2, 1, 1)


def test_case_study_model_dimensions():
    rng = np.random.default_rng(1)
    scen = ScenarioSet(rng.uniform(4, 14, (39, 2)), np.full(39, 1.0 / 39))
    model = parse_miqp(export_miqp(scen, 3))
    center_vars = [v for v in model["bounds"] if v.startswith("omega")]
    distance_vars = [v for v in model["bounds"] if v.startswith("d_")]
    assert len(center_vars) == 6
    assert len(distance_vars) == 39
    assert len(model["binaries"]) == 117


def test_auto_big_m_unit_square():
    scen = equal_weight_set([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    assert auto_big_m(scen) == pytest.approx(2.0, abs=1e-15)
    model = parse_miqp(export_miqp(scen, 2))
    assert model["big_m"] == pytest.approx(2.0, abs=1e-15)


def test_explicit_nonpositive_m_rejected():
    scen = equal_weight_set([[0.0], [1.0]])
    with pytest.raises(NonPositiveM):
        export_miqp(scen, 1, big_m=0.0)
    with pytest.raises(NonPositiveM):
        export_miqp(scen, 1, big_m=-3.0)


@pytest.mark.parametrize("big_m", [float("nan"), float("inf")])
def test_explicit_non_finite_m_rejected(big_m):
    scen = equal_weight_set([[0.0], [1.0]])
    with pytest.raises(NonPositiveM):
        export_miqp(scen, 2, big_m=big_m)


def test_round_trip_matches_solver_objective():
    rng = np.random.default_rng(50)
    for _ in range(20):
        count = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 4))
        states = int(rng.integers(1, min(count, 4) + 1))
        points = rng.uniform(0, 10, (count, dim))
        raw = rng.random(count) + 0.1
        scen = ScenarioSet(points, raw / raw.sum())
        solution = solve_exact(scen, states)
        text = export_miqp(scen, states)
        value = evaluate_miqp(text, solution.partition.centers, solution.assignment)
        assert value == pytest.approx(solution.objective, abs=1e-9)


def test_round_trip_with_explicit_m():
    scen = equal_weight_set([[0.0, 0.0], [4.0, 4.0], [8.0, 0.0]])
    solution = solve_exact(scen, 2)
    text = export_miqp(scen, 2, big_m=500.0)
    value = evaluate_miqp(text, solution.partition.centers, solution.assignment)
    assert value == pytest.approx(solution.objective, abs=1e-9)


def test_export_is_deterministic_text():
    rng = np.random.default_rng(51)
    scen = ScenarioSet(rng.uniform(0, 10, (6, 2)), np.full(6, 1.0 / 6))
    assert export_miqp(scen, 2) == export_miqp(scen, 2)
