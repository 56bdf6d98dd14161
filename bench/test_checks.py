"""Tests of the benchmark's own output checks and tracing.

Run from the repository root: ``python3 -m pytest -q bench/test_checks.py``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from statemarket import quantize  # noqa: E402
from statemarket.clearing import core  # noqa: E402
from statemarket.market import ContractGrid, assemble_welfare  # noqa: E402
from statemarket.scenarios import ScenarioSet  # noqa: E402


@pytest.fixture(scope="module")
def convex_market():
    workload = workloads.ClearConvex()
    program = assemble_welfare(workload.build(seed=0, index=0), workload.dims)
    return program, core.clear(program)


def test_clearing_check_passes_on_program_output(convex_market):
    program, result = convex_market
    assert checks.check_clearing(program, result, require_equilibrium=True) == []


def test_perturbed_price_is_flagged(convex_market):
    program, result = convex_market
    traded = np.abs(result.allocations[program.bids[0].agent_id].values)
    coord = np.unravel_index(np.argmax(traded), traded.shape)
    assert traded[coord] > 0
    prices = result.prices.values.copy()
    prices[coord] += 1.0
    tampered = dataclasses.replace(result, prices=ContractGrid(prices))
    problems = checks.check_clearing(program, tampered, require_equilibrium=True)
    assert any("surplus" in p for p in problems)


def test_broken_certificate_is_flagged(convex_market):
    program, result = convex_market
    tampered = dataclasses.replace(result, welfare=result.welfare + 1.0)
    problems = checks.check_clearing(program, tampered, require_equilibrium=True)
    assert any("best responses" in p for p in problems)


def test_commitment_welfare_matches_highs():
    pytest.importorskip("scipy")
    workload = workloads.ClearCommit()
    program = assemble_welfare(workload.build(seed=0, index=0), workload.dims)
    result = core.clear(program)
    reference = checks.highs_reference_welfare(program)
    assert checks.compare_welfare(result.welfare, reference) == []
    assert checks.compare_welfare(result.welfare + 1e-2, reference) != []


@pytest.fixture(scope="module")
def lloyd_solution():
    rng = np.random.default_rng(3)
    points = np.vstack([rng.normal(0.0, 1.0, (200, 2)), rng.normal(6.0, 1.0, (200, 2))])
    weights = rng.random(400) + 0.5
    return quantize.solve_lloyd(ScenarioSet(points, weights / weights.sum()), 4, restarts=2, seed=1)


def _fixed_point_problems(solution, centers=None, assignment=None):
    scen = solution.partition.scenarios
    return checks.check_lloyd_fixed_point(
        scen.points,
        scen.weights,
        solution.partition.centers if centers is None else centers,
        solution.assignment if assignment is None else assignment,
    )


def test_lloyd_solution_is_a_fixed_point(lloyd_solution):
    assert _fixed_point_problems(lloyd_solution) == []


def test_lloyd_solution_moved_off_its_fixed_point_is_flagged(lloyd_solution):
    centers = lloyd_solution.partition.centers.copy()
    centers[0] += 0.05
    assert any("barycentre" in p for p in _fixed_point_problems(lloyd_solution, centers=centers))
    assignment = lloyd_solution.assignment.copy()
    assignment[0] = (assignment[0] + 1) % lloyd_solution.num_states
    assert any("nearest" in p for p in _fixed_point_problems(lloyd_solution, assignment=assignment))


def test_repeat_objective_must_be_bit_identical():
    assert checks.compare_repeat(1.25, 1.25) == []
    assert checks.compare_repeat(1.25, float(np.nextafter(1.25, 2.0))) != []


def test_pipeline_checks():
    partition = json.dumps({"objective": 1.5, "lower_bound": 1.5, "metadata": {"created_at": "a"}})
    assert checks.check_pipeline({"ingest": 0, "clear": 0}, {"partition.json": partition}) == []
    assert checks.check_pipeline({"clear": 3}, {}) == ["clear exited 3"]
    uncertified = json.dumps({"objective": 1.5, "lower_bound": None})
    assert checks.check_pipeline({}, {"partition.json": uncertified}) != []

    restamped = json.dumps({"objective": 1.5, "lower_bound": 1.5, "metadata": {"created_at": "b"}})
    assert checks.compare_outputs({"partition.json": partition}, {"partition.json": restamped}) == []
    changed = json.dumps({"objective": 1.25, "lower_bound": 1.5, "metadata": {"created_at": "a"}})
    assert checks.compare_outputs({"partition.json": partition}, {"partition.json": changed}) != []


def test_tracing_attributes_lps_and_restores_the_program():
    workload = workloads.ClearConvex()
    bids = workload.build(seed=0, index=1)
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.WRAPPED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        with tracer.span("op"):
            workload.run(bids, None, tracer.span)
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.WRAPPED] == originals
    layers = tracing.layer_metrics(tracer.finished(), ops=1, overhead_frac=0.0, scale=1.0)
    assert layers["clearing.cells"] == 1
    assert layers["clearing.verify_lps"] == len(bids)
    assert (layers["market.lp_vars"], layers["market.lp_rows"]) == (290, 120)
    assert set(layers) == set(run.PER_LAYER)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    import worker

    tail = worker._tail([float(i) for i in range(30, 0, -1)])
    assert (tail["value"], tail["beyond"], tail["samples"]) == (20.0, 10, 30)
    assert tail["percentile"] == pytest.approx(200.0 / 3.0)


def test_each_op_is_rescaled_by_the_kernel_samples_nearest_to_it():
    from calibration import LOCAL_SAMPLES, REFERENCE_KERNEL_S, Calibration

    calibration = Calibration()
    calibration.taken_at = [float(t) for t in range(20)]
    calibration.samples = [REFERENCE_KERNEL_S] * 10 + [2 * REFERENCE_KERNEL_S] * 10
    early, late = calibration.local_scales([0.0, 19.0])
    assert (early, late) == (1.0, 0.5)
    assert LOCAL_SAMPLES < 10
