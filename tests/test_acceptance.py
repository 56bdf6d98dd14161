"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; tolerances are fixed here and nowhere else.
"""

import csv
import json
import time

import numpy as np
import pytest

from statemarket.cli import fixture_path, main
from statemarket.clearing import clear, welfare_equivalence_check
from statemarket.market import (
    ContractGrid,
    assemble_welfare,
    load_bids_json,
    payment,
    valuation,
)
from statemarket.quantize import (
    classify,
    evaluate_miqp,
    export_miqp,
    solve_dp_1d,
    solve_exact,
    solve_lloyd,
)
from statemarket.quantize.partition import nearest_center
from statemarket.scenarios import ScenarioSet, barycentre, load_scenarios_csv

from instances import DEGENERATE_PI1, PRICE_FORMATION_TABLE, commitment_bids
from oracles import best_partition_bruteforce

SCENARIOS_FIXTURE = fixture_path("scenarios_northsea_39x2.csv")
PRICE_BIDS_FIXTURE = fixture_path("bids_price_formation.json")


def report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion}] PASS: {text}")


def test_criterion_1_price_formation_table(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "sweep.json"
    assert main(["clear", "--bids", str(PRICE_BIDS_FIXTURE), "--sweep-pi",
                 "--out", str(out)]) == 0
    with open(out.with_suffix(".prices.csv")) as handle:
        rows = {float(r["pi1"]): r for r in csv.DictReader(handle)}
    assert len(rows) == 11

    columns = (
        "x_wind_farm_1", "x_wind_farm_2", "x_load_1", "x_load_2",
        "z_advance_generator_output", "lambda_1", "lambda_2",
    )
    for pi1, expected in PRICE_FORMATION_TABLE.items():
        if pi1 in DEGENERATE_PI1:
            continue
        got = tuple(float(rows[pi1][c]) for c in columns)
        assert got == pytest.approx(expected, abs=1e-6), f"pi1={pi1}: {got}"

    sweep_payload = json.loads(out.read_text())["sweep"]
    bids, dims = load_bids_json(PRICE_BIDS_FIXTURE)
    for entry in sweep_payload:
        pi1 = entry["pi1"]
        if pi1 not in DEGENERATE_PI1:
            continue
        verification = entry["result"]["verification"]
        assert max(verification["gaps"].values()) <= 1e-6
        x11, x12, x21, x22, z3, _, _ = PRICE_FORMATION_TABLE[pi1]
        table_welfare = 0.0
        for bid, quantities in zip(bids, [(x11, x12), (x21, x22), (z3, z3)]):
            beliefs = np.array([pi1, 1.0 - pi1])
            from dataclasses import replace

            swept = replace(bid, beliefs=beliefs)
            z = {"output": z3} if bid.decisions else {}
            table_welfare += valuation(
                swept, ContractGrid(np.array([[list(quantities)]])), z
            )
        assert entry["result"]["welfare"] == pytest.approx(table_welfare, abs=1e-6)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"sweep took {elapsed:.2f}s"
    report(1, f"11-row price table reproduced, degenerate rows verified "
              f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_worked_examples():
    started = time.perf_counter()
    prices = ContractGrid(np.array([[[10.0, 20.0]]]))
    wind = payment(prices, ContractGrid(np.array([[[-10.0, -5.0]]])))
    load = payment(prices, ContractGrid(np.array([[[10.0, 10.0]]])))
    assert wind == -200.0
    assert load == 300.0

    bids, dims = commitment_bids("expectation")
    program = assemble_welfare(bids, dims)
    result = clear(program)
    plant_x = result.allocations["thermal_plant"].values.ravel()
    assert result.decisions["thermal_plant"]["on"] == 1.0
    assert tuple(plant_x) == pytest.approx((-10.0, -20.0), abs=1e-9)
    assert result.surplus["thermal_plant"] == pytest.approx(50.0, abs=1e-9)

    bids_wc, dims_wc = commitment_bids("worst_case")
    result_wc = clear(assemble_welfare(bids_wc, dims_wc))
    on = result_wc.decisions["thermal_plant"]["on"]
    x_wc = tuple(np.round(result_wc.allocations["thermal_plant"].values.ravel(), 9))
    assert (on, x_wc) in {(0.0, (0.0, 0.0)), (1.0, (-10.0, -10.0))}
    profit = result_wc.surplus["thermal_plant"]
    assert profit == pytest.approx(0.0, abs=1e-9)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, f"payments 200/300, commitment optimum (z*=1, x*=(-10,-20), "
              f"profit 50), worst-case optimum returned ({elapsed * 1000:.0f} ms)")


def test_criterion_3_equilibrium_welfare_equivalence():
    from instances import random_convex_market

    started = time.perf_counter()
    for seed in range(100):
        bids, dims = random_convex_market(seed)
        program = assemble_welfare(bids, dims)
        result = clear(program)
        report_ = result.verification
        assert max(report_.gaps.values()) <= 1e-6, f"seed={seed}"
        assert report_.budget_residual <= 1e-6, f"seed={seed}"
        assert min(result.surplus.values()) >= -1e-6, f"seed={seed}"
        assert welfare_equivalence_check(program, result, tol=1e-6), f"seed={seed}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(3, f"100 random convex markets: equilibrium welfare = central optimum, "
              f"budget balanced, individually rational ({elapsed:.1f} s)")


def test_criterion_4_quantizer_oracle_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    lloyd_hits = 0
    total = 200
    for trial in range(total):
        count = int(rng.integers(3, 11))
        dim = int(rng.integers(1, 4))
        points = rng.uniform(0.0, 10.0, (count, dim))
        raw = rng.random(count) + 0.1
        scen = ScenarioSet(points, raw / raw.sum())
        states = int(rng.integers(1, 5))
        states = min(states, count)

        exact = solve_exact(scen, states)
        oracle_best, _ = best_partition_bruteforce(
            points.tolist(), (raw / raw.sum()).tolist(), states
        )
        assert exact.objective == pytest.approx(oracle_best, abs=1e-9), f"trial={trial}"

        if dim == 1:
            dp = solve_dp_1d(scen, states)
            assert dp.objective == pytest.approx(exact.objective, abs=1e-9)

        heuristic = solve_lloyd(scen, states, restarts=64, seed=trial)
        assert heuristic.objective <= 1.05 * exact.objective + 1e-9, f"trial={trial}"
        if heuristic.objective <= exact.objective + 1e-9:
            lloyd_hits += 1
    elapsed = time.perf_counter() - started
    assert lloyd_hits >= 0.9 * total, f"lloyd optimal on only {lloyd_hits}/{total}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(4, f"200 instances: exact = brute-force oracle, dp1d = exact on k=1, "
              f"lloyd optimal on {lloyd_hits}/200 ({elapsed:.1f} s)")


def test_criterion_5_fixture_partition_properties():
    scen = load_scenarios_csv(SCENARIOS_FIXTURE)
    lo = scen.points.min(axis=0)
    hi = scen.points.max(axis=0)
    grid_x = np.linspace(lo[0], hi[0], 200)
    grid_y = np.linspace(lo[1], hi[1], 200)
    probes = np.array([[gx, gy] for gx in grid_x for gy in grid_y])

    objectives = {}
    for states in (2, 3, 4):
        solution = solve_lloyd(scen, states, restarts=64, seed=0)
        objectives[states] = solution.objective
        for s in range(states):
            members = np.flatnonzero(solution.assignment == s)
            assert members.size > 0
            centre = barycentre(scen, members)
            assert np.max(np.abs(centre - solution.partition.centers[s])) <= 1e-9
        assignment, _ = nearest_center(probes, solution.partition.centers)
        assert assignment.min() >= 0 and assignment.max() < states  # cover
        assert set(np.unique(assignment)) == set(range(states))
        sample = probes[:: len(probes) // 200]
        for probe in sample:  # the public classifier agrees with the kernel
            assert classify(solution.partition, probe) == int(
                nearest_center(probe[None, :], solution.partition.centers)[0][0]
            )
    assert objectives[4] < objectives[3] < objectives[2]
    report(5, f"fixture partitions S=2,3,4 centroidal, axioms hold on 200x200 grid, "
              f"objectives {objectives[2]:.3f} > {objectives[3]:.3f} > {objectives[4]:.3f}")


def test_criterion_6_miqp_round_trip():
    rng = np.random.default_rng(99)
    for trial in range(20):
        count = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 4))
        points = rng.uniform(0.0, 12.0, (count, dim))
        raw = rng.random(count) + 0.1
        scen = ScenarioSet(points, raw / raw.sum())
        states = min(int(rng.integers(1, 5)), count)
        solution = solve_exact(scen, states)
        text = export_miqp(scen, states)
        value = evaluate_miqp(text, solution.partition.centers, solution.assignment)
        assert value == pytest.approx(solution.objective, abs=1e-9), f"trial={trial}"
    report(6, "20 exported models evaluate to the solver objective within 1e-9")


def test_criterion_7_pipeline_determinism(tmp_path):
    captures = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        root.mkdir()
        ingest_out = root / "scenarios.csv"
        part_out = root / "part.json"
        sweep_out = root / "sweep.json"
        assert main(["ingest", "--scenarios", str(SCENARIOS_FIXTURE),
                     "--out", str(ingest_out)]) == 0
        assert main(["partition", "--scenarios", str(ingest_out), "--states", "3",
                     "--solver", "lloyd", "--restarts", "64", "--seed", "0",
                     "--svg", str(root / "part.svg"), "--out", str(part_out)]) == 0
        assert main(["clear", "--bids", str(PRICE_BIDS_FIXTURE), "--sweep-pi",
                     "--out", str(sweep_out)]) == 0

        def canonical(path):
            payload = json.loads(path.read_text())
            payload.pop("metadata", None)
            return json.dumps(payload, sort_keys=True)

        captures.append(
            (
                ingest_out.read_bytes(),
                canonical(part_out),
                canonical(sweep_out),
                (root / "part.svg").read_bytes(),
                (root / "sweep.prices.csv").read_bytes(),
                part_out.with_suffix(".states.txt").read_bytes(),
            )
        )
    assert captures[0] == captures[1]
    report(7, "two pipeline runs byte-identical (timestamp metadata excluded)")
