"""CLI pipeline: subcommands, exit codes, determinism of written artifacts."""

import csv
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

import pytest
import requests

from statemarket.cli import fixture_path, main


def run(args):
    return main([str(a) for a in args])


def strip_metadata(path):
    payload = json.loads(path.read_text())
    payload.pop("metadata", None)
    return json.dumps(payload, sort_keys=True)


SCENARIOS = fixture_path("scenarios_northsea_39x2.csv")
PRICE_BIDS = fixture_path("bids_price_formation.json")
COMMIT_BIDS = fixture_path("bids_commitment_expectation.json")


def test_ingest_from_csv_reports_and_roundtrips(tmp_path, capsys):
    out = tmp_path / "scenarios.csv"
    assert run(["ingest", "--scenarios", SCENARIOS, "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "L=39 k=2" in captured
    assert "variance" in captured
    assert out.read_bytes() == SCENARIOS.read_bytes()


def test_ingest_fixture_replay_is_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    run(["ingest", "--scenarios", SCENARIOS, "--out", first])
    run(["ingest", "--scenarios", SCENARIOS, "--out", second])
    assert first.read_bytes() == second.read_bytes()


class _EnsembleHandler(BaseHTTPRequestHandler):
    """Serves 5 members whose values depend on the requested latitude."""

    def do_GET(self):
        query = parse_qs(urlparse(self.path).query)
        latitude = float(query["latitude"][0])
        members = [round(latitude / 10.0 + 0.5 * i, 2) for i in range(5)]
        body = json.dumps(members).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def ensemble_server():
    server = HTTPServer(("127.0.0.1", 0), _EnsembleHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/ensemble"
    server.shutdown()


def test_ingest_live_fetch_two_locations(tmp_path, capsys, ensemble_server):
    out = tmp_path / "fetched.csv"
    code = run(
        [
            "ingest",
            "--endpoint", ensemble_server,
            "--location", "52.0,2.0",
            "--location", "54.0,7.0",
            "--target-time", "2026-02-18T23:00:00",
            "--cache-dir", tmp_path / "cache",
            "--out", out,
        ]
    )
    assert code == 0
    assert "L=5 k=2" in capsys.readouterr().out
    with open(out) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 5
    assert float(rows[0]["xi_1"]) == pytest.approx(5.2)
    assert float(rows[0]["xi_2"]) == pytest.approx(5.4)
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2
    # warm cache: a second run needs no server and is byte-identical
    out2 = tmp_path / "fetched2.csv"
    assert run(
        [
            "ingest",
            "--endpoint", "http://127.0.0.1:1/unreachable",
            "--location", "52.0,2.0",
            "--location", "54.0,7.0",
            "--target-time", "2026-02-18T23:00:00",
            "--cache-dir", tmp_path / "cache",
            "--out", out2,
        ]
    ) == 1  # different endpoint -> different cache key -> network error
    from statemarket.scenarios import fetch_ensemble, write_scenarios_csv

    def refuse(url, params):
        raise AssertionError("network used despite warm cache")

    replay = fetch_ensemble(
        ensemble_server,
        [(52.0, 2.0), (54.0, 7.0)],
        "2026-02-18T23:00:00",
        cache_dir=tmp_path / "cache",
        transport=refuse,
    )
    write_scenarios_csv(replay, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_ingest_bad_endpoint_exit_code(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise requests.ConnectionError("name or service not known")

    monkeypatch.setattr("statemarket.scenarios.requests.get", unreachable)
    code = run(
        [
            "ingest",
            "--endpoint", "https://nonexistent.invalid/api",
            "--location", "52.0,2.0",
            "--target-time", "2026-02-18T23:00:00",
            "--cache-dir", tmp_path / "cache",
            "--out", tmp_path / "out.csv",
        ]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_partition_writes_solution_text_and_svg(tmp_path, capsys):
    objectives = {}
    for states in (2, 3, 4):
        out = tmp_path / f"part_{states}.json"
        svg = tmp_path / f"part_{states}.svg"
        code = run(
            [
                "partition",
                "--scenarios", SCENARIOS,
                "--states", states,
                "--solver", "lloyd",
                "--restarts", 64,
                "--seed", 0,
                "--svg", svg,
                "--out", out,
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        objectives[states] = payload["objective"]
        assert payload["provenance"] == "lloyd"
        assert len(payload["centers"]) == states
        assert svg.exists()
        text = out.with_suffix(".states.txt").read_text()
        assert text.count("probability mass") == states
    assert objectives[4] < objectives[3] < objectives[2]


def test_partition_single_state_objective_is_variance(tmp_path, capsys):
    out = tmp_path / "one.json"
    assert run(
        ["partition", "--scenarios", SCENARIOS, "--states", 1,
         "--solver", "lloyd", "--restarts", 1, "--out", out]
    ) == 0
    payload = json.loads(out.read_text())
    import numpy as np

    from statemarket.quantize import size_of_state
    from statemarket.scenarios import load_scenarios_csv

    scen = load_scenarios_csv(SCENARIOS, 2)
    assert payload["objective"] == pytest.approx(
        size_of_state(scen, range(scen.num_scenarios)), abs=1e-12
    )


def test_partition_text_has_one_decimal_centers(tmp_path):
    out = tmp_path / "p.json"
    run(["partition", "--scenarios", SCENARIOS, "--states", 2, "--out", out])
    text = out.with_suffix(".states.txt").read_text()
    import re

    assert re.search(r"defining point \(\d+\.\d, \d+\.\d\)", text)


def test_clear_sweep_writes_eleven_rows(tmp_path):
    out = tmp_path / "sweep.json"
    assert run(["clear", "--bids", PRICE_BIDS, "--sweep-pi", "--out", out]) == 0
    with open(out.with_suffix(".prices.csv")) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 11
    by_pi = {row["pi1"]: row for row in rows}
    assert float(by_pi["0.6"]["x_wind_farm_1"]) == pytest.approx(-10.0)
    assert float(by_pi["0.6"]["lambda_1"]) == pytest.approx(10.0)
    assert float(by_pi["0.6"]["lambda_2"]) == pytest.approx(40.0)
    assert float(by_pi["0.6"]["z_advance_generator_output"]) == pytest.approx(-1.0)


def test_clear_commitment_fixture(tmp_path, capsys):
    out = tmp_path / "result.json"
    assert run(["clear", "--bids", COMMIT_BIDS, "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["decisions"]["thermal_plant"]["on"] == 1.0
    assert payload["allocations"]["thermal_plant"][0][0] == pytest.approx([-10.0, -20.0])
    assert payload["surplus"]["thermal_plant"] == pytest.approx(50.0)
    assert payload["verification"]["confirmed"] is True


def test_clear_empty_bids_exit_code(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"dimensions": {"states": 2}, "agents": []}')
    assert run(["clear", "--bids", empty, "--out", tmp_path / "r.json"]) == 1


def test_clear_rejects_a_nan_decision_bound(tmp_path, capsys):
    # json.loads reads NaN; the decision would otherwise be unbounded below
    payload = json.loads(PRICE_BIDS.read_text())
    generator = next(a for a in payload["agents"] if a["id"] == "advance_generator")
    generator["decisions"][0]["lower"] = float("nan")
    bids = tmp_path / "nan.json"
    bids.write_text(json.dumps(payload))
    assert run(["clear", "--bids", bids, "--out", tmp_path / "r.json"]) == 1
    assert "'output' has empty range [nan, 0.0]" in capsys.readouterr().err


def test_solver_failure_names_the_cell_and_exits_2(tmp_path, capsys, monkeypatch):
    from statemarket.clearing import core
    from statemarket.errors import NumericalFailure

    def failing(lp):
        raise NumericalFailure("singular basis: test")

    monkeypatch.setattr(core, "solve_lp", failing)
    assert run(["clear", "--bids", COMMIT_BIDS, "--out", tmp_path / "r.json"]) == 2
    assert "cell (0,), welfare LP 6x4: singular basis: test" in capsys.readouterr().err


def test_missing_input_path_exit_code(tmp_path, capsys):
    assert run(["clear", "--bids", tmp_path / "nope.json", "--out", tmp_path / "r.json"]) == 1


def test_infeasible_market_exit_code(tmp_path, capsys):
    # a fixed 3 MWh buyer with no counterparty can never balance
    rigid = {
        "dimensions": {"states": 2},
        "agents": [
            {
                "id": "rigid",
                "beliefs": [0.5, 0.5],
                "utilities": [
                    {"node": 0, "period": 0, "state": 0, "points": [[3.0, 0.0]]},
                    {"node": 0, "period": 0, "state": 1, "points": [[3.0, 0.0]]},
                ],
            }
        ],
    }
    bids = tmp_path / "rigid.json"
    bids.write_text(json.dumps(rigid))
    assert run(["clear", "--bids", bids, "--out", tmp_path / "r.json"]) == 2


def test_nonconvex_verification_failure_exit_code(tmp_path, capsys):
    # min-run block larger than the only buyer's demand: no equilibrium exists,
    # the clearing reports a positive best-response gap, exit code 3
    nonconvex = {
        "dimensions": {"states": 2},
        "agents": [
            {
                "id": "block_plant",
                "beliefs": [0.5, 0.5],
                "decisions": [{"name": "on", "kind": "binary"}],
                "utilities": [
                    {"node": 0, "period": 0, "state": 0, "points": [[-20.0, -600.0], [0.0, 0.0]]},
                    {"node": 0, "period": 0, "state": 1, "points": [[-20.0, -600.0], [0.0, 0.0]]},
                ],
                "constraints": [
                    {"x": [{"node": 0, "period": 0, "state": 0, "coeff": 1.0}],
                     "z": [{"name": "on", "coeff": 10.0}], "sense": "<=", "rhs": 0.0},
                    {"x": [{"node": 0, "period": 0, "state": 0, "coeff": 1.0}],
                     "z": [{"name": "on", "coeff": 20.0}], "sense": ">=", "rhs": 0.0},
                    {"x": [{"node": 0, "period": 0, "state": 1, "coeff": 1.0}],
                     "z": [{"name": "on", "coeff": 10.0}], "sense": "<=", "rhs": 0.0},
                    {"x": [{"node": 0, "period": 0, "state": 1, "coeff": 1.0}],
                     "z": [{"name": "on", "coeff": 20.0}], "sense": ">=", "rhs": 0.0},
                ],
            },
            {
                "id": "small_buyer",
                "beliefs": [0.5, 0.5],
                "utilities": [
                    {"node": 0, "period": 0, "state": 0, "points": [[0.0, 0.0], [5.0, 500.0]]},
                    {"node": 0, "period": 0, "state": 1, "points": [[0.0, 0.0], [5.0, 500.0]]},
                ],
            },
        ],
    }
    bids = tmp_path / "nonconvex.json"
    bids.write_text(json.dumps(nonconvex))
    out = tmp_path / "r.json"
    assert run(["clear", "--bids", bids, "--out", out]) == 3
    payload = json.loads(out.read_text())  # results still written for inspection
    assert payload["verification"]["confirmed"] is False
    assert max(payload["verification"]["gaps"].values()) > 1e-6


def test_full_pipeline_deterministic_outputs(tmp_path):
    outputs = []
    for tag in ("one", "two"):
        root = tmp_path / tag
        root.mkdir()
        part = root / "part.json"
        sweep = root / "sweep.json"
        run(
            ["partition", "--scenarios", SCENARIOS, "--states", 3,
             "--solver", "lloyd", "--restarts", 32, "--seed", 0,
             "--svg", root / "part.svg", "--out", part]
        )
        run(["clear", "--bids", PRICE_BIDS, "--sweep-pi", "--out", sweep])
        outputs.append(
            (
                strip_metadata(part),
                strip_metadata(sweep),
                (root / "part.svg").read_bytes(),
                (root / "sweep.prices.csv").read_bytes(),
                part.with_suffix(".states.txt").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]


def test_report_partition_and_result(tmp_path, capsys):
    part = tmp_path / "part.json"
    result = tmp_path / "result.json"
    run(["partition", "--scenarios", SCENARIOS, "--states", 2, "--out", part])
    run(["clear", "--bids", COMMIT_BIDS, "--out", result])
    capsys.readouterr()
    assert run(["report", "--partition", part, "--result", result]) == 0
    text = capsys.readouterr().out
    assert "State 1 occurs when" in text
    assert "welfare: 50" in text


def test_report_rejects_tampered_partition(tmp_path, capsys):
    part = tmp_path / "part.json"
    run(["partition", "--scenarios", SCENARIOS, "--states", 2, "--out", part])
    written = json.loads(part.read_text())
    flipped = list(written["assignment"])
    flipped[0] = 1 - flipped[0]
    tampered = [
        ("assignment", flipped),
        ("lower_bound", 99.0),  # a bound above the objective is impossible
        ("lower_bound", float("nan")),
        ("lower_bound", float("-inf")),
        ("provenance", "guess"),
    ]
    for key, value in tampered:
        part.write_text(json.dumps({**written, key: value}))
        capsys.readouterr()
        assert run(["report", "--partition", part]) == 1, (key, value)
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["exact", "lloyd", "dp1d"])
def test_report_loads_every_partition_the_cli_writes(tmp_path, capsys, solver):
    with open(SCENARIOS, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    scen = tmp_path / "scen.csv"
    if solver == "exact":  # the exact 2-D search needs few points
        lines = ["scenario_id,weight,xi_1,xi_2"]
        lines += [f"{r[0]},{1 / 12!r},{r[2]},{r[3]}" for r in rows[:12]]
    else:  # the 1-D DP needs one coordinate; Lloyd takes either
        lines = ["scenario_id,weight,xi_1"] + [",".join(r[:3]) for r in rows]
    scen.write_text("\n".join(lines) + "\n")
    part = tmp_path / "part.json"
    assert run(["partition", "--scenarios", scen, "--states", 3,
                "--solver", solver, "--out", part]) == 0
    payload = json.loads(part.read_text())
    assert (payload["lower_bound"] is None) == (solver == "lloyd")
    capsys.readouterr()
    assert run(["report", "--partition", part]) == 0


def test_report_payments(capsys):
    assert run(["report", "--payments", fixture_path("example_payments.json")]) == 0
    text = capsys.readouterr().out
    assert "wind_farm: receives 200" in text
    assert "load: pays 300" in text


def test_report_rejects_wrong_file_kind(tmp_path, capsys):
    part = tmp_path / "part.json"
    run(["partition", "--scenarios", SCENARIOS, "--states", 2, "--out", part])
    capsys.readouterr()
    assert run(["report", "--result", part]) == 1


def test_clear_malformed_bids_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"agents": [{"id": "x"}]}')  # no dimensions/beliefs
    assert run(["clear", "--bids", bad, "--out", tmp_path / "r.json"]) == 1
    bad.write_text("{not json")
    assert run(["clear", "--bids", bad, "--out", tmp_path / "r.json"]) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["partition", "--solver", "bogus", "--scenarios", SCENARIOS, "--out", "p.json"],
        ["clear", "--bids", "x"],
        ["nonsense"],
        [],
    ],
)
def test_usage_errors_are_validation_exit_code(args, capsys):
    # exit 2 means solver failure, so argparse's own exit 2 must not leak out
    assert run(args) == 1
    assert "usage:" in capsys.readouterr().err
