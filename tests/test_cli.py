"""CLI pipeline: subcommands, exit codes, determinism of written artifacts."""

import csv
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np
import pytest
import requests

from statemarket.cli import build_parser, fixture_path, main
from statemarket.market import assemble_welfare, load_bids_json
from statemarket.quantize import solve_exact
from statemarket.scenarios import ScenarioSet, fetch_ensemble


def run(args):
    return main([str(a) for a in args])


def strip_metadata(path):
    payload = json.loads(path.read_text())
    payload.pop("metadata", None)
    return json.dumps(payload, sort_keys=True)


SCENARIOS = fixture_path("scenarios_northsea_39x2.csv")
PRICE_BIDS = fixture_path("bids_price_formation.json")
COMMIT_BIDS = fixture_path("bids_commitment_expectation.json")
ENDPOINT = "https://ensembles.invalid/api"
TARGET_TIME = "2026-02-18T23:00:00"


def test_ingest_from_csv_reports_and_roundtrips(tmp_path, capsys):
    out = tmp_path / "scenarios.csv"
    assert run(["ingest", "--scenarios", SCENARIOS, "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "L=39 k=2" in captured
    assert "variance" in captured
    assert out.read_bytes() == SCENARIOS.read_bytes()


def test_ingest_scenarios_ignore_the_endpoint_variable(tmp_path, monkeypatch):
    without, with_variable = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.delenv("STATEMARKET_ENDPOINT", raising=False)
    assert run(["ingest", "--scenarios", SCENARIOS, "--out", without]) == 0
    monkeypatch.setenv("STATEMARKET_ENDPOINT", "http://127.0.0.1:9/x")
    assert run(["ingest", "--scenarios", SCENARIOS, "--out", with_variable]) == 0
    assert with_variable.read_bytes() == without.read_bytes()


def test_ingest_rejects_scenarios_and_endpoint_together(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("network used")

    monkeypatch.setattr("statemarket.scenarios.requests.get", refuse)
    out = tmp_path / "s.csv"
    assert run(["ingest", "--scenarios", SCENARIOS, "--endpoint", ENDPOINT,
                "--location", "52.0,2.0", "--cache-dir", tmp_path / "cache", "--out", out]) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--location", "52.0,2.0"],
        ["--target-time", TARGET_TIME],
        ["--cache-dir", "nowhere"],
        ["--location", "1,2", "--target-time", "x", "--cache-dir", "nowhere"],
    ],
    ids=["location", "target_time", "cache_dir", "all_three"],
)
def test_ingest_scenarios_refuse_the_endpoint_only_flags(tmp_path, capsys, flags):
    out = tmp_path / "s.csv"
    assert run(["ingest", "--scenarios", SCENARIOS, *flags, "--out", out]) == 1
    named = ", ".join(flags[::2])
    assert f"ingest --scenarios does not take {named}," in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("location", ["nan,2", "95,400"])
def test_ingest_rejects_a_location_off_the_globe(tmp_path, capsys, location):
    out = tmp_path / "s.csv"
    args = ["ingest", "--endpoint", "https://ensembles.invalid/api", "--location", location,
            "--target-time", "2026-02-18T23:00:00", "--cache-dir", tmp_path / "cache",
            "--out", out]
    assert run(args) == 1
    lat, lon = (float(v) for v in location.split(","))
    assert f"error: location ({lat}, {lon}) needs a finite latitude" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "cache").exists()


def test_ingest_from_an_endpoint_needs_a_location(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run(["ingest", "--endpoint", ENDPOINT, "--out", out]) == 1
    assert "error: ingest from an endpoint needs at least one --location" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_without_a_source_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("STATEMARKET_ENDPOINT", raising=False)
    out = tmp_path / "s.csv"
    assert run(["ingest", "--out", out]) == 1
    assert "error: ingest needs --scenarios or an endpoint" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_rejects_a_location_without_a_longitude(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run(["ingest", "--endpoint", ENDPOINT, "--location", "52.0", "--out", out]) == 1
    assert "error: --location must be 'lat,lon', got '52.0'" in capsys.readouterr().err
    assert not out.exists()


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

    scen = load_scenarios_csv(SCENARIOS)
    assert payload["objective"] == pytest.approx(
        size_of_state(scen, range(scen.num_scenarios)), abs=1e-12
    )


def test_partition_rejects_a_negative_seed_naming_it(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run(["partition", "--scenarios", SCENARIOS, "--seed", -1, "--out", out]) == 1
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_partition_refusing_the_svg_writes_nothing(tmp_path, capsys):
    scenarios = tmp_path / "line.csv"
    scenarios.write_text("scenario_id,weight,xi_1\n1,0.25,0\n2,0.25,1\n3,0.25,5\n4,0.25,6\n")
    out, svg = tmp_path / "part.json", tmp_path / "s.svg"
    assert run(["partition", "--scenarios", scenarios, "--solver", "exact", "--states", 2,
                "--svg", svg, "--out", out]) == 1
    assert "error: SVG export requires k=2, got k=1" in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_suffix(".states.txt").exists()
    assert not svg.exists()


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


def _agent(payload, agent_id):
    return next(a for a in payload["agents"] if a["id"] == agent_id)


def _set_nan_utility_coeff(payload):
    _agent(payload, "thermal_plant")["decisions"][0]["utility_coeff"] = float("nan")


def _set_nan_continuous_utility_coeff(payload):
    _agent(payload, "advance_generator")["decisions"][0]["utility_coeff"] = float("nan")


def _set_nan_beliefs(payload):
    _agent(payload, "thermal_plant")["beliefs"] = [float("nan"), float("nan")]


def _set_nan_linking_rhs(payload):
    _agent(payload, "advance_generator")["constraints"][1]["rhs"] = float("nan")


def _set_nan_linking_x_coeff(payload):
    _agent(payload, "advance_generator")["constraints"][1]["x"][0]["coeff"] = float("nan")


@pytest.mark.parametrize(
    "fixture, edit, message",
    [
        (COMMIT_BIDS, _set_nan_utility_coeff, "decision 'on' has non-finite utility_coeff nan"),
        (PRICE_BIDS, _set_nan_continuous_utility_coeff,
         "decision 'output' has non-finite utility_coeff nan"),
        (COMMIT_BIDS, _set_nan_beliefs,
         "agent 'thermal_plant': beliefs must be finite, non-negative and sum to 1"),
        (PRICE_BIDS, _set_nan_linking_rhs,
         "agent 'advance_generator': constraint 1 has a non-finite rhs or coefficient"),
        (PRICE_BIDS, _set_nan_linking_x_coeff,
         "agent 'advance_generator': constraint 1 has a non-finite rhs or coefficient"),
    ],
    ids=["binary_utility_coeff", "continuous_utility_coeff", "beliefs", "linking_rhs",
         "linking_x_coeff"],
)
def test_clear_rejects_non_finite_bid_numbers_where_they_enter(
    tmp_path, capsys, fixture, edit, message
):
    payload = json.loads(fixture.read_text())
    edit(payload)
    bids = tmp_path / "nan.json"
    bids.write_text(json.dumps(payload))
    assert run(["clear", "--bids", bids, "--out", tmp_path / "r.json"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_clear_rejects_an_overflowing_balance_row(tmp_path, capsys):
    points = [[-1.7e308, -1.0], [0.0, 0.0]]
    agents = [{"id": name, "beliefs": [1.0], "risk": "expectation",
               "utilities": [{"node": 0, "period": 0, "state": 0, "points": points}]}
              for name in ("a", "b")]
    bids = tmp_path / "overflow.json"
    bids.write_text(json.dumps({"dimensions": {"states": 1}, "agents": agents}))
    with np.errstate(over="ignore"):
        assert run(["clear", "--bids", bids, "--out", tmp_path / "r.json"]) == 1
    assert "error: row coefficients must be finite" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_clear_rejects_a_binary_listed_twice_whose_coefficients_overflow(tmp_path, capsys):
    payload = json.loads(COMMIT_BIDS.read_text())
    constraint = _agent(payload, "thermal_plant")["constraints"][0]
    constraint["z"] = [{"name": "on", "coeff": 1.7e308}, {"name": "on", "coeff": 1.7e308}]
    bids = tmp_path / "overflow.json"
    bids.write_text(json.dumps(payload))
    with np.errstate(over="ignore"):
        assert run(["clear", "--bids", bids, "--out", tmp_path / "r.json"]) == 1
    assert "error: row coefficients must be finite" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_clear_rejects_a_contract_listed_twice(tmp_path, capsys):
    payload = json.loads(PRICE_BIDS.read_text())
    utilities = _agent(payload, "wind_farm")["utilities"]
    utilities.append(dict(utilities[0], points=[[-5.0, -500.0], [0.0, 0.0]]))
    bids = tmp_path / "twice.json"
    bids.write_text(json.dumps(payload))
    assert run(["clear", "--bids", bids, "--out", tmp_path / "r.json"]) == 1
    err = capsys.readouterr().err
    assert f"error: {bids}: agent 'wind_farm' lists contract" in err
    assert "(0, 0, 0) twice" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("tolerance", ["nan", "-1"])
def test_clear_rejects_a_tolerance_that_is_not_finite_and_non_negative(
    tmp_path, capsys, tolerance
):
    out = tmp_path / "r.json"
    assert run(["clear", "--bids", PRICE_BIDS, f"--tolerance={tolerance}", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"--tolerance: must be finite and >= 0, got '{tolerance}'" in err


def test_clear_passes_a_valid_tolerance_to_the_verification(tmp_path):
    out = tmp_path / "r.json"
    assert run(["clear", "--bids", PRICE_BIDS, "--tolerance", "1e-3", "--out", out]) == 0
    assert json.loads(out.read_text())["verification"]["tolerance"] == 1e-3


def test_solver_failure_names_the_cell_and_exits_2(tmp_path, capsys, monkeypatch):
    from statemarket.clearing import core
    from statemarket.errors import NumericalFailure

    def failing(lp):
        raise NumericalFailure("singular basis: test")

    monkeypatch.setattr(core, "solve_lp", failing)
    assert run(["clear", "--bids", COMMIT_BIDS, "--out", tmp_path / "r.json"]) == 2
    assert "cell (0,), welfare LP 6x4: singular basis: test" in capsys.readouterr().err


def test_missing_input_path_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["clear", "--bids", missing, "--out", tmp_path / "r.json"]) == 1
    assert f"No such file or directory: '{missing}'" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_clear_prices_a_contract_nobody_trades_at_0(tmp_path, capsys):
    # 1 node x 2 periods x 2 states, but both agents trade only (0, 0, 0)
    bids = tmp_path / "bids.json"
    bids.write_text(json.dumps({
        "dimensions": {"nodes": 1, "periods": 2, "states": 2},
        "agents": [
            {"id": "producer", "beliefs": [0.5, 0.5], "utilities": [
                {"node": 0, "period": 0, "state": 0, "points": [[-10, -600], [0, 0]]}]},
            {"id": "consumer", "beliefs": [0.5, 0.5], "utilities": [
                {"node": 0, "period": 0, "state": 0, "points": [[0, 0], [5, 500]]}]},
        ],
    }))
    assert list(assemble_welfare(*load_bids_json(bids)).balance_rows) == [(0, 0, 0)]
    out = tmp_path / "r.json"
    assert run(["clear", "--bids", bids, "--out", out]) == 0
    assert "prices: [30.0, 0.0, 0.0, 0.0]" in capsys.readouterr().out
    assert out.with_suffix(".prices.csv").read_text() == (
        "node,period,state,price\n0,0,1,30\n0,0,2,0\n0,1,1,0\n0,1,2,0\n"
    )
    assert json.loads(out.read_text())["verification"]["confirmed"] is True


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


def test_unbounded_market_exit_code(tmp_path, capsys):
    # nothing links the counterparty-free decision, whose utility has no bound
    unbounded = {
        "dimensions": {"states": 1},
        "agents": [
            {
                "id": "a",
                "beliefs": [1.0],
                "decisions": [{"name": "level", "upper": float("inf"), "utility_coeff": 1.0}],
                "utilities": [{"node": 0, "period": 0, "state": 0,
                               "points": [[-1.0, 1.0], [0.0, 0.0]]}],
            },
            {
                "id": "b",
                "beliefs": [1.0],
                "utilities": [{"node": 0, "period": 0, "state": 0,
                               "points": [[0.0, 0.0], [1.0, 1.0]]}],
            },
        ],
    }
    bids = tmp_path / "unbounded.json"
    bids.write_text(json.dumps(unbounded).replace("Infinity", "1e400"))
    assert run(["clear", "--bids", bids, "--out", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert "cell (), welfare LP 1x3: the objective is unbounded" in err


# min-run block larger than the only buyer's demand: no equilibrium exists,
# so the clearing reports a positive best-response gap
NONCONVEX = {
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


def test_nonconvex_verification_failure_exit_code(tmp_path, capsys):
    bids = tmp_path / "nonconvex.json"
    bids.write_text(json.dumps(NONCONVEX))
    out = tmp_path / "r.json"
    assert run(["clear", "--bids", bids, "--out", out]) == 3
    payload = json.loads(out.read_text())  # results still written for inspection
    assert payload["verification"]["confirmed"] is False
    assert max(payload["verification"]["gaps"].values()) > 1e-6


def test_a_sweep_with_an_unconfirmed_point_exits_3_after_writing(tmp_path, capsys):
    bids = tmp_path / "nonconvex.json"
    bids.write_text(json.dumps(NONCONVEX))
    out = tmp_path / "sweep.json"
    assert run(["clear", "--bids", bids, "--sweep-pi", "--out", out]) == 3
    assert ("verification failure: some sweep points failed equilibrium verification"
            in capsys.readouterr().err)
    sweep = json.loads(out.read_text())["sweep"]  # still written for inspection
    assert [entry["pi1"] for entry in sweep] == [round(0.1 * i, 1) for i in range(11)]
    assert not all(entry["result"]["verification"]["confirmed"] for entry in sweep)
    assert out.with_suffix(".prices.csv").exists()


def test_a_sweep_over_two_periods_labels_columns_node_period_state(tmp_path):
    def bid(agent_id, points):
        return {"id": agent_id, "beliefs": [0.5, 0.5], "utilities": [
            {"node": 0, "period": t, "state": s, "points": points}
            for t in range(2) for s in range(2)]}

    bids = tmp_path / "periods.json"
    bids.write_text(json.dumps({"dimensions": {"periods": 2, "states": 2}, "agents": [
        bid("seller", [[-5.0, -50.0], [0.0, 0.0]]), bid("buyer", [[0.0, 0.0], [5.0, 100.0]])]}))
    out = tmp_path / "sweep.json"
    assert run(["clear", "--bids", bids, "--sweep-pi", "--out", out]) == 0
    with open(out.with_suffix(".prices.csv")) as handle:
        header = next(csv.reader(handle))
    labels = ["0_0_1", "0_0_2", "0_1_1", "0_1_2"]
    assert header == ["pi1", "pi2", *(f"x_seller_{c}" for c in labels),
                      *(f"x_buyer_{c}" for c in labels), *(f"lambda_{c}" for c in labels)]


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


def test_report_rejects_a_result_with_other_states_than_the_partition(tmp_path, capsys):
    part, result, sweep = (tmp_path / name for name in ("part.json", "result.json", "sweep.json"))
    run(["partition", "--scenarios", SCENARIOS, "--states", 3, "--out", part])
    run(["clear", "--bids", PRICE_BIDS, "--out", result])
    capsys.readouterr()
    assert run(["report", "--partition", part, "--result", result]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {part} has 3 states but {result} has 2\n" in captured.err
    # every sweep entry is checked, not only the first
    run(["partition", "--scenarios", SCENARIOS, "--states", 2, "--out", part])
    run(["clear", "--bids", PRICE_BIDS, "--sweep-pi", "--out", sweep])
    payload = json.loads(sweep.read_text())
    last = len(payload["sweep"]) - 1
    payload["sweep"][last]["result"]["dimensions"]["states"] = 3
    sweep.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["report", "--partition", part, "--result", sweep]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {part} has 2 states but {sweep} has 3 in sweep entry {last}\n" in (
        captured.err)


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


def test_report_without_an_input_exits_1(capsys):
    assert run(["report"]) == 1
    assert "error: report needs --result, --partition, or --payments" in capsys.readouterr().err


def test_report_rejects_wrong_file_kind(tmp_path, capsys):
    part = tmp_path / "part.json"
    run(["partition", "--scenarios", SCENARIOS, "--states", 2, "--out", part])
    capsys.readouterr()
    assert run(["report", "--result", part]) == 1


def _price_bids(edit):
    """The price-formation bid file after ``edit`` changes its payload."""
    payload = json.loads(PRICE_BIDS.read_text())
    edit(payload)
    return json.dumps(payload)


def _partition(edit):
    """A two-state partition solution file after ``edit`` changes its payload."""
    points = np.array([[1.0, 2.0], [1.5, 2.5], [8.0, 9.0], [9.0, 8.5]])
    payload = solve_exact(ScenarioSet(points, np.full(4, 0.25)), 2).to_dict()
    edit(payload)
    return json.dumps(payload)


def _spoil_objective_and_center(payload):
    payload["objective"] = str(payload["objective"])
    payload["centers"][0][1] = str(payload["centers"][0][1])


@pytest.mark.parametrize(
    "command, content",
    [
        ("clear", '{"agents": [{"id": "x"}]}'),
        ("clear", "{not json"),
        ("clear", '[{"id": "x"}]'),
        ("clear", _price_bids(lambda p: p["agents"][0]["utilities"][0].update(
            points=[[0, 0], [1]]))),
        ("result", '{"sweep": [{"x": 1}]}'),
        ("payments", '{"prices": [[[1.0]]]}'),
        ("payments", "[[[[1.0]]]]"),
        ("ingest", '{"body_sha256": "0"}'),
        ("clear", b'{"agents": "\xff"}'),
        ("result", '{"welfare": "x", "prices": 1, "verification": {}}'),
        ("result", '{"welfare": true, "prices": [], "surplus": {}, "verification": '
                   '{"balance_residual": 0, "budget_residual": 0, "confirmed": true, '
                   '"gaps": {}}}'),
        ("clear", _price_bids(lambda p: p["dimensions"].update(states=2.7))),
        ("clear", _price_bids(lambda p: p["dimensions"].update(states="2"))),
        ("clear", _price_bids(lambda p: p["dimensions"].update(periods=True))),
        ("clear", _price_bids(lambda p: p["agents"][1]["utilities"][1].update(state=1.5))),
        ("clear", _price_bids(lambda p: p["agents"][1]["utilities"][0].update(node="0"))),
        ("clear", _price_bids(lambda p: p["agents"][2]["constraints"][1]["x"][0].update(
            state=True))),
        ("clear", _price_bids(lambda p: p["agents"][0].update(beliefs=[True, False]))),
        ("clear", _price_bids(lambda p: p["agents"][0]["utilities"][0]["points"][0].__setitem__(
            0, "-10.0"))),
        ("clear", _price_bids(lambda p: p["agents"][2]["constraints"][0]["x"][0].update(
            coeff="1.0"))),
        ("clear", _price_bids(lambda p: p["agents"][2]["constraints"][1].update(rhs=False))),
        ("clear", _price_bids(lambda p: p["agents"][2]["decisions"][0].update(lower="-5.0"))),
        ("clear", _price_bids(lambda p: p["agents"][2]["decisions"][0].update(upper=True))),
        ("clear", _price_bids(lambda p: p["agents"][2]["decisions"][0].update(
            utility_coeff="0"))),
        ("payments", '{"prices": [[["10.0", true]]], "positions": {"load": [[[10.0, 1.0]]]}}'),
        ("payments", '{"prices": [[[10.0, 20.0]]], "positions": {"load": [[[10.0, "1"]]]}}'),
        ("partition", _partition(_spoil_objective_and_center)),
        ("partition", _partition(lambda p: p["scenarios"]["weights"].__setitem__(0, "0.25"))),
        ("partition", _partition(lambda p: p["scenarios"]["points"][3].__setitem__(0, "9"))),
        ("partition", _partition(lambda p: p["distances"].__setitem__(0, True))),
        ("partition", _partition(lambda p: p.update(lower_bound=str(p["lower_bound"])))),
        ("clear", _price_bids(lambda p: p["agents"][2]["constraints"][1].update(rhs=10**400))),
        ("clear", _price_bids(lambda p: p["agents"][1].update(id=7))),
        ("clear", _price_bids(lambda p: p["agents"][1].update(risk=0))),
        ("clear", _price_bids(lambda p: p["agents"][2]["decisions"][0].update(name=3))),
        ("clear", _price_bids(lambda p: p["agents"][2]["decisions"][0].update(kind=["binary"]))),
        ("clear", _price_bids(lambda p: p["agents"][2]["constraints"][0]["z"][0].update(name=3))),
        ("clear", _price_bids(lambda p: p["agents"][2]["constraints"][0].update(sense=None))),
        ("clear", _price_bids(lambda p: p.update(state_labels=[1, 2]))),
        ("clear", _price_bids(lambda p: p.update(state_labels="ab"))),
    ],
    ids=["bids_without_dimensions", "bids_not_json", "bids_top_level_array",
         "utility_point_with_one_number", "sweep_entry_without_result",
         "payments_without_positions", "payments_top_level_array",
         "cache_entry_without_body", "bids_not_utf8", "result_welfare_not_a_number",
         "result_welfare_a_boolean", "bids_states_not_integral", "bids_states_a_string",
         "bids_periods_a_boolean", "utility_state_not_integral", "utility_node_a_string",
         "constraint_state_a_boolean", "beliefs_booleans", "utility_point_a_string",
         "constraint_coeff_a_string", "constraint_rhs_a_boolean", "decision_lower_a_string",
         "decision_upper_a_boolean", "decision_utility_coeff_a_string",
         "payments_prices_a_string_and_a_boolean", "payments_position_a_string",
         "partition_objective_and_center_strings", "partition_weight_a_string",
         "partition_point_a_string", "partition_distance_a_boolean",
         "partition_lower_bound_a_string", "constraint_rhs_too_large_for_a_float",
         "agent_id_a_number", "risk_a_number", "decision_name_a_number",
         "decision_kind_a_list", "z_term_name_a_number", "constraint_sense_null",
         "state_labels_numbers", "state_labels_a_string"],
)
def test_malformed_input_file_exits_1_naming_it(tmp_path, capsys, command, content):
    out = tmp_path / "out"
    if command == "ingest":  # replay a cache entry that the edit below spoils
        fetch_ensemble(ENDPOINT, [(52.0, 2.0)], TARGET_TIME, cache_dir=tmp_path,
                       transport=lambda url, params: "[1.0, 2.0]")
        path = next(tmp_path.glob("*.json"))
        args = ["ingest", "--endpoint", ENDPOINT, "--location", "52.0,2.0",
                "--target-time", TARGET_TIME, "--cache-dir", tmp_path, "--out", out]
    else:
        path = tmp_path / "input.json"
        args = {
            "clear": ["clear", "--bids", path, "--out", out],
            "result": ["report", "--result", path],
            "payments": ["report", "--payments", path],
            "partition": ["report", "--partition", path],
        }[command]
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    assert run(args) == 1
    assert f"error: {path} is not a valid " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "partition"])
def test_scenario_file_not_utf8_exits_1_naming_it(tmp_path, capsys, command):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"scenario_id,weight,xi_1\n1,1.0,\xff\n")
    out = tmp_path / "out"
    assert run([command, "--scenarios", path, "--out", out]) == 1
    assert f"error: {path} is not a valid scenario CSV file (UnicodeDecodeError(" in (
        capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "partition"])
def test_empty_scenario_file_exits_1_naming_it(tmp_path, capsys, command):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    out = tmp_path / "out"
    assert run([command, "--scenarios", path, "--out", out]) == 1
    assert f"error: {path} is empty" in capsys.readouterr().err
    assert not out.exists()


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


def test_the_parser_is_built_once_and_keeps_nothing_between_calls(tmp_path, capsys, monkeypatch):
    assert build_parser() is build_parser()
    assert run(["partition", "--solver", "bogus", "--scenarios", SCENARIOS,
                "--out", tmp_path / "p.json"]) == 1
    assert run(["ingest", "--scenarios", SCENARIOS, "--out", tmp_path / "s.csv"]) == 0
    fetched = []

    def fetch(endpoint, locations, target_time, *, cache_dir):
        fetched.append(locations)
        return ScenarioSet(np.ones((2, len(locations))), np.full(2, 0.5))

    monkeypatch.setattr("statemarket.cli.scenarios.fetch_ensemble", fetch)
    ingest = ["ingest", "--endpoint", ENDPOINT, "--target-time", TARGET_TIME,
              "--cache-dir", tmp_path / "cache"]
    assert run(ingest + ["--location", "52.0,2.0", "--location", "54.0,7.0",
                         "--out", tmp_path / "two.csv"]) == 0
    assert run(ingest + ["--location", "56.0,3.0", "--out", tmp_path / "one.csv"]) == 0
    assert fetched == [((52.0, 2.0), (54.0, 7.0)), ((56.0, 3.0),)]
