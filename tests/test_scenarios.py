"""Scenario ingestion: CSV round-trips, validation, ensemble fetch + cache."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from statemarket.errors import (
    DimensionMismatch,
    EmptySubset,
    MalformedResponse,
    MemberCountMismatch,
    MissingColumn,
    NetworkError,
    NonFiniteCoordinate,
    NonPositiveWeight,
    ValidationError,
    WeightSumMismatch,
)
from statemarket.scenarios import (
    ScenarioSet,
    _request_key,
    barycentre,
    fetch_ensemble,
    load_scenarios_csv,
    write_scenarios_csv,
)

from oracles import weighted_mean


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_load_39_equal_weights(tmp_path):
    path = tmp_path / "s.csv"
    w = 1.0 / 39
    write_csv(
        path,
        ["scenario_id", "weight", "xi_1", "xi_2"],
        [[i + 1, repr(w), 5.0 + 0.1 * i, 7.0 + 0.05 * i] for i in range(39)],
    )
    scen = load_scenarios_csv(path)
    assert scen.num_scenarios == 39
    assert scen.dimension == 2
    assert abs(scen.weights.sum() - 1.0) < 1e-12
    assert np.allclose(scen.weights, w)


def test_load_single_row_degenerate(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(path, ["scenario_id", "weight", "xi_1"], [[1, 1.0, 3.25]])
    scen = load_scenarios_csv(path)
    assert scen.num_scenarios == 1
    assert np.allclose(scen.mean(), [3.25])


def test_load_weight_sum_mismatch(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(
        path,
        ["scenario_id", "weight", "xi_1"],
        [[1, 0.45, 0.0], [2, 0.45, 1.0]],
    )
    with pytest.raises(WeightSumMismatch, match=re.escape(f"{path}: weights sum to 0.9")):
        load_scenarios_csv(path)


def test_load_renormalizes_small_drift(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(
        path,
        ["scenario_id", "weight", "xi_1"],
        [[1, 0.5000001, 0.0], [2, 0.5, 1.0]],
    )
    scen = load_scenarios_csv(path)
    assert abs(scen.weights.sum() - 1.0) < 1e-12


@pytest.mark.parametrize(
    "header,rows,error",
    [
        (["id", "weight", "xi_1"], [[1, 1.0, 0.0]], MissingColumn),
        (["scenario_id", "weight", "xi_2", "xi_1"], [[1, 1.0, 0.0, 0.0]], DimensionMismatch),
        (["scenario_id", "weight", "xi_1"], [[1, -0.5, 0.0], [2, 1.5, 1.0]], NonPositiveWeight),
        (["scenario_id", "weight", "xi_1"], [[1, 0.5, "nan"], [2, 0.5, 1.0]], NonFiniteCoordinate),
        (["scenario_id", "weight", "xi_1"], [[1, 0.5, "abc"], [2, 0.5, 1.0]], NonFiniteCoordinate),
    ],
)
def test_load_validation_errors(tmp_path, header, rows, error):
    path = tmp_path / "s.csv"
    write_csv(path, header, rows)
    with pytest.raises(error, match=f"^{re.escape(str(path))}"):  # names the file
        load_scenarios_csv(path)


def test_load_takes_the_dimension_from_the_header(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(path, ["scenario_id", "weight", "xi_1", "xi_2", "xi_3"],
              [[1, 0.25, 1.0, 2.0, 3.0], [2, 0.75, 4.0, 5.0, 6.0]])
    scen = load_scenarios_csv(path)
    assert scen.dimension == 3
    assert scen.points.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_load_rejects_a_header_without_coordinates(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(path, ["scenario_id", "weight"], [[1, 1.0]])
    with pytest.raises(DimensionMismatch, match="no coordinate column"):
        load_scenarios_csv(path)


def test_csv_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    scen = ScenarioSet(rng.normal(8.0, 2.0, (17, 3)), np.full(17, 1.0 / 17))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_scenarios_csv(scen, first)
    loaded = load_scenarios_csv(first)
    assert np.array_equal(loaded.points, scen.points)
    write_scenarios_csv(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_barycentre_examples():
    scen = ScenarioSet(np.array([[0.0, 0.0], [2.0, 2.0]]), np.array([0.5, 0.5]))
    assert np.allclose(barycentre(scen, [0, 1]), [1.0, 1.0])
    assert np.allclose(barycentre(scen, [1]), [2.0, 2.0])
    with pytest.raises(EmptySubset):
        barycentre(scen, [])


def test_barycentre_matches_direct_weighted_average():
    rng = np.random.default_rng(11)
    points = rng.uniform(-5, 5, (3, 2))
    raw = rng.random(3) + 0.5
    weights = raw / raw.sum()
    scen = ScenarioSet(points, weights)
    expected = weighted_mean(points.tolist(), weights.tolist(), [0, 1, 2])
    assert np.allclose(barycentre(scen, [0, 1, 2]), expected, atol=1e-12)


def test_barycentre_full_set_is_mean_and_permutation_invariant():
    rng = np.random.default_rng(12)
    points = rng.normal(0, 3, (8, 2))
    raw = rng.random(8) + 0.1
    scen = ScenarioSet(points, raw / raw.sum())
    assert np.allclose(barycentre(scen, range(8)), scen.mean(), atol=1e-12)
    perm = rng.permutation(8)
    assert np.allclose(barycentre(scen, perm.tolist()), scen.mean(), atol=1e-12)


def test_scenario_set_invariants():
    with pytest.raises(NonPositiveWeight):
        ScenarioSet(np.array([[0.0], [1.0]]), np.array([1.0, 0.0]))
    with pytest.raises(WeightSumMismatch):
        ScenarioSet(np.array([[0.0], [1.0]]), np.array([0.6, 0.6]))
    with pytest.raises(NonFiniteCoordinate):
        ScenarioSet(np.array([[np.inf], [1.0]]), np.array([0.5, 0.5]))


# --- ensemble fetch -----------------------------------------------------------

def fake_transport(members_by_location):
    """Transport stub keyed by (lat, lon); records the calls it serves."""
    calls = []

    def transport(url, params):
        calls.append((url, dict(params)))
        members = members_by_location[(params["latitude"], params["longitude"])]
        return json.dumps(members)

    transport.calls = calls
    return transport


def test_fetch_two_locations(tmp_path):
    rng = np.random.default_rng(0)
    members = {
        (52.0, 2.0): rng.uniform(3, 15, 39).round(2).tolist(),
        (54.0, 7.0): rng.uniform(3, 15, 39).round(2).tolist(),
    }
    scen = fetch_ensemble(
        "https://ensembles.invalid/api",
        [(52.0, 2.0), (54.0, 7.0)],
        "2026-02-18T23:00:00",
        cache_dir=tmp_path,
        transport=fake_transport(members),
    )
    assert scen.num_scenarios == 39
    assert scen.dimension == 2
    assert np.allclose(scen.weights, 1.0 / 39)
    assert scen.metadata["weighting"] == "equal"
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_fetch_single_member(tmp_path):
    scen = fetch_ensemble(
        "https://ensembles.invalid/api",
        [(52.0, 2.0)],
        "2026-02-18T23:00:00",
        cache_dir=tmp_path,
        transport=fake_transport({(52.0, 2.0): [9.5]}),
    )
    assert scen.num_scenarios == 1
    assert scen.dimension == 1


def test_fetch_member_count_mismatch(tmp_path):
    members = {(52.0, 2.0): [1.0] * 39, (54.0, 7.0): [1.0] * 40}
    with pytest.raises(MemberCountMismatch):
        fetch_ensemble(
            "https://ensembles.invalid/api",
            [(52.0, 2.0), (54.0, 7.0)],
            "2026-02-18T23:00:00",
            cache_dir=tmp_path,
            transport=fake_transport(members),
        )


def test_fetch_cache_replay_identical(tmp_path):
    members = {(52.0, 2.0): [4.2, 5.5, 9.1], (54.0, 7.0): [7.7, 8.8, 6.6]}
    transport = fake_transport(members)
    locations = [(52.0, 2.0), (54.0, 7.0)]
    live = fetch_ensemble(
        "https://ensembles.invalid/api",
        locations,
        "2026-02-18T23:00:00",
        cache_dir=tmp_path,
        transport=transport,
    )
    assert len(transport.calls) == 2

    def refuse(url, params):
        raise AssertionError("network used despite warm cache")

    replayed = fetch_ensemble(
        "https://ensembles.invalid/api",
        locations,
        "2026-02-18T23:00:00",
        cache_dir=tmp_path,
        transport=refuse,
    )
    assert np.array_equal(replayed.points, live.points)
    assert np.array_equal(replayed.weights, live.weights)


def test_fetch_corrupted_cache_detected(tmp_path):
    members = {(52.0, 2.0): [4.2, 5.5]}
    fetch_ensemble(
        "https://ensembles.invalid/api",
        [(52.0, 2.0)],
        "2026-02-18T23:00:00",
        cache_dir=tmp_path,
        transport=fake_transport(members),
    )
    entry = next(tmp_path.glob("*.json"))
    record = json.loads(entry.read_text())
    record["body"] = "[1.0, 2.0]"
    entry.write_text(json.dumps(record))
    with pytest.raises(MalformedResponse):
        fetch_ensemble(
            "https://ensembles.invalid/api",
            [(52.0, 2.0)],
            "2026-02-18T23:00:00",
            cache_dir=tmp_path,
            transport=fake_transport(members),
        )


@pytest.mark.parametrize("spoil", [
    lambda record: record.pop("body"),
    lambda record: record.update(body=1.5),
], ids=["no_body", "numeric_body"])
def test_fetch_malformed_cache_entry_names_it(tmp_path, spoil):
    members = {(52.0, 2.0): [4.2, 5.5]}
    args = ("https://ensembles.invalid/api", [(52.0, 2.0)], "2026-02-18T23:00:00")
    fetch_ensemble(*args, cache_dir=tmp_path, transport=fake_transport(members))
    entry = next(tmp_path.glob("*.json"))
    record = json.loads(entry.read_text())
    spoil(record)
    entry.write_text(json.dumps(record))
    with pytest.raises(ValidationError, match=re.escape(f"{entry} is not a valid cache entry file")):
        fetch_ensemble(*args, cache_dir=tmp_path, transport=fake_transport(members))


def test_fetch_malformed_response(tmp_path):
    def transport(url, params):
        return "<html>not json</html>"

    with pytest.raises(MalformedResponse):
        fetch_ensemble(
            "https://ensembles.invalid/api",
            [(52.0, 2.0)],
            "2026-02-18T23:00:00",
            cache_dir=tmp_path,
            transport=transport,
        )


def test_fetch_network_error_propagates(tmp_path):
    def transport(url, params):
        raise NetworkError("connection refused")

    with pytest.raises(NetworkError):
        fetch_ensemble(
            "https://ensembles.invalid/api",
            [(52.0, 2.0)],
            "2026-02-18T23:00:00",
            cache_dir=tmp_path,
            transport=transport,
        )


def test_interrupted_cache_write_leaves_no_entry(tmp_path, monkeypatch):
    members = {(52.0, 2.0): [4.2, 5.5, 9.1]}
    real_write = Path.write_text

    def write_prefix_then_fail(self, data, *args, **kwargs):
        real_write(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_prefix_then_fail)
    with pytest.raises(OSError):
        fetch_ensemble(
            "https://ensembles.invalid/api",
            [(52.0, 2.0)],
            "2026-02-18T23:00:00",
            cache_dir=tmp_path,
            transport=fake_transport(members),
        )
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []

    transport = fake_transport(members)
    scen = fetch_ensemble(
        "https://ensembles.invalid/api",
        [(52.0, 2.0)],
        "2026-02-18T23:00:00",
        cache_dir=tmp_path,
        transport=transport,
    )
    assert len(transport.calls) == 1
    assert scen.num_scenarios == 3


def test_fetch_request_parameters_and_cache_key_are_pinned(tmp_path):
    transport = fake_transport({(52.0, 2.0): [4.2, 5.5]})
    endpoint = "https://example.org/ensemble"
    scen = fetch_ensemble(endpoint, [(52.0, 2.0)], "2026-02-18T23:00:00",
                          cache_dir=tmp_path, transport=transport)
    params = {"latitude": 52.0, "longitude": 2.0, "variable": "wind_speed",
              "model": "icon_seamless", "time": "2026-02-18T23:00:00"}
    key = "11e29dc8d829b747e5e1ead7b64b1ea5218c1224daefbd6e6bcee47d6f2ed32d"
    assert transport.calls == [(endpoint, params)]
    assert _request_key(endpoint, params) == key
    assert scen.metadata["cache_keys"] == [key]
    assert (tmp_path / f"{key}.json").exists()
    assert (scen.metadata["variable"], scen.metadata["model"]) == ("wind_speed", "icon_seamless")


@pytest.mark.parametrize(
    "location",
    [(float("nan"), 2.0), (52.0, float("inf")), (95.0, 400.0), (-90.5, 0.0), (0.0, -180.5)],
)
def test_fetch_rejects_a_bad_location_before_any_request(tmp_path, location):
    def transport(url, params):
        raise AssertionError("the transport must not be called")

    with pytest.raises(ValidationError, match=re.escape(f"location {location}")):
        fetch_ensemble("https://ensembles.invalid/api", [(52.0, 2.0), location],
                       "2026-02-18T23:00:00", cache_dir=tmp_path, transport=transport)
    assert list(tmp_path.iterdir()) == []
