"""Forecast ingestion: the uncertain quantity and its discrete probability measure.

A ``ScenarioSet`` is a finite probability measure on R^k given by support
points and weights, typically one point per ensemble-forecast member. It is
the only probabilistic input the rest of the pipeline consumes.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import requests

from .errors import (
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
    reading,
)

# Weight sums further than this from 1 are rejected; closer sums are renormalized.
WEIGHT_SUM_TOLERANCE = 1e-6
# The forecast quantity and model every ensemble request asks for.
VARIABLE = "wind_speed"
MODEL = "icon_seamless"


@dataclass(frozen=True)
class ScenarioSet:
    """Discrete probability measure: points ``(L, k)`` with strictly positive weights.

    Duplicate points are allowed and deliberately not merged. All operations
    on a ScenarioSet are pure; instances should be treated as immutable.
    """

    points: np.ndarray
    weights: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if points.shape[0] < 1:
            raise ValueError("a ScenarioSet needs at least one point")
        if points.shape[0] != weights.shape[0]:
            raise DimensionMismatch(
                f"{points.shape[0]} points but {weights.shape[0]} weights"
            )
        if not np.all(np.isfinite(points)):
            raise NonFiniteCoordinate("scenario points must be finite")
        if not np.all(weights > 0.0):
            raise NonPositiveWeight("all scenario weights must be strictly positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise WeightSumMismatch(
                f"weights sum to {weights.sum():.17g}, expected 1 within 1e-12"
            )

    @property
    def num_scenarios(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        return self.weights @ self.points


def barycentre(scenarios: ScenarioSet, subset: Sequence[int]) -> np.ndarray:
    """Probability-weighted mean of the points selected by ``subset``."""
    idx = np.asarray(list(subset), dtype=int)
    if idx.size == 0:
        raise EmptySubset("barycentre of an empty subset is undefined")
    w = scenarios.weights[idx]
    return (w @ scenarios.points[idx]) / w.sum()


def _validate_header(path: Path, header: list[str]) -> int:
    """Check ``scenario_id,weight,xi_1,...,xi_k`` and return k, the number of
    coordinate columns."""
    for name in ("scenario_id", "weight"):
        if name not in header:
            raise MissingColumn(f"{path}: missing required column {name!r}")
    k = sum(h not in ("scenario_id", "weight") for h in header)
    if not k:
        raise DimensionMismatch(f"{path}: header has no coordinate column")
    expected = ["scenario_id", "weight"] + [f"xi_{j + 1}" for j in range(k)]
    if header != expected:
        missing = [c for c in expected if c not in header]
        if missing:
            raise MissingColumn(f"{path}: missing required column(s) {missing}")
        raise DimensionMismatch(f"{path}: unexpected header order {header}, expected {expected}")
    return k


def load_scenarios_csv(path: str | Path) -> ScenarioSet:
    """Read a UTF-8 scenario CSV (header ``scenario_id,weight,xi_1,...,xi_k``);
    k is the header's number of coordinate columns.

    Weights may deviate from sum 1 by at most ``WEIGHT_SUM_TOLERANCE`` and are
    renormalized; larger deviations raise WeightSumMismatch.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise MissingColumn(f"{path} is empty") from None
            header = [h.strip() for h in header]
            k = _validate_header(path, header)
            weights: list[float] = []
            rows: list[list[float]] = []
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != k + 2:
                    raise DimensionMismatch(
                        f"{path}:{line_no}: expected {k + 2} fields, got {len(row)}"
                    )
                try:
                    w = float(row[1])
                    coords = [float(v) for v in row[2:]]
                except ValueError as exc:
                    raise NonFiniteCoordinate(f"{path}:{line_no}: {exc}") from None
                if not np.isfinite(w) or w <= 0.0:
                    raise NonPositiveWeight(f"{path}:{line_no}: weight {row[1]} is not positive")
                if not all(np.isfinite(c) for c in coords):
                    raise NonFiniteCoordinate(f"{path}:{line_no}: non-finite coordinate")
                weights.append(w)
                rows.append(coords)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not a valid scenario CSV file ({exc!r})") from None
    if not rows:
        raise WeightSumMismatch(f"{path} contains no scenario rows")
    total = float(np.sum(weights))
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise WeightSumMismatch(
            f"{path}: weights sum to {total:.17g}, outside 1 +/- {WEIGHT_SUM_TOLERANCE}"
        )
    w = np.asarray(weights, dtype=float) / total
    return ScenarioSet(np.asarray(rows, dtype=float), w, metadata={"source": str(path)})


def write_scenarios_csv(scenarios: ScenarioSet, path: str | Path) -> None:
    """Write the CSV form (UTF-8, ``.`` decimal separator, LF line endings).

    Floats are rendered with 17 significant digits, so load/write round-trips
    are bit-exact.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        k = scenarios.dimension
        writer.writerow(["scenario_id", "weight"] + [f"xi_{j + 1}" for j in range(k)])
        for i in range(scenarios.num_scenarios):
            row = [str(i + 1), format(scenarios.weights[i], ".17g")]
            row += [format(v, ".17g") for v in scenarios.points[i]]
            writer.writerow(row)


def _http_get(url: str, params: dict) -> str:
    try:
        response = requests.get(url, params=params, timeout=30)
        response.raise_for_status()
    except requests.RequestException as exc:
        raise NetworkError(f"ensemble fetch failed: {exc}") from exc
    return response.text


def _parse_members(body: str) -> list[float]:
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise MalformedResponse(f"response is not JSON: {exc}") from None
    if isinstance(payload, dict) and "members" in payload:
        payload = payload["members"]
    if not isinstance(payload, list) or not payload:
        raise MalformedResponse("expected a non-empty JSON array of member values")
    try:
        values = [float(v) for v in payload]
    except (TypeError, ValueError):
        raise MalformedResponse("member values must be numeric") from None
    if not all(np.isfinite(v) for v in values):
        raise MalformedResponse("member values must be finite")
    return values


def _request_key(endpoint: str, params: dict) -> str:
    canonical = json.dumps({"url": endpoint, "params": params}, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_atomic(path: Path, text: str) -> None:
    """Write beside ``path``, then rename into place: an interrupted write
    never leaves a truncated entry under the final name."""
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        partial.write_text(text, encoding="utf-8")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def fetch_ensemble(
    endpoint: str,
    locations: Sequence[tuple[float, float]],
    target_time: dt.datetime | str,
    *,
    cache_dir: str | Path = "cache",
    transport: Callable[[str, dict], str] | None = None,
) -> ScenarioSet:
    """Fetch one ensemble forecast of ``VARIABLE`` from ``MODEL`` per
    (latitude, longitude) location and assemble a ScenarioSet.

    Every response body is cached under ``cache_dir/<sha256-of-request>.json``
    together with the request parameters and a content hash; subsequent calls
    replay from the cache without touching the network, so downstream runs are
    reproducible offline. Members are equally weighted (recorded in metadata).

    ``transport`` is an injectable ``(url, params) -> body`` callable; the
    default performs a blocking HTTP GET. Not reentrant on the same cache_dir.
    """
    if not locations:
        raise DimensionMismatch("at least one location is required")
    for lat, lon in locations:
        if not (-90.0 <= float(lat) <= 90.0 and -180.0 <= float(lon) <= 180.0):  # NaN fails
            raise ValidationError(f"location ({lat}, {lon}) needs a finite latitude in "
                                  "[-90, 90] and a finite longitude in [-180, 180]")
    if isinstance(target_time, dt.datetime):
        target_iso = target_time.isoformat()
    else:
        target_iso = str(target_time)
    get = transport if transport is not None else _http_get
    cache_dir = Path(cache_dir)

    member_lists: list[list[float]] = []
    cache_keys: list[str] = []
    fetched_at: list[str] = []
    for lat, lon in locations:
        params = {
            "latitude": float(lat),
            "longitude": float(lon),
            "variable": VARIABLE,
            "model": MODEL,
            "time": target_iso,
        }
        key = _request_key(endpoint, params)
        cache_file = cache_dir / f"{key}.json"
        if cache_file.exists():
            with reading(cache_file, "cache entry") as record:
                body = record["body"]
                digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
                if digest != record.get("body_sha256"):
                    raise MalformedResponse(f"cache entry {cache_file} failed hash check")
                stamp = record.get("fetched_at", "")
        else:
            body = get(endpoint, params)
            stamp = dt.datetime.now(dt.timezone.utc).isoformat()
            cache_dir.mkdir(parents=True, exist_ok=True)
            record = {
                "request": {"url": endpoint, "params": params},
                "body": body,
                "body_sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
                "fetched_at": stamp,
            }
            _write_atomic(cache_file, json.dumps(record, sort_keys=True))
        member_lists.append(_parse_members(body))
        cache_keys.append(key)
        fetched_at.append(stamp)

    counts = {len(m) for m in member_lists}
    if len(counts) != 1:
        raise MemberCountMismatch(
            f"locations disagree on ensemble size: {sorted(len(m) for m in member_lists)}"
        )
    count = counts.pop()
    points = np.column_stack(member_lists)
    weights = np.full(count, 1.0 / count)
    metadata = {
        "endpoint": endpoint,
        "variable": VARIABLE,
        "model": MODEL,
        "target_time": target_iso,
        "locations": [[float(a), float(b)] for a, b in locations],
        "cache_keys": cache_keys,
        "fetched_at": fetched_at,
        "weighting": "equal",
    }
    return ScenarioSet(points, weights, metadata=metadata)
