"""Spans around the calls into each layer, recorded from the benchmark's side.

Each public function is wrapped at the module attribute where its caller
looks it up, so nothing in the program changes. Spans stay in memory until
the run ends; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import statemarket.clearing.core as core
import statemarket.market as market
import statemarket.quantize as quantize
import statemarket.quantize.solvers as solvers


def _program_size(program) -> dict:
    return {"vars": len(program.variables), "rows": len(program.rows)}


def _lp_outcome(result) -> dict:
    return {"pivots": result.iterations, "status": result.status}


# (owner, attribute, span name, attributes taken from the return value)
WRAPPED = (
    (market, "assemble_welfare", "market.assemble_welfare", _program_size),
    (core, "assemble_welfare", "market.assemble_welfare", _program_size),
    (core, "clear", "clearing.clear", None),
    (core, "build_lp", "clearing.build_lp", None),
    (core, "best_response_value", "clearing.best_response_value", None),
    (core, "solve_lp", "simplex.solve_lp", _lp_outcome),
    (solvers, "nearest_center", "quantize.nearest_center", None),
    (quantize, "solve_lloyd", "quantize.solve_lloyd", None),
    (quantize, "solve_exact", "quantize.solve_exact", None),
    (quantize, "export_partition_svg", "quantize.export_partition_svg", None),
)
# fetch_ensemble and the cli.main stages are called by the benchmark itself,
# which opens their spans with the cache state or stage as an attribute.


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        record = {"name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None,
                  "attrs": attrs, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, describe):
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(result))
                return result
        return traced

    def install(self) -> None:
        for owner, attr, name, describe in WRAPPED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, describe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def finished(self) -> list[dict]:
        """Spans with duration and self time, ready to be written out."""
        child_time = defaultdict(float)
        for s in self.spans:
            s["duration"] = s["end"] - s["start"]
            if s["parent"] is not None:
                child_time[s["parent"]] += s["duration"]
        for i, s in enumerate(self.spans):
            s["self"] = s["duration"] - child_time[i]
        return self.spans


def _under(spans: list[dict], span: dict, name: str) -> bool:
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def layer_metrics(spans: list[dict], ops: int, overhead_frac: float, scale: float) -> dict[str, float]:
    """Per-op means of the per-layer metrics (0 where a workload never
    reaches a layer), plus ratios over all ops. Times are multiplied by
    ``scale``, the calibration factor to reference seconds."""
    total = defaultdict(float)
    count = defaultdict(int)
    welfare_lps = verify_lps = optimal_cells = 0
    pivots = defaultdict(int)
    vars_ = rows = programs = cache_bytes = 0
    for s in spans:
        name, attrs = s["name"], s["attrs"]
        key = name
        if name == "simplex.solve_lp":
            key = "simplex.verify" if _under(spans, s, "clearing.best_response_value") else "simplex.welfare"
            pivots[key] += attrs["pivots"]
            if attrs["status"] == "infeasible":
                total["simplex.infeasible"] += s["duration"]
            if key == "simplex.welfare":
                welfare_lps += 1
                optimal_cells += attrs["status"] == "optimal"
            else:
                verify_lps += 1
            total["simplex.all"] += s["duration"]
        elif name == "market.assemble_welfare":
            vars_, rows, programs = vars_ + attrs["vars"], rows + attrs["rows"], programs + 1
        elif name == "scenarios.fetch_ensemble":
            key = f"scenarios.fetch_{attrs['cache']}"
            cache_bytes += attrs.get("bytes", 0)
        elif name == "cli.main":
            key = f"cli.{attrs['stage']}"
        total[key] += s["duration"]
        count[key] += 1

    def per_op(value):
        return value / ops if ops else 0.0

    def per_op_s(seconds):
        return per_op(seconds) * scale

    all_pivots = pivots["simplex.welfare"] + pivots["simplex.verify"]
    return {
        "market.assemble_s": per_op_s(total["market.assemble_welfare"]),
        "market.lp_vars": vars_ / programs if programs else 0.0,
        "market.lp_rows": rows / programs if programs else 0.0,
        "clearing.clear_s": per_op_s(total["clearing.clear"]),
        "clearing.build_lp_s": per_op_s(total["clearing.build_lp"]),
        "clearing.cells": per_op(welfare_lps),
        "clearing.cells_feasible_ratio": optimal_cells / welfare_lps if welfare_lps else 0.0,
        "clearing.verify_s": per_op_s(total["clearing.best_response_value"]),
        "clearing.verify_lps": per_op(verify_lps),
        "simplex.welfare_s": per_op_s(total["simplex.welfare"]),
        "simplex.welfare_pivots": per_op(pivots["simplex.welfare"]),
        "simplex.verify_s": per_op_s(total["simplex.verify"]),
        "simplex.verify_pivots": per_op(pivots["simplex.verify"]),
        "simplex.us_per_pivot": 1e6 * scale * total["simplex.all"] / all_pivots if all_pivots else 0.0,
        "simplex.infeasible_s": per_op_s(total["simplex.infeasible"]),
        "quantize.lloyd_s": per_op_s(total["quantize.solve_lloyd"]),
        "quantize.nearest_center_calls": per_op(count["quantize.nearest_center"]),
        "quantize.nearest_center_s": per_op_s(total["quantize.nearest_center"]),
        "quantize.exact_s": per_op_s(total["quantize.solve_exact"]),
        "scenarios.fetch_cold_s": per_op_s(total["scenarios.fetch_cold"]),
        "scenarios.fetch_warm_s": per_op_s(total["scenarios.fetch_warm"]),
        "scenarios.cache_bytes_written": per_op(cache_bytes),
        "cli.ingest_s": per_op_s(total["cli.ingest"]),
        "cli.partition_s": per_op_s(total["cli.partition"]),
        "cli.clear_s": per_op_s(total["cli.clear"]),
        "cli.report_s": per_op_s(total["cli.report"]),
        "trace.overhead_frac": overhead_frac,
    }


def self_time_table(spans: list[dict], ops: int) -> dict[str, dict]:
    """Calls, total and self seconds per op for every span name."""
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = table[s["name"]]
        row["calls"] += 1
        row["total_s"] += s["duration"]
        row["self_s"] += s["self"]
    return {
        name: {"calls_per_op": r["calls"] / ops, "total_s_per_op": r["total_s"] / ops,
               "self_s_per_op": r["self_s"] / ops}
        for name, r in sorted(table.items())
    } if ops else {}
