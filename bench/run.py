"""statemarket benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload clear_convex --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
Every workload process gets BLAS/OpenMP pinned to one thread. With
``--trace 0`` the end-to-end metrics are measured untraced; with
``--trace 1`` a traced run gives the per-layer metrics. A readable report
goes to stdout, details to ``.bench_out/``, and the last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("clear_convex", "clear_commit", "partition_lloyd", "pipeline")
SETUP_PROBES = 2  # fresh set-up-only processes, besides the measuring one
DEADLINE_S = 170.0

END_TO_END = {  # name -> unit; failed_frac is carried by "failed"/"attempted"
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "market.assemble_s": "s",
    "market.lp_vars": "count",
    "market.lp_rows": "count",
    "clearing.clear_s": "s",
    "clearing.build_lp_s": "s",
    "clearing.cells": "count",
    "clearing.cells_feasible_ratio": "ratio",
    "clearing.verify_s": "s",
    "clearing.verify_lps": "count",
    "simplex.welfare_s": "s",
    "simplex.welfare_pivots": "count",
    "simplex.verify_s": "s",
    "simplex.verify_pivots": "count",
    "simplex.us_per_pivot": "us",
    "simplex.infeasible_s": "s",
    "quantize.lloyd_s": "s",
    "quantize.nearest_center_calls": "count",
    "quantize.nearest_center_s": "s",
    "quantize.exact_s": "s",
    "scenarios.fetch_cold_s": "s",
    "scenarios.fetch_warm_s": "s",
    "scenarios.cache_bytes_written": "bytes",
    "cli.ingest_s": "s",
    "cli.partition_s": "s",
    "cli.clear_s": "s",
    "cli.report_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def _worker(args: list[str], timeout: float) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish within {timeout:.0f} s") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"worker {args} exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "statemarket" / "__init__.py").is_file():
        print(f"error: no statemarket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out)]

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_worker(common + ["--setup-only"], remaining())["setup_s"])
        report = _worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], remaining()
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = report["failed"] == 0  # untimed checks mark their ops failed too
    if args.trace:
        metrics = {name: _metric(report["layers"][name], unit) for name, unit in PER_LAYER.items()}
    else:
        setups.append(report["setup_s"])
        report["setup_samples"] = setups
        values = {
            "ops_per_s": report["ops_per_s"],
            "op_p50_s": report["op_p50_s"],
            "op_tail_s": report["op_tail"]["value"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    report["metrics"] = metrics
    detail = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(report, indent=2))

    env, cal = report["environment"], report["calibration"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"nproc {env['nproc']}  threads {env['threads']}")
    print(f"inputs {json.dumps(report['fingerprint'])}")
    print(f"calibration: kernel median {cal['kernel_median_s']:.4g} s over {cal['samples']} samples "
          f"(run factor {cal['scale']:.4g}); times below are at the reference speed")
    print(f"checks {json.dumps(report['checks'])}  attempted {report['attempted']}  failed {report['failed']}")
    for op, problems in report["failures"].items():
        print(f"  op {op} failed: {'; '.join(problems)}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"  {'span (wall, per op)':32s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s}")
        for name, row in report["self_time_wall"].items():
            print(f"  {name:32s} {row['calls_per_op']:10.4g} {row['total_s_per_op']:10.4g} "
                  f"{row['self_s_per_op']:10.4g}")
    else:
        tail = report["op_tail"]
        print(f"  {'failed_frac':32s} {report['failed'] / report['attempted']:.6g} ratio")
        print(f"  op_tail_s is p{tail['percentile']:.1f} of {tail['samples']} ops "
              f"({tail['beyond']} beyond it)")
        print(f"  wall clock: {report['wall']['ops_per_s']:.6g} ops/s, p50 {report['wall']['op_p50_s']:.6g} s, "
              f"tail {report['wall']['op_tail']['value']:.6g} s, setup {report['setup_wall_s']:.6g} s")
    print(f"details {detail}")
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
