"""One workload process: set up, run the closed loop, print one JSON line.

Started by ``run.py`` with BLAS pinned to one thread and the checkout's
``src`` on PYTHONPATH. ``--setup-only`` stops after set-up, which is how the
set-up time is sampled in several fresh processes.
"""

import time

STARTED = time.perf_counter()  # before any import the set-up time covers

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

import statemarket.cli  # noqa: F401  (the program's import cost is part of set-up)
import workloads
from calibration import Calibration

SETUP_KERNEL_SAMPLES = 5


@contextlib.contextmanager
def _no_span(name, **attrs):
    yield attrs


class Loop:
    """Closed loop, one client: the next op starts when the previous ends."""

    def __init__(self, workload, pool, work: Path):
        self.workload, self.pool, self.work = workload, pool, work
        self.calibration = Calibration()
        self.times: list[float] = []
        self.started_at: list[float] = []
        self.instances: list[int] = []
        self.failures: dict[int, list[str]] = {}  # op number -> problems
        self.kept: dict[int, object] = {}  # what ``finish`` needs, first passing op per instance

    def op(self, index: int, span=_no_span) -> None:
        started = time.perf_counter()
        try:
            with span("op", instance=index):
                outcome = self.workload.run(self.pool[index], self.work, span)
            elapsed = time.perf_counter() - started
            problems = self.workload.check(index, outcome)
        except Exception:
            elapsed = time.perf_counter() - started
            problems = [traceback.format_exc(limit=3)]
        workloads.clean(self.work)
        self.calibration.maybe_sample()
        if problems:
            self.failures[len(self.times)] = problems
        elif index not in self.kept:
            self.kept[index] = self.workload.keep(outcome)
        self.times.append(elapsed)
        self.started_at.append(started)
        self.instances.append(index)

    def fail_instances(self, problems: dict[int, list[str]]) -> None:
        """Mark every op on the given instances failed (untimed checks)."""
        for op, index in enumerate(self.instances):
            if index in problems:
                self.failures.setdefault(op, []).extend(problems[index])


def _tail(times: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n, "beyond": 0}
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n, "beyond": 10}


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]()
    size = workload.trace_ops if args.trace else workload.pool_size
    pool = [workload.build(args.seed, i) for i in range(size)]
    setup_wall_s = time.perf_counter() - STARTED
    calibration = Calibration()
    for _ in range(SETUP_KERNEL_SAMPLES):
        calibration.sample()
    setup = {"setup_s": setup_wall_s * calibration.scale(), "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    work = Path(tempfile.mkdtemp(prefix="work-", dir=args.out))
    try:
        report = _trace(workload, pool, work, args) if args.trace else _measure(workload, pool, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report.update(setup, environment=_environment(), fingerprint=workload.fingerprint(pool))
    print(json.dumps(report))
    return 0


def _finish(workload, loop: Loop) -> dict:
    """Untimed checks over the whole run (a reference solver, a repeat)."""
    def rerun(index):
        return workload.run(loop.pool[index], loop.work, _no_span)

    name, problems = workload.finish(loop.pool, loop.kept, rerun)
    if name is None:
        return {}
    if problems is None:
        return {name: "skipped"}
    loop.fail_instances(problems)
    return {name: "failed" if problems else "passed"}


def _summary(loop: Loop) -> dict:
    return {
        "attempted": len(loop.times),
        "failed": len(loop.failures),
        "failures": {str(op): p for op, p in sorted(loop.failures.items())[:20]},
    }


def _measure(workload, pool, work, args) -> dict:
    loop = Loop(workload, pool, work)
    deadline = time.perf_counter() + args.seconds
    index = 0
    while time.perf_counter() < deadline:
        loop.op(index % len(pool))
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = _finish(workload, loop)
    scales = loop.calibration.local_scales(loop.started_at)
    reference = [t * s for t, s in zip(loop.times, scales)]
    wall = {
        "ops_per_s": len(loop.times) / sum(loop.times),
        "op_p50_s": statistics.median(loop.times),
        "op_tail": _tail(loop.times),
    }
    return {
        **_summary(loop),
        "checks": checks,
        "ops_per_s": len(reference) / sum(reference),
        "op_p50_s": statistics.median(reference),
        "op_tail": _tail(reference),
        "peak_rss_mb": peak_rss_mb,
        "wall": wall,
        "calibration": loop.calibration.summary(),
        "distinct_instances": len(set(loop.instances)),
        "ops": [[i, t, r] for i, t, r in zip(loop.instances, loop.times, reference)],  # instance, wall, rescaled
    }


def _trace(workload, pool, work, args) -> dict:
    """Traced passes over the first ``trace_ops`` instances for half the
    time, then the same passes untraced; counts are per op and so repeat
    exactly for a seed however many passes fit."""
    import tracing

    tracer = tracing.Tracer()
    loop = Loop(workload, pool, work)
    started = time.perf_counter()
    passes = 0
    tracer.install()
    try:
        # stop before a pass that would end past half the run
        while passes == 0 or (time.perf_counter() - started) * (passes + 1) / passes <= args.seconds / 2:
            for index in range(len(pool)):
                tracer.op = len(loop.times)
                loop.op(index, tracer.span)
            passes += 1
    finally:
        tracer.uninstall()
    traced_ops = len(loop.times)
    for _ in range(passes):
        for index in range(len(pool)):
            loop.op(index)
    checks = _finish(workload, loop)
    scale = loop.calibration.scale()
    # both phases at the reference speed, so drift between them cancels
    reference = [t * s for t, s in zip(loop.times, loop.calibration.local_scales(loop.started_at))]
    overhead_frac = sum(reference[:traced_ops]) / sum(reference[traced_ops:]) - 1.0
    spans = tracer.finished()
    spans_file = args.out / f"{args.workload}-seed{args.seed}.spans.json"
    spans_file.write_text(json.dumps(spans))
    return {
        **_summary(loop),
        "checks": checks,
        "passes": passes,
        "layers": tracing.layer_metrics(spans, traced_ops, overhead_frac, scale),
        "layers_wall": tracing.layer_metrics(spans, traced_ops, overhead_frac, 1.0),
        "self_time_wall": tracing.self_time_table(spans, traced_ops),
        "calibration": loop.calibration.summary(),
        "spans_file": str(spans_file),
    }


if __name__ == "__main__":
    sys.exit(main())
