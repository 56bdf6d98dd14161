"""Run every workload untraced and traced; print all metrics in one table.

    python3 bench/run_all.py --seed 1 --seconds 25

Each (workload, trace) pair is one ``run.py`` run; the combined results go
to ``.bench_out/summary-seed<seed>.json``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()

    summary = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True,
            )
            if done.returncode != 0:
                print(f"{workload} trace {trace} failed:\n{done.stderr}", file=sys.stderr)
                return 1
            summary[f"{workload}/trace{trace}"] = result = json.loads(done.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            if not trace:  # the sixth end-to-end metric
                metrics["failed_frac"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
            print(f"{workload} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in metrics.items():
                print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    out = run.ROOT / ".bench_out" / f"summary-seed{args.seed}.json"
    out.write_text(json.dumps(summary, indent=2))
    print(f"written: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
