"""Command-line pipeline: ingest -> partition -> clear -> report.

Exit codes: 0 success, 1 validation error, 2 solver failure, 3 verification
failure. All outputs are deterministic for fixed seeds and inputs; wall-clock
timestamps only ever appear in a ``metadata`` field of JSON outputs.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import functools
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import clearing, quantize, scenarios
from .errors import (SolverFailure, ValidationError, VerificationFailure, number, numbers,
                     reading)
from .market import ContractGrid, load_bids_json, payment

ENDPOINT_ENV = "STATEMARKET_ENDPOINT"
SWEEP_VALUES = [round(0.1 * i, 1) for i in range(11)]


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture (scenario CSV or bid JSON)."""
    return Path(str(resources.files("statemarket") / "fixtures" / name))


def _now() -> str:
    return dt.datetime.now(dt.timezone.utc).isoformat()


def cmd_ingest(args: argparse.Namespace) -> int:
    if args.scenarios:
        endpoint_only = {
            "--location": args.location,
            "--target-time": args.target_time,
            "--cache-dir": args.cache_dir,
        }
        if given := [flag for flag, value in endpoint_only.items() if value is not None]:
            raise ValidationError(
                f"ingest --scenarios does not take {', '.join(given)}, "
                "which only apply to ingest from an endpoint"
            )
        scen = scenarios.load_scenarios_csv(args.scenarios)
    elif endpoint := args.endpoint or os.environ.get(ENDPOINT_ENV):
        locations = tuple(_parse_location(v) for v in args.location or ())
        if not locations:
            raise ValidationError("ingest from an endpoint needs at least one --location")
        scen = scenarios.fetch_ensemble(
            endpoint,
            locations,
            args.target_time or _now(),
            cache_dir=args.cache_dir or Path("cache"),
        )
    else:
        raise ValidationError("ingest needs --scenarios or an endpoint")
    scenarios.write_scenarios_csv(scen, args.out)
    variance = quantize.size_of_state(scen, range(scen.num_scenarios))
    mean = ", ".join(f"{v:.6g}" for v in scen.mean())
    print(f"scenarios: L={scen.num_scenarios} k={scen.dimension}")
    print(f"mean: ({mean})  variance: {variance:.6g}")
    print(f"written: {args.out}")
    return 0


_SOLVERS = ("exact", "lloyd", "dp1d")


def cmd_partition(args: argparse.Namespace) -> int:
    scen = scenarios.load_scenarios_csv(args.scenarios)
    if args.solver == "exact":
        solution = quantize.solve_exact(scen, args.states)
    elif args.solver == "dp1d":
        solution = quantize.solve_dp_1d(scen, args.states)
    else:
        solution = quantize.solve_lloyd(
            scen, args.states, restarts=args.restarts, seed=args.seed
        )
    if args.svg is not None:  # first, so a partition it refuses writes nothing
        quantize.export_partition_svg(solution, args.svg)
    _write_json(
        args.out,
        {
            **solution.to_dict(),
            "metadata": {"created_at": _now(), "source": str(args.scenarios)},
        },
    )
    text = quantize.describe_states(solution)
    Path(args.out).with_suffix(".states.txt").write_text(text, encoding="utf-8")
    bound = "" if solution.lower_bound is None else f" lower_bound={solution.lower_bound:.9g}"
    print(f"objective: {solution.objective:.9g} (solver: {solution.provenance}{bound})")
    print(text, end="")
    print(f"written: {args.out}")
    return 0


def _coord_label(dims, coord) -> str:
    n, t, s = coord
    if dims.nodes == 1 and dims.periods == 1:
        return str(s + 1)
    return f"{n}_{t}_{s + 1}"


def _sweep_table(
    dims, bids, results: list[tuple[float, clearing.ClearingResult]]
) -> tuple[list[str], list[list[float]]]:
    coords = list(dims.coordinates())
    header = ["pi1", "pi2"]
    for bid in bids:
        for coord in sorted(bid.utilities):
            header.append(f"x_{bid.agent_id}_{_coord_label(dims, coord)}")
        for decision in bid.decisions:
            header.append(f"z_{bid.agent_id}_{decision.name}")
    header += [f"lambda_{_coord_label(dims, coord)}" for coord in coords]
    table = []
    for pi1, result in results:
        row = [pi1, round(1.0 - pi1, 1)]
        for bid in bids:
            grid = result.allocations[bid.agent_id].values
            row += [float(grid[coord]) for coord in sorted(bid.utilities)]
            row += [result.decisions[bid.agent_id][d.name] for d in bid.decisions]
        row += [float(result.prices.values[coord]) for coord in coords]
        table.append(row)
    return header, table


def _write_csv(path: Path, header: list[str], rows: list[list[float]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".12g") for v in row])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def cmd_clear(args: argparse.Namespace) -> int:
    bids, dims = load_bids_json(args.bids)
    out = Path(args.out)
    prices_csv = out.with_suffix(".prices.csv")
    created = {"created_at": _now(), "bids": str(args.bids)}

    if args.sweep_pi:
        results = clearing.sweep_two_state_beliefs(
            bids, dims, SWEEP_VALUES, tol=args.tolerance
        )
        header, table = _sweep_table(dims, bids, results)
        _write_csv(prices_csv, header, table)
        payload = {
            "sweep": [
                {"pi1": pi1, "result": result.to_dict()} for pi1, result in results
            ],
            "metadata": created,
        }
        _write_json(out, payload)
        worst = max(
            max(r.verification.gaps.values()) for _, r in results
        )
        print(f"sweep: {len(results)} clearings, max best-response gap {worst:.3g}")
        print(f"written: {out} and {prices_csv}")
        if any(not r.verification.confirmed for _, r in results):
            raise VerificationFailure("some sweep points failed equilibrium verification")
        return 0

    result = clearing.clear_bids(bids, dims, tol=args.tolerance)
    _write_json(out, {**result.to_dict(), "metadata": created})
    rows = [
        [float(n), float(t), float(s + 1), float(result.prices.values[n, t, s])]
        for (n, t, s) in dims.coordinates()
    ]
    _write_csv(prices_csv, ["node", "period", "state", "price"], rows)
    print(f"welfare: {result.welfare:.9g}")
    for agent in result.agent_ids:
        z = result.decisions[agent]
        z_text = f" z={z}" if z else ""
        print(
            f"  {agent}: x={result.allocations[agent].values.ravel().tolist()}"
            f"{z_text} surplus={result.surplus[agent]:.6g}"
        )
    print(f"prices: {result.prices.values.ravel().tolist()}")
    print(f"written: {out} and {prices_csv}")
    if not result.verification.confirmed:
        raise VerificationFailure(
            f"best-response gaps exceed tolerance: {result.verification.gaps}"
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.result is None and args.partition is None and args.payments is None:
        raise ValidationError("report needs --result, --partition, or --payments")
    text = []  # printed once the partition and the result are read and agree
    if args.partition is not None:
        with reading(args.partition, "partition solution") as payload:
            solution = quantize.QuantizationSolution.from_dict(payload)
        text.append(quantize.describe_states(solution))
    if args.result is not None:
        with reading(args.result, "clearing result") as payload:
            sweep = "sweep" in payload
            results = [e["result"] for e in payload["sweep"]] if sweep else [payload]
            for i, entry in enumerate(results):
                if args.partition is not None:
                    states = number(entry["dimensions"]["states"])
                    if states != solution.num_states:
                        where = f" in sweep entry {i}" if sweep else ""
                        raise ValidationError(f"{args.partition} has {solution.num_states} "
                                              f"states but {args.result} has {states:g}{where}")
                verification = entry["verification"]
                text.append(
                    f"welfare: {number(entry['welfare']):.9g}\n"
                    f"prices: {entry['prices']}\n"
                    f"balance residual {number(verification['balance_residual']):.3g}, "
                    f"budget residual {number(verification['budget_residual']):.3g}, "
                    f"confirmed: {verification['confirmed']}\n"
                )
                for agent, surplus in sorted(entry["surplus"].items()):
                    text.append(f"  {agent}: surplus {number(surplus):.6g}, "
                                f"gap {number(verification['gaps'][agent]):.3g}\n")
    print("".join(text), end="")
    if args.payments is not None:
        with reading(args.payments, "payments") as payload:
            prices = ContractGrid(np.asarray(numbers(payload["prices"]), dtype=float))
            for agent, position in sorted(payload["positions"].items()):
                grid = ContractGrid(np.asarray(numbers(position), dtype=float))
                paid = payment(prices, grid)
                direction = "pays" if paid >= 0 else "receives"
                print(f"  {agent}: {direction} {abs(paid):.6g}")
    return 0


def _parse_location(text: str) -> tuple[float, float]:
    try:
        lat, lon = text.split(",")
        return float(lat), float(lon)
    except ValueError:
        raise ValidationError(f"--location must be 'lat,lon', got {text!r}") from None


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < np.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation errors (exit 1), not argparse's exit 2,
    which this CLI reserves for solver failures."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later ``main``
    call in the process; ``parse_args`` returns a new namespace each call and
    writes nothing into the parser."""
    parser = _Parser(
        prog="statemarket",
        description="State-contingent day-ahead market pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="fetch or load scenarios, write CSV + cache")
    source = ingest.add_mutually_exclusive_group()
    source.add_argument("--scenarios", type=Path, help="input scenario CSV")
    source.add_argument("--endpoint", help=f"ensemble endpoint (or ${ENDPOINT_ENV})")
    # the three endpoint-only flags; cmd_ingest refuses them beside --scenarios
    ingest.add_argument("--location", action="append", metavar="LAT,LON")
    ingest.add_argument("--target-time", help="ISO-8601 realization time")
    ingest.add_argument("--cache-dir", type=Path, help="response cache (default: cache)")
    ingest.add_argument("--out", type=Path, required=True)

    partition = sub.add_parser("partition", help="compute a minimal-size state partition")
    partition.add_argument("--scenarios", type=Path, required=True)
    partition.add_argument("--states", type=int, default=2)
    partition.add_argument("--solver", choices=_SOLVERS, default="lloyd")
    partition.add_argument("--restarts", type=int, default=64)
    partition.add_argument("--seed", type=int, default=0)
    partition.add_argument("--svg", type=Path)
    partition.add_argument("--out", type=Path, required=True)

    clear_cmd = sub.add_parser("clear", help="clear a bid file to allocation and prices")
    clear_cmd.add_argument("--bids", type=Path, required=True)
    clear_cmd.add_argument("--sweep-pi", action="store_true")
    clear_cmd.add_argument("--tolerance", type=_tolerance, default=clearing.DEFAULT_TOL)
    clear_cmd.add_argument("--out", type=Path, required=True)

    report = sub.add_parser("report", help="summarize produced JSON artifacts")
    report.add_argument("--result", type=Path)
    report.add_argument("--partition", type=Path)
    report.add_argument("--payments", type=Path)
    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "partition": cmd_partition,
    "clear": cmd_clear,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
