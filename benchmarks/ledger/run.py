#!/usr/bin/env python3
"""The perf ledger: one command for every end-to-end and per-layer number.

    python3 benchmarks/ledger/run.py run      [--seed N] [--out FILE]
    python3 benchmarks/ledger/run.py trace    [--seed N] [--out FILE]
    python3 benchmarks/ledger/run.py layers   [--out FILE]
    python3 benchmarks/ledger/run.py compare A.json B.json [A2.json B2.json ...]
    python3 benchmarks/ledger/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

``run`` measures the five workloads with tracing off, ``trace`` makes the
separate traced run behind the per-layer tables, ``layers`` runs the
layer microbenchmarks, ``compare`` applies the regression bounds to two
``run`` files, or to two sets of them measured alternately.  The last form is the one ``BENCHMARK.json`` names: one
workload, one JSON object on the last line of standard output.

Every measurement happens in a fresh child process of this one, one at a
time, single-threaded, with ``PYTHONHASHSEED=0``: two measuring processes
on this two-core box inflate each other's wall time by half.  Nothing is
read from or written to ``benchmarks/results/`` or the committed result
store; a result file is written only where ``--out`` says.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Optional  # noqa: E402

import compare  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 1988

#: Scale and samples of the layer microbenchmarks: the ``layers`` command
#: (half a second of work per sample) and the driver's traced run (which
#: has to fit the microbenchmarks beside a traced repetition).
LAYERS_FULL = (1.0, 5)
LAYERS_DRIVER = (0.05, 3)
LAYERS_TOY = (0.01, 1)


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: the workload names and every metric's unit,
    direction and bound.  Also refuses to run outside a full checkout."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit(
            f"{ROOT} has no src/repro: the ledger measures the program in"
            " this checkout and will not fall back to another copy"
        )
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def units(spec: dict[str, Any]) -> dict[str, str]:
    declared = {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }
    return {**compare.LEDGER_ONLY, **declared}


# ---------------------------------------------------------------------------
# worker: the measuring child process
# ---------------------------------------------------------------------------

def worker(args: argparse.Namespace) -> int:
    """Measure in this process; print the result as one JSON line."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.layers_scale is not None:
        import layers

        result: dict[str, Any] = {
            "scale": args.layers_scale, "reps": args.layers_reps,
            "metrics": layers.run_layers(
                args.layers_scale, args.layers_reps
            ),
        }
    else:
        import harness
        from workloads import FULL, TOY

        import_s = time.perf_counter() - _PROCESS_START
        sizes = TOY if args.toy else FULL
        if args.trace:
            result = harness.trace(
                args.workload, sizes, args.seed, args.oracle_fault
            )
        else:
            result = harness.measure(
                args.workload, sizes, args.seed, args.seconds, import_s,
                args.oracle_fault,
            )
    print(json.dumps(result))
    return 0


def spawn(args: argparse.Namespace, *worker_args: str) -> dict[str, Any]:
    """Run one worker to completion and return its result."""
    command = [sys.executable, os.path.abspath(__file__), "worker"]
    command += worker_args
    if args.toy:
        command.append("--toy")
    if args.oracle_fault:
        command.append("--oracle-fault")
    env = dict(os.environ, PYTHONHASHSEED=str(args.hashseed))
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, check=False
    )
    if done.returncode != 0:
        raise SystemExit(
            f"worker {' '.join(worker_args)} exited {done.returncode}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def spawn_workload(
    args: argparse.Namespace, name: str, trace: bool
) -> dict[str, Any]:
    return spawn(
        args, "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(trace)),
    )


def spawn_layers(
    args: argparse.Namespace, scale: float, reps: int
) -> dict[str, Any]:
    if args.toy:
        scale, reps = LAYERS_TOY
    return spawn(
        args, "--layers-scale", str(scale), "--layers-reps", str(reps)
    )


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def print_metrics(
    title: str, metrics: dict[str, Any], unit_of: dict[str, str]
) -> None:
    print(f"\n{title}")
    for name, value in metrics.items():
        if isinstance(value, dict):
            value = value["value"]
        print(f"  {name:<44}{value:>18.6g} {unit_of.get(name, '')}")


def write_report(
    args: argparse.Namespace, command: str, body: dict[str, Any]
) -> None:
    report = {
        "command": command, "seed": args.seed, "hashseed": args.hashseed,
        "toy": args.toy, "python": platform.python_version(),
        "cpu_count": os.cpu_count(), **body,
    }
    if args.out is None:
        print("\nno --out: result not saved")
        return
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"\nwrote {args.out}")


def exit_code(results: dict[str, dict[str, Any]]) -> int:
    failed = {
        name: result["failures"]
        for name, result in results.items() if result["failed"]
    }
    for name, failures in failed.items():
        print(f"FAILED operations on {name}:", *failures, sep="\n  ")
    return 1 if failed else 0


def command_run(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        result = results[name] = spawn_workload(args, name, trace=False)
        print_metrics(
            f"{name}  ({result['reps']} repetitions,"
            f" {result['attempted']} operations checked,"
            f" {result['failed']} failed)",
            result["metrics"], units(spec),
        )
    write_report(args, "run", {"workloads": results})
    return exit_code(results)


def command_trace(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    from tracing import LAYERS

    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        result = results[name] = spawn_workload(args, name, trace=True)
        metrics = result["metrics"]
        print_metrics(name, metrics, units(spec))
        total = sum(metrics[f"trace.{layer}.self_s"] for layer in LAYERS)
        print(f"  {'layer':<20}{'self_s':>10}{'share':>8}{'calls':>12}")
        for layer in LAYERS:
            self_s = metrics[f"trace.{layer}.self_s"]
            print(
                f"  {layer:<20}{self_s:>10.3f}{self_s / total:>8.1%}"
                f"{metrics[f'trace.{layer}.calls']:>12}"
            )
    write_report(args, "trace", {"workloads": results})
    return exit_code(results)


def command_layers(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    result = spawn_layers(args, *LAYERS_FULL)
    print_metrics(
        f"layer microbenchmarks (scale {result['scale']},"
        f" median of {result['reps']})",
        result["metrics"], units(spec),
    )
    write_report(args, "layers", result)
    return 0


def command_driver(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    """One workload in the shape ``BENCHMARK.json``'s driver reads."""
    unit_of = units(spec)
    result = spawn_workload(args, args.workload, bool(args.trace))
    measured = result["metrics"]
    if args.trace:
        layer_result = spawn_layers(args, *LAYERS_DRIVER)
        measured.update({
            name: entry["value"]
            for name, entry in layer_result["metrics"].items()
        })
        # A metric a workload does not define reads 0 in the driver's
        # per-layer set (the contract wants every name on every run).
        wanted = [metric["name"] for metric in spec["per_layer"]]
        measured = {name: measured.get(name, 0.0) for name in wanted}
    else:
        wanted = [metric["name"] for metric in spec["end_to_end"]]
        measured = {name: measured[name] for name in wanted}
    print_metrics(args.workload, measured, unit_of)
    code = exit_code({args.workload: result})
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of[name]}
            for name, value in measured.items()
        },
    }))
    return code


def command_compare(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    reports = []
    for path in args.files:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    # Files alternate A, B, A, B ... — the order to measure them in.
    rows = compare.compare_runs(spec, reports[0::2], reports[1::2])
    print(compare.format_rows(rows))
    return 1 if any(row.verdict == "worse" for row in rows) else 0


COMMANDS = {
    "run": command_run, "trace": command_trace, "layers": command_layers,
    "compare": command_compare, "worker": worker,
}


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", nargs="?", choices=sorted(COMMANDS))
    parser.add_argument(
        "files", nargs="*",
        help="compare: A.json B.json [A2.json B2.json ...], pooled per side",
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="cap on a run's timed repetitions, whose number is fixed"
             " (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default: none written)")
    parser.add_argument(
        "--hashseed", default="0",
        help="PYTHONHASHSEED of the measuring processes (default 0)",
    )
    parser.add_argument(
        "--toy", action="store_true",
        help="smoke-test sizes; numbers mean nothing",
    )
    parser.add_argument(
        "--oracle-fault", action="store_true",
        help="self-test: expect one row too many once; must exit non-zero",
    )
    parser.add_argument("--layers-scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--layers-reps", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.command == "compare" and (
        len(args.files) < 2 or len(args.files) % 2
    ):
        parser.error("compare takes pairs of result files: A B [A2 B2 ...]")
    if args.command is None and args.workload is None:
        parser.error("name a command, or --workload for the driver form")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if args.command == "worker":
        return worker(args)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is not None:
        names = [workload["name"] for workload in spec["workloads"]]
        if args.workload not in names:
            raise SystemExit(f"unknown workload {args.workload!r}: {names}")
    if args.command is None:
        return command_driver(args, spec)
    return COMMANDS[args.command](args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
