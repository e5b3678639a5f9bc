"""Command-line entry points.

``python -m repro [n_tuples]``
    Loads a Wisconsin relation on the paper's 8+8-node Gamma
    configuration and a 20-AMP Teradata DBC/1012, runs a miniature
    Table 1/2 workload on both, and prints the comparison.

``python -m repro profile [query]``
    EXPLAIN ANALYZE: runs one query with the profiler attached and
    prints the annotated plan tree, phase timeline, critical path and
    bottleneck verdict.  ``--json`` / ``--trace`` dump the profile and
    the Perfetto-loadable execution trace to files.

``python -m repro workload``
    Multiuser workload: N terminals (or an open-loop Poisson stream)
    submit a query mix against one live simulation behind admission
    control; prints per-query latency percentiles and throughput.
    ``--sweep`` runs the MPL 1→16 throughput–latency sweep instead;
    ``--json`` dumps the result (or sweep profile) to a file.

``python -m repro skew``
    Skew sweep: joinABprime with a Zipf-distributed join attribute
    under every redistribution strategy (hash / range / vhash /
    hot-broadcast), reporting per-strategy speedup and per-node
    utilisation spread; ``--json`` dumps the sweep profile.

``python -m repro hybrid``
    Hybrid-join spill-policy sweep: joinABprime under optimizer
    estimate error (the plan sees a build side 4x smaller/larger than
    reality) at several memory budgets, comparing the static plan
    against reactive bucket demotion and fully dynamic recursive
    re-partitioning; ``--json`` dumps the sweep profile.

``python -m repro scaleup``
    Machine-size sweep: the 1 % selection and joinABprime at 8, 64,
    256 and 1000 disk sites, printing the speedup-vs-sites table
    (simulated response) plus the kernel events each point cost;
    ``--json`` dumps the sweep profile.

``python -m repro matrix``
    The experiment matrix against the persistent result store under
    ``benchmarks/results/store/``: ``list`` registered experiments and
    their stored grid points; ``run [name …]`` resumes experiments —
    only grid points missing from the store execute (``--force``
    re-runs and replaces); ``report`` prints the regenerated tables
    from stored runs.

``python -m repro monitor [mix]``
    Telemetry monitor: an open-loop Poisson workload with the sampler
    attached — per-interval cluster time series (utilisation, queues,
    locks, memory), sliding-window latency percentiles, and the
    overload/convoy/skew detectors — rendered as an ASCII sparkline
    dashboard.  ``--json`` dumps the full telemetry document;
    ``--trace`` writes the counter tracks as a Perfetto-loadable trace.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .bench import build_gamma, build_teradata, run_stored
from .workloads.queries import join_abprime, selection_query


def _demo(n: int) -> int:
    print(f"Gamma database machine reproduction — {n:,}-tuple demo")
    print("(times are modeled seconds on the 1988 hardware)\n")
    relations = [("heap", n, "heap"), ("idx", n, "indexed"),
                 ("Bp", n // 10, "heap")]
    gamma = build_gamma(relations=relations)
    teradata = build_teradata(relations=relations)
    workload = {
        "1% selection (heap)": lambda into: selection_query(
            "heap", n, 0.01, into=into),
        "10% selection (heap)": lambda into: selection_query(
            "heap", n, 0.10, into=into),
        "1% selection (indexed)": lambda into: selection_query(
            "idx", n, 0.01, into=into),
        "joinABprime": lambda into: join_abprime("heap", "Bp", key=False,
                                                 into=into),
    }
    print(f"{'query':<26}{'gamma':>10}{'teradata':>12}")
    for label, builder in workload.items():
        g = run_stored(gamma, builder)
        t = run_stored(teradata, builder)
        print(f"{label:<26}{g.response_time:>9.2f}s{t.response_time:>11.2f}s")
    print("\nRun `pytest benchmarks/ --benchmark-only` to regenerate every"
          " table and figure of the paper.")
    return 0


def _profile(args: argparse.Namespace) -> int:
    from .metrics import TraceBuffer, explain_analyze

    n = args.tuples
    relations = [("A", n, "heap"), ("Bp", n // 10, "heap")]
    if args.machine == "gamma":
        machine = build_gamma(relations=relations)
    else:
        machine = build_teradata(relations=relations)

    builders = {
        "joinABprime": lambda into: join_abprime("A", "Bp", key=False,
                                                 into=into),
        "select1": lambda into: selection_query("A", n, 0.01, into=into),
        "select10": lambda into: selection_query("A", n, 0.10, into=into),
    }
    query = builders[args.query]("profile_result")

    trace: Optional[TraceBuffer] = None
    if args.trace is not None:
        if args.machine != "gamma":
            print("note: --trace is Gamma-only; ignoring", file=sys.stderr)
        else:
            trace = TraceBuffer()
    if trace is not None:
        result = machine.run(query, trace=trace, profile=True)
    else:
        result = machine.run(query, profile=True)
    machine.drop_relation("profile_result")

    print(explain_analyze(result))
    if args.json is not None:
        with open(args.json, "w") as fh:
            fh.write(result.profile.to_json())
        print(f"\nprofile written to {args.json}")
    if trace is not None:
        trace.write(args.trace)
        print(f"trace written to {args.trace}")
    return 0


def _workload(args: argparse.Namespace) -> int:
    import json

    from .bench.workload import (
        machine_builder,
        make_mix,
        workload_mpl_experiment,
    )
    from .workloads import WorkloadSpec

    if args.sweep:
        report, profile = workload_mpl_experiment(
            n=args.tuples, queries=args.queries, clients=args.clients,
            mix=args.mix, think_time=args.think_time, policy=args.policy,
            timeout=args.timeout, seed=args.seed,
            machines=(
                ("gamma", "teradata") if args.machine == "both"
                else (args.machine,)
            ),
        )
        print(report.to_markdown())
        if args.json is not None:
            with open(args.json, "w") as fh:
                json.dump(profile, fh, indent=2)
            print(f"sweep profile written to {args.json}")
        return 0 if report.all_checks_pass else 1

    spec = WorkloadSpec(
        queries=args.queries, clients=args.clients, arrival=args.arrival,
        think_time=args.think_time, arrival_rate=args.rate, mpl=args.mpl,
        policy=args.policy, timeout=args.timeout, seed=args.seed,
    )
    machines = (
        ["gamma", "teradata"] if args.machine == "both" else [args.machine]
    )
    payload = []
    for name in machines:
        machine = machine_builder(name, args.tuples)()
        result = machine.run_workload(make_mix(args.mix, args.tuples), spec)
        payload.append(result.to_dict())
        latency = result.latency
        print(
            f"{name}: {result.completed}/{result.submitted} ok"
            f" ({result.failed} failed), {result.throughput:.3f} q/s over"
            f" {result.elapsed:.2f}s simulated"
        )
        print(
            f"  latency  p50={latency.p50:.3f}s p95={latency.p95:.3f}s"
            f" p99={latency.p99:.3f}s mean={latency.mean:.3f}s"
            f" max={latency.max:.3f}s"
        )
        print(
            f"  queueing mean={result.queue_wait.mean:.3f}s"
            f" peak_queue={result.admission['peak_queue']}"
            f" timeouts={result.admission['timeouts']}"
        )
        for kind, stats in result.by_kind().items():
            print(
                f"    {kind:<24} n={stats.count:<4} mean={stats.mean:.3f}s"
                f" p95={stats.p95:.3f}s"
            )
        if result.errors_by_type():
            print(f"  errors: {result.errors_by_type()}")
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(payload if len(payload) > 1 else payload[0], fh,
                      indent=2)
        print(f"result written to {args.json}")
    return 0


def _monitor(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from .bench.workload import machine_builder, make_mix
    from .metrics import (
        SlidingWindowTracker,
        TelemetrySampler,
        TraceBuffer,
        detect_all,
        render_dashboard,
    )
    from .workloads import WorkloadSpec

    spec = WorkloadSpec(
        queries=args.queries, arrival="open", arrival_rate=args.rate,
        mpl=args.mpl, timeout=args.timeout, seed=args.seed,
    )
    machines = (
        ["gamma", "teradata"] if args.machine == "both" else [args.machine]
    )
    payload = []
    for name in machines:
        slo = SlidingWindowTracker(window=args.window)
        sampler = TelemetrySampler(interval=args.interval, cap=args.cap,
                                   slo=slo)
        machine = machine_builder(name, args.tuples)()
        result = machine.run_workload(
            make_mix(args.mix, args.tuples), spec, telemetry=sampler)
        alerts = detect_all(sampler)
        warmup = slo.warmup_end()
        print(f"== {name}: {args.mix} mix, open-loop {args.rate:g} q/s,"
              f" mpl={spec.mpl}, {sampler.samples} samples"
              f" @ {args.interval:g}s ==")
        print(render_dashboard(sampler, alerts=alerts, width=args.width))
        final = slo.snapshot(result.elapsed)
        print(
            f"{name}: {result.completed}/{result.submitted} ok"
            f" ({result.failed} failed), {result.throughput:.3f} q/s over"
            f" {result.elapsed:.2f}s simulated"
        )
        print(
            f"  window[{args.window:g}s] p50={final['p50']:.3f}s"
            f" p95={final['p95']:.3f}s p99={final['p99']:.3f}s"
            f" error_rate={final['error_rate']:.3f}"
        )
        print("  warm-up ends"
              + (f" t={warmup:g}s" if warmup is not None else ": n/a"))
        payload.append({
            "machine": name,
            "mix": args.mix,
            "spec": dataclasses.asdict(spec),
            "result": {k: v for k, v in result.to_dict().items()
                       if k != "records"},
            "telemetry": sampler.to_dict(),
            "alerts": [alert.as_dict() for alert in alerts],
            "warmup_end": warmup,
        })
        if args.trace is not None:
            path = args.trace
            if len(machines) > 1:
                stem, dot, ext = path.rpartition(".")
                path = f"{stem}.{name}{dot}{ext}" if dot else f"{path}.{name}"
            trace = TraceBuffer()
            sampler.export_counters(trace)
            trace.write(path)
            print(f"  counter trace written to {path}")
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(payload if len(payload) > 1 else payload[0], fh,
                      indent=2, sort_keys=True)
        print(f"telemetry document written to {args.json}")
    return 0


def _skew(args: argparse.Namespace) -> int:
    import json

    from .bench.skew import skew_join_experiment

    report, profile = skew_join_experiment(
        n=args.tuples,
        skews=tuple(args.skews),
        strategies=tuple(args.strategies),
        site_counts=(args.min_sites, args.max_sites),
        seed=args.seed,
    )
    print(report.to_markdown())
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(profile, fh, indent=2)
        print(f"sweep profile written to {args.json}")
    return 0 if report.all_checks_pass else 1


def _hybrid(args: argparse.Namespace) -> int:
    import json

    from .bench.ablations import ablation_hybrid_dynamic_experiment

    report, profile = ablation_hybrid_dynamic_experiment(
        n=args.tuples,
        errors=tuple(args.errors),
        memory_ratios=tuple(args.ratios),
        policies=tuple(args.policies),
    )
    print(report.to_markdown())
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(profile, fh, indent=2)
        print(f"sweep profile written to {args.json}")
    return 0 if report.all_checks_pass else 1


def _scaleup(args: argparse.Namespace) -> int:
    import json

    from .bench.scaleup import scaleup_experiment

    report, profile = scaleup_experiment(
        n=args.tuples,
        site_counts=[s for s in args.sites if s <= args.max_sites],
    )
    print(report.to_markdown())
    for point in profile["points"]:
        print(
            f"  {point['query']:<12} @{point['sites']:<5} sites:"
            f" {point['events']:>11,} kernel events"
        )
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(profile, fh, indent=2)
        print(f"sweep profile written to {args.json}")
    return 0 if report.all_checks_pass else 1


def _matrix(args: argparse.Namespace) -> int:
    import os

    from .bench.registry import REGISTRY, names, run_registered
    from .bench.store import ResultStore

    store = ResultStore(args.store)
    command = args.matrix_command or "list"

    if command == "list":
        print(f"{'experiment':<30}{'kind':<11}{'ver':<5}{'stored':>7}"
              "  label")
        for entry in REGISTRY:
            spec = entry.spec
            stored = len(store.records(spec.name, spec.version))
            print(f"{spec.name:<30}{spec.kind:<11}{spec.version:<5}"
                  f"{stored:>7}  {spec.label}")
        for experiment, bad in sorted(store.corrupt_lines.items()):
            print(f"note: {experiment}.jsonl skipped {bad} corrupt"
                  " line(s); ResultStore.compact() rewrites it clean")
        return 0

    # run or report.  The committed store and artifacts are recorded
    # with profiling on (the "profiling does not perturb" checks); match
    # that by default so a warm store resumes cleanly.
    os.environ.setdefault("GAMMA_BENCH_PROFILE", "1")
    selected = list(args.experiments) or names()
    failures = []
    for name in selected:
        run = run_registered(
            name, store,
            force=getattr(args, "force", False),
            jobs=getattr(args, "jobs", None),
        )
        if command == "report":
            print(run.report.to_markdown())
        status = "ok" if run.report.all_checks_pass else "CHECKS FAILED"
        print(f"{name}: {run.executed} executed, {run.cached} cached"
              f" of {run.total} grid points — {status}")
        if not run.report.all_checks_pass:
            failures.append(name)
    if failures:
        print(f"shape checks failed: {', '.join(failures)}")
        return 1
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Gamma database machine reproduction.",
    )
    sub = parser.add_subparsers(dest="command")

    demo = sub.add_parser("demo", help="Gamma vs Teradata comparison demo")
    demo.add_argument("n_tuples", nargs="?", type=int, default=10_000)

    prof = sub.add_parser(
        "profile", help="EXPLAIN ANALYZE one query (annotated plan tree, "
        "phase timeline, critical path, bottleneck verdict)",
    )
    prof.add_argument(
        "query", nargs="?", default="joinABprime",
        choices=["joinABprime", "select1", "select10"],
    )
    prof.add_argument("--machine", choices=["gamma", "teradata"],
                      default="gamma")
    prof.add_argument("--tuples", type=int, default=10_000)
    prof.add_argument("--json", metavar="PATH",
                      help="write the profile as JSON")
    prof.add_argument("--trace", metavar="PATH",
                      help="also record a Perfetto trace (Gamma only)")

    wl = sub.add_parser(
        "workload", help="multiuser workload: terminals submitting a query"
        " mix behind admission control (--sweep for the MPL 1→16 curve)",
    )
    wl.add_argument("--machine", choices=["gamma", "teradata", "both"],
                    default="gamma")
    wl.add_argument("--mix", choices=["selection", "update", "mixed"],
                    default="mixed")
    wl.add_argument("--tuples", type=int, default=1_000,
                    help="size of the A relation (Bprime is a tenth)")
    wl.add_argument("--queries", type=int, default=32,
                    help="total requests submitted over the run")
    wl.add_argument("--clients", type=int, default=4,
                    help="closed-loop terminals")
    wl.add_argument("--arrival", choices=["closed", "open"],
                    default="closed")
    wl.add_argument("--think-time", type=float, default=0.2,
                    help="mean terminal think time (simulated seconds)")
    wl.add_argument("--rate", type=float, default=2.0,
                    help="open-loop arrival rate (queries/second)")
    wl.add_argument("--mpl", type=int, default=None,
                    help="multiprogramming level (default: #clients)")
    wl.add_argument("--policy", choices=["fifo", "priority"],
                    default="fifo")
    wl.add_argument("--timeout", type=float, default=None,
                    help="admission-queue + lock-wait timeout (seconds)")
    wl.add_argument("--seed", type=int, default=1988)
    wl.add_argument("--sweep", action="store_true",
                    help="run the MPL 1→16 throughput-latency sweep")
    wl.add_argument("--json", metavar="PATH",
                    help="write the result (or sweep profile) as JSON")

    sk = sub.add_parser(
        "skew", help="skew sweep: joinABprime with a Zipf join attribute"
        " under each redistribution strategy",
    )
    sk.add_argument("--tuples", type=int, default=10_000,
                    help="size of the probe relation (build is a tenth)")
    sk.add_argument("--skews", type=float, nargs="+",
                    default=[0.0, 0.75, 1.5],
                    help="Zipf exponents to sweep (0 = uniform)")
    sk.add_argument("--strategies", nargs="+",
                    default=["hash", "range", "vhash", "hot-broadcast"],
                    choices=["hash", "range", "vhash", "hot-broadcast"],
                    help="redistribution strategies to compare")
    sk.add_argument("--min-sites", type=int, default=1,
                    help="speedup reference configuration")
    sk.add_argument("--max-sites", type=int, default=8,
                    help="widest configuration (profiled for spread)")
    sk.add_argument("--seed", type=int, default=1988)
    sk.add_argument("--json", metavar="PATH",
                    help="write the sweep profile as JSON")

    hy = sub.add_parser(
        "hybrid", help="hybrid-join spill-policy sweep: estimate error x"
        " memory budget x policy (static/demote/dynamic)",
    )
    hy.add_argument("--tuples", type=int, default=100_000,
                    help="size of the probe relation (build is a tenth;"
                    " the shape checks are calibrated at 100,000)")
    hy.add_argument("--errors", type=float, nargs="+",
                    default=[0.25, 1.0, 4.0],
                    help="estimate-error factors to sweep (0.25 = the"
                    " plan expects a build side 4x smaller than reality)")
    hy.add_argument("--ratios", type=float, nargs="+",
                    default=[1.0, 0.45, 0.2],
                    help="join memory as a fraction of the build side")
    hy.add_argument("--policies", nargs="+",
                    default=["static", "demote", "dynamic"],
                    choices=["static", "demote", "dynamic"],
                    help="spill policies to compare")
    hy.add_argument("--json", metavar="PATH",
                    help="write the sweep profile as JSON")

    su = sub.add_parser(
        "scaleup", help="machine-size sweep: selection + joinABprime at"
        " 8→1000 disk sites (speedup-vs-sites table)",
    )
    su.add_argument("--tuples", type=int, default=100_000,
                    help="size of the A relation (Bprime is a tenth)")
    su.add_argument("--sites", type=int, nargs="+",
                    default=[8, 64, 256, 1000],
                    help="disk-site counts to sweep")
    su.add_argument("--max-sites", type=int, default=1000,
                    help="drop swept configurations above this size"
                    " (the 1000-site points cost minutes of wall clock)")
    su.add_argument("--json", metavar="PATH",
                    help="write the sweep profile as JSON")

    mx = sub.add_parser(
        "matrix", help="experiment matrix: list/run/report against"
        " the persistent result store",
    )
    mx.add_argument("--store", metavar="DIR", default=None,
                    help="result-store directory (default"
                    " benchmarks/results/store; GAMMA_BENCH_STORE)")
    mxsub = mx.add_subparsers(dest="matrix_command")
    mxsub.add_parser(
        "list", help="registered experiments and their stored points")
    mxrun = mxsub.add_parser(
        "run", help="run experiments, resuming from the store (only"
        " missing grid points execute)")
    mxrun.add_argument("experiments", nargs="*",
                       help="experiment names (default: all registered)")
    mxrun.add_argument("--force", action="store_true",
                       help="re-execute and replace stored grid points")
    mxrun.add_argument("--jobs", type=int, default=None,
                       help="sweep worker processes"
                       " (default: GAMMA_BENCH_JOBS or cpu count)")
    mxrep = mxsub.add_parser(
        "report", help="print regenerated reports from the store")
    mxrep.add_argument("experiments", nargs="*",
                       help="experiment names (default: all registered)")

    mon = sub.add_parser(
        "monitor", help="telemetry monitor: open-loop workload with sampled"
        " cluster time series, sliding-window SLOs and overload detectors,"
        " rendered as a sparkline dashboard",
    )
    mon.add_argument("mix", nargs="?", default="mixed",
                     choices=["selection", "update", "mixed"])
    mon.add_argument("--machine", choices=["gamma", "teradata", "both"],
                     default="gamma")
    mon.add_argument("--tuples", type=int, default=1_000,
                     help="size of the A relation (Bprime is a tenth)")
    mon.add_argument("--queries", type=int, default=64,
                     help="total requests submitted over the run")
    mon.add_argument("--rate", type=float, default=8.0,
                     help="open-loop arrival rate (queries/second)")
    mon.add_argument("--mpl", type=int, default=8,
                     help="multiprogramming level")
    mon.add_argument("--timeout", type=float, default=None,
                     help="admission-queue + lock-wait timeout (seconds)")
    mon.add_argument("--seed", type=int, default=1988)
    mon.add_argument("--interval", type=float, default=0.25,
                     help="sampling cadence (simulated seconds)")
    mon.add_argument("--window", type=float, default=4.0,
                     help="SLO sliding-window width (simulated seconds)")
    mon.add_argument("--cap", type=int, default=None,
                     help="ring-buffer cap per series (default unbounded)")
    mon.add_argument("--width", type=int, default=60,
                     help="sparkline width (columns)")
    mon.add_argument("--json", metavar="PATH",
                     help="write the telemetry document as JSON")
    mon.add_argument("--trace", metavar="PATH",
                     help="write the counter tracks as a Perfetto trace")

    # Bare `python -m repro [n]` keeps its historical meaning.
    raw = argv[1:]
    if not raw or (len(raw) == 1 and raw[0].lstrip("-").isdigit()):
        raw = ["demo", *raw]
    args = parser.parse_args(raw)

    if args.command == "profile":
        return _profile(args)
    if args.command == "workload":
        return _workload(args)
    if args.command == "skew":
        return _skew(args)
    if args.command == "hybrid":
        return _hybrid(args)
    if args.command == "scaleup":
        return _scaleup(args)
    if args.command == "matrix":
        return _matrix(args)
    if args.command == "monitor":
        return _monitor(args)
    return _demo(args.n_tuples)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
