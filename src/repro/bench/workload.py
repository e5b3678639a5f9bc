"""The multiuser experiments the paper left open (Section 6.2.1).

* **E3** (``workload_mpl``) sweeps the admission multiprogramming level
  on both machines under the same closed-loop terminal workload and
  reports the throughput–latency trade-off: throughput climbs with MPL
  until the hardware saturates, queue waits shrink (more slots), and
  per-query service times stretch (more contention inside the machine).
* **E6** (``telemetry_knee``) answers the overload-facing question
  closed loops cannot — *where is the knee?* — with open-loop arrivals:
  a Poisson stream at a fixed offered rate, independent of completions.
  Percentiles stay flat while the machine keeps up, then grow without
  bound once the offered rate crosses the service capacity.  Every
  point runs with a :class:`~repro.metrics.TelemetrySampler` attached
  (passive, so the numbers are bit-identical with or without it) and
  stores the sliding-window p95 track, the admission-queue depth track
  and the detector alerts — the knee row of the table is backed by the
  simulated timestamp overload onset fired.

Everything is seeded, so a sweep is reproducible bit for bit.  Each
(machine, MPL or rate) cell is one grid point — a fresh machine and a
fresh mix per point, because update mixes mutate relations and reusing
a machine would couple the points.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..metrics.slo import SlidingWindowTracker, detect_all
from ..metrics.telemetry import TelemetrySampler
from ..workloads import (
    QueryMix,
    WorkloadSpec,
    mixed_mix,
    selection_mix,
    update_mix,
)
from .harness import build_gamma, build_teradata
from .matrix import Axis, ExperimentSpec, Grid
from .reporting import Report

__all__ = [
    "make_mix", "machine_builder", "EXTENSION_E3_SPEC", "EXTENSION_E6_SPEC",
]

DEFAULT_MPLS = (1, 2, 4, 8, 16)

#: Offered arrival rates (queries/second) straddling both machines'
#: saturation throughput at the committed scale.
DEFAULT_RATES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)

#: Relation names used by every workload experiment.
A_RELATION = "wl_a"
BPRIME_RELATION = "wl_bprime"

#: Telemetry tracks persisted per E6 point (times + values); the rest of
#: the sampler's series stay in-process to keep the store light.
_STORED_TRACKS = ("slo.p50", "slo.p95", "slo.p99", "admission.queued")


def make_mix(name: str, n: int) -> QueryMix:
    """A canonical mix by name over the experiment's relations."""
    if name == "selection":
        return selection_mix(A_RELATION, n)
    if name == "update":
        return update_mix(A_RELATION, n)
    if name == "mixed":
        return mixed_mix(A_RELATION, BPRIME_RELATION, n)
    raise ValueError(f"unknown mix {name!r}; expected selection/update/mixed")


def machine_builder(machine: str, n: int) -> Callable[[], Any]:
    """A zero-argument builder for a freshly loaded machine.

    Fresh per sweep point: the update mixes mutate relations, so reusing
    one machine would couple the points and break per-point determinism.
    """
    relations = [
        (A_RELATION, n, "heap"), (BPRIME_RELATION, max(1, n // 10), "heap"),
    ]
    if machine == "gamma":
        return lambda: build_gamma(relations=relations)
    if machine == "teradata":
        return lambda: build_teradata(relations=relations)
    raise ValueError(f"unknown machine {machine!r}")


def _curves(
    report: Report,
    grid: Grid,
    results: list[Any],
    row: Callable[[dict[str, Any]], list[Any]],
) -> dict[str, list[dict[str, Any]]]:
    """Add one report row per point (the machine, then ``row(point)``)
    and return the points grouped into one curve per machine."""
    curves: dict[str, list[dict[str, Any]]] = {
        m: [] for m in grid.axis("machine").values
    }
    for config, point in zip(grid.points(), results):
        curves[config["machine"]].append(point)
        report.add_row(config["machine"], *row(point))
    return curves


def _check_completed(report: Report, machine: str, points: list[Any]) -> None:
    report.check(
        f"{machine}: every submitted query completed",
        all(p["failed"] == 0 for p in points),
    )


def _run_workload(
    config: dict[str, Any], spec: WorkloadSpec, telemetry: Any = None
) -> Any:
    """The point's mix under ``spec`` on a freshly loaded machine."""
    machine = machine_builder(config["machine"], config["n"])()
    return machine.run_workload(
        make_mix(config["mix"], config["n"]), spec, telemetry=telemetry
    )


# ---------------------------------------------------------------------------
# E3 — closed-loop MPL sweep
# ---------------------------------------------------------------------------

def _workload_point(config: dict[str, Any]) -> dict[str, Any]:
    """Grid point: one (machine, MPL) workload run (picklable)."""
    spec = WorkloadSpec(
        queries=config["queries"], clients=config["clients"],
        arrival="closed", think_time=config["think_time"],
        policy=config["policy"], timeout=config["timeout"],
        seed=config["seed"],
    ).with_mpl(config["mpl"])
    return _run_workload(config, spec).to_dict()


def _workload_grid(
    n: int = 1_000,
    queries: int = 32,
    clients: int = 16,
    mix: str = "mixed",
    mpls: tuple[int, ...] = DEFAULT_MPLS,
    think_time: float = 0.2,
    policy: str = "fifo",
    timeout: Optional[float] = None,
    seed: int = 1988,
    machines: tuple[str, ...] = ("gamma", "teradata"),
) -> Grid:
    """MPL 1→16 sweep of a closed-loop terminal workload on both machines.

    Each point stores its raw :class:`~repro.metrics.WorkloadResult`
    dictionary, per-query records included.
    """
    return Grid(
        axes=(
            Axis("machine", tuple(machines)),
            Axis("mpl", tuple(mpls)),
        ),
        base={
            "n": n, "queries": queries, "clients": clients, "mix": mix,
            "think_time": think_time, "policy": policy, "timeout": timeout,
            "seed": seed,
        },
    )


def _workload_summarise(grid: Grid, results: list[Any]) -> Report:
    n = grid.base["n"]
    queries, clients = grid.base["queries"], grid.base["clients"]
    report = Report(
        name="workload_mpl",
        title=(
            f"Multiuser {grid.base['mix']} workload: MPL sweep"
            f" ({clients} terminals, {queries} queries, {n:,}-tuple"
            f" relations)"
        ),
        columns=[
            "machine", "MPL", "ok/submitted", "throughput (q/s)",
            "latency p50 (s)", "latency p95 (s)", "queue wait mean (s)",
            "service mean (s)",
        ],
    )
    curves = _curves(report, grid, results, lambda point: [
        point["mpl"], f"{point['completed']}/{point['submitted']}",
        point["throughput"],
        point["latency"]["p50"], point["latency"]["p95"],
        point["queue_wait"]["mean"], point["service"]["mean"],
    ])
    for machine, points in curves.items():
        first, last = points[0], points[-1]
        report.check(
            f"{machine}: raising MPL {first['mpl']}→{last['mpl']} raises"
            " throughput",
            last["throughput"] > first["throughput"],
        )
        report.check(
            f"{machine}: queue waits shrink as slots are added",
            last["queue_wait"]["mean"] < first["queue_wait"]["mean"]
            or first["queue_wait"]["mean"] == 0.0,
        )
        report.check(
            f"{machine}: per-query service stretches under contention",
            last["service"]["mean"] > first["service"]["mean"],
        )
        _check_completed(report, machine, points)
    report.notes.append(
        "Closed-loop terminals with exponential think times; seeded, so"
        " every number is reproducible bit for bit."
    )
    return report


EXTENSION_E3_SPEC = ExperimentSpec(
    name="workload_mpl", label="Extension E3", kind="extension",
    grid=_workload_grid, point=_workload_point,
    summarise=_workload_summarise,
)


# ---------------------------------------------------------------------------
# E6 — open-loop arrival-rate sweep with time-resolved SLOs
# ---------------------------------------------------------------------------

def _telemetry_point(config: dict[str, Any]) -> dict[str, Any]:
    """Grid point: one (machine, rate) open-loop run with telemetry."""
    spec = WorkloadSpec(
        queries=config["queries"], arrival="open",
        arrival_rate=config["rate"], mpl=config["mpl"],
        timeout=config["timeout"], seed=config["seed"],
    )
    slo = SlidingWindowTracker(window=config["window"])
    sampler = TelemetrySampler(interval=config["interval"], slo=slo)
    result = _run_workload(config, spec, telemetry=sampler)
    alerts = detect_all(sampler)
    overload = [a for a in alerts if a.kind == "overload"]
    queued = sampler.series.get("admission.queued")
    summary = result.to_dict()
    del summary["records"]  # per-query records would dominate the store
    summary.update({
        "rate": config["rate"],
        "warmup_end": slo.warmup_end(),
        "overload_at": overload[0].at if overload else None,
        "alerts": [a.as_dict() for a in alerts],
        "peak_queue_depth": max(queued.values) if queued else 0.0,
        "telemetry": {
            "interval": sampler.interval,
            "samples": sampler.samples,
            "tracks": {
                key: {
                    "times": list(sampler.series[key].times),
                    "values": list(sampler.series[key].values),
                }
                for key in _STORED_TRACKS if key in sampler.series
            },
        },
    })
    return summary


def _telemetry_grid(
    n: int = 1_000,
    queries: int = 64,
    mix: str = "mixed",
    rates: tuple[float, ...] = DEFAULT_RATES,
    mpl: int = 8,
    timeout: Optional[float] = None,
    interval: float = 0.25,
    window: float = 4.0,
    seed: int = 1988,
    machines: tuple[str, ...] = ("gamma", "teradata"),
) -> Grid:
    """Arrival-rate sweep with time-resolved percentiles on both machines;
    each point stores its latency summary, telemetry tracks and detector
    alerts."""
    return Grid(
        axes=(
            Axis("machine", tuple(machines)),
            Axis("rate", tuple(rates)),
        ),
        base={
            "n": n, "queries": queries, "mix": mix, "mpl": mpl,
            "timeout": timeout, "interval": interval, "window": window,
            "seed": seed,
        },
    )


def _telemetry_summarise(grid: Grid, results: list[Any]) -> Report:
    report = Report(
        name="telemetry_knee",
        title=(
            f"Open-loop arrival-rate sweep ({grid.base['mix']} mix,"
            f" {grid.base['queries']} queries, mpl={grid.base['mpl']},"
            f" {grid.base['n']:,}-tuple relations): the latency knee"
        ),
        columns=[
            "machine", "rate (q/s)", "throughput (q/s)",
            "latency p50 (s)", "latency p95 (s)", "latency p99 (s)",
            "peak queue", "overload onset (s)",
        ],
    )
    curves = _curves(report, grid, results, lambda point: [
        point["rate"], point["throughput"],
        point["latency"]["p50"], point["latency"]["p95"],
        point["latency"]["p99"], point["peak_queue_depth"],
        "-" if point["overload_at"] is None else point["overload_at"],
    ])
    for machine, points in curves.items():
        low, high = points[0], points[-1]
        report.check(
            f"{machine}: offered load {low['rate']:g}->{high['rate']:g} q/s"
            " pushes p95 past the knee (>= 2x)",
            high["latency"]["p95"] >= 2.0 * low["latency"]["p95"],
        )
        report.check(
            f"{machine}: throughput saturates below the top offered rate",
            high["throughput"] < high["rate"],
        )
        report.check(
            f"{machine}: overload detector fires at the top rate only"
            " after staying quiet at the bottom one",
            low["overload_at"] is None and high["overload_at"] is not None,
        )
        report.check(
            f"{machine}: sliding-window p95 track covers the run",
            all(
                len(p["telemetry"]["tracks"]["slo.p95"]["values"]) > 0
                for p in points
            ),
        )
        _check_completed(report, machine, points)
    report.notes.append(
        "Open-loop Poisson arrivals at a fixed offered rate; telemetry"
        " sampled every"
        f" {grid.base['interval']:g}s of simulated time with a"
        f" {grid.base['window']:g}s sliding SLO window.  The sampler is"
        " pulled by the kernel, never scheduled, so every number is"
        " bit-identical with telemetry on or off."
    )
    return report


EXTENSION_E6_SPEC = ExperimentSpec(
    name="telemetry_knee", label="Extension E6", kind="extension",
    grid=_telemetry_grid, point=_telemetry_point,
    summarise=_telemetry_summarise,
)
