"""Extension E6: open-loop arrival-rate sweep with time-resolved SLOs.

The paper's multiuser discussion (Section 6.2.1) and every closed-loop
MPL sweep (Extension E3) bound concurrency by construction; the
overload-facing question — *where is the knee?* — needs open-loop
arrivals: a Poisson stream at a fixed offered rate, independent of
completions.  This experiment sweeps the offered rate over the mixed
Wisconsin workload on both machines and reports the latency-knee table:
percentiles stay flat while the machine keeps up, then grow without
bound once the offered rate crosses the service capacity.

Evidence is time-resolved, not just end-of-run: every point runs with a
:class:`~repro.metrics.TelemetrySampler` attached (passive, so the
numbers are bit-identical with or without it) and stores the
sliding-window p95 track, the admission-queue depth track and the
detector alerts — the knee row of the table is backed by the simulated
timestamp overload onset fired.
"""

from __future__ import annotations

from typing import Any, Optional

from ..metrics.slo import SlidingWindowTracker, detect_all
from ..metrics.telemetry import TelemetrySampler
from ..workloads import WorkloadSpec
from .matrix import Axis, ExperimentSpec, Grid
from .reporting import Report
from .workload import machine_builder, make_mix

__all__ = ["DEFAULT_RATES", "EXTENSION_E6_SPEC"]

#: Offered arrival rates (queries/second) straddling both machines'
#: saturation throughput at the committed scale.
DEFAULT_RATES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)

#: Telemetry tracks persisted per point (times + values); the rest of
#: the sampler's series stay in-process to keep the store light.
_STORED_TRACKS = ("slo.p50", "slo.p95", "slo.p99", "admission.queued")


def _telemetry_point(config: dict[str, Any]) -> dict[str, Any]:
    """Grid point: one (machine, rate) open-loop run with telemetry."""
    n = config["n"]
    spec = WorkloadSpec(
        queries=config["queries"], arrival="open",
        arrival_rate=config["rate"], mpl=config["mpl"],
        timeout=config["timeout"], seed=config["seed"],
    )
    slo = SlidingWindowTracker(window=config["window"])
    sampler = TelemetrySampler(interval=config["interval"], slo=slo)
    machine = machine_builder(config["machine"], n)()
    result = machine.run_workload(
        make_mix(config["mix"], n), spec, telemetry=sampler
    )
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
    the summary's profile holds every point's latency summary, stored
    telemetry tracks and detector alerts."""
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


def _telemetry_summarise(
    grid: Grid, results: list[Any]
) -> tuple[Report, dict[str, Any]]:
    n = grid.base["n"]
    queries = grid.base["queries"]
    machines = grid.axis("machine").values
    rates = grid.axis("rate").values
    report = Report(
        name="telemetry_knee",
        title=(
            f"Open-loop arrival-rate sweep ({grid.base['mix']} mix,"
            f" {queries} queries, mpl={grid.base['mpl']},"
            f" {n:,}-tuple relations): the latency knee"
        ),
        columns=[
            "machine", "rate (q/s)", "throughput (q/s)",
            "latency p50 (s)", "latency p95 (s)", "latency p99 (s)",
            "peak queue", "overload onset (s)",
        ],
    )
    profile: dict[str, Any] = {
        "experiment": "telemetry_knee",
        "mix": grid.base["mix"],
        "relations": {"a": n, "bprime": max(1, n // 10)},
        "spec": {
            "queries": queries, "arrival": "open",
            "mpl": grid.base["mpl"], "timeout": grid.base["timeout"],
            "interval": grid.base["interval"],
            "window": grid.base["window"], "seed": grid.base["seed"],
        },
        "rates": list(rates),
        "points": [],
    }
    curves: dict[str, list[dict[str, Any]]] = {m: [] for m in machines}
    for config, point in zip(grid.points(), results):
        curves[config["machine"]].append(point)
        onset = point["overload_at"]
        report.add_row(
            config["machine"], point["rate"], point["throughput"],
            point["latency"]["p50"], point["latency"]["p95"],
            point["latency"]["p99"], point["peak_queue_depth"],
            "-" if onset is None else onset,
        )
        profile["points"].append(point)

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
        report.check(
            f"{machine}: every submitted query completed",
            all(p["failed"] == 0 for p in points),
        )
    report.notes.append(
        "Open-loop Poisson arrivals at a fixed offered rate; telemetry"
        " sampled every"
        f" {grid.base['interval']:g}s of simulated time with a"
        f" {grid.base['window']:g}s sliding SLO window.  The sampler is"
        " pulled by the kernel, never scheduled, so every number is"
        " bit-identical with telemetry on or off."
    )
    return report, profile


EXTENSION_E6_SPEC = ExperimentSpec(
    name="telemetry_knee", label="Extension E6", kind="extension",
    grid=_telemetry_grid, point=_telemetry_point,
    summarise=_telemetry_summarise,
)
