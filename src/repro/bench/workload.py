"""The multiuser experiment the paper left open (Section 6.2.1).

Sweeps the admission multiprogramming level on both machines under the
same terminal workload and reports the throughput–latency trade-off:
throughput climbs with MPL until the hardware saturates, queue waits
shrink (more slots), and per-query service times stretch (more
contention inside the machine).  Everything is seeded, so a sweep is
reproducible bit for bit.

Each (machine, MPL) cell is one grid point — a fresh machine and a
fresh mix per point, because update mixes mutate relations and reusing
a machine would couple the points.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

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
    "DEFAULT_MPLS", "A_RELATION", "BPRIME_RELATION", "make_mix",
    "workload_relations", "machine_builder", "EXTENSION_E3_SPEC",
]

DEFAULT_MPLS = (1, 2, 4, 8, 16)

#: Relation names used by every workload experiment.
A_RELATION = "wl_a"
BPRIME_RELATION = "wl_bprime"


def make_mix(name: str, n: int) -> QueryMix:
    """A canonical mix by name over the experiment's relations."""
    if name == "selection":
        return selection_mix(A_RELATION, n)
    if name == "update":
        return update_mix(A_RELATION, n)
    if name == "mixed":
        return mixed_mix(A_RELATION, BPRIME_RELATION, n)
    raise ValueError(f"unknown mix {name!r}; expected selection/update/mixed")


def workload_relations(n: int) -> list[tuple[str, int, str]]:
    return [(A_RELATION, n, "heap"), (BPRIME_RELATION, max(1, n // 10), "heap")]


def machine_builder(machine: str, n: int) -> Callable[[], Any]:
    """A zero-argument builder for a freshly loaded machine.

    Fresh per sweep point: the update mixes mutate relations, so reusing
    one machine would couple the points and break per-point determinism.
    """
    relations = workload_relations(n)
    if machine == "gamma":
        return lambda: build_gamma(relations=relations)
    if machine == "teradata":
        return lambda: build_teradata(relations=relations)
    raise ValueError(f"unknown machine {machine!r}")


def _workload_point(config: dict[str, Any]) -> dict[str, Any]:
    """Grid point: one (machine, MPL) workload run (picklable)."""
    n = config["n"]
    spec = WorkloadSpec(
        queries=config["queries"], clients=config["clients"],
        arrival="closed", think_time=config["think_time"],
        policy=config["policy"], timeout=config["timeout"],
        seed=config["seed"],
    ).with_mpl(config["mpl"])
    machine = machine_builder(config["machine"], n)()
    result = machine.run_workload(make_mix(config["mix"], n), spec)
    return result.to_dict()


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

    The summary's profile holds every point's raw
    :class:`~repro.metrics.WorkloadResult` dictionary, per-query records
    included.
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


def _workload_summarise(
    grid: Grid, results: list[Any]
) -> tuple[Report, dict[str, Any]]:
    n = grid.base["n"]
    mix = grid.base["mix"]
    queries, clients = grid.base["queries"], grid.base["clients"]
    machines = grid.axis("machine").values
    mpls = grid.axis("mpl").values
    report = Report(
        name="workload_mpl",
        title=(
            f"Multiuser {mix} workload: MPL sweep"
            f" ({clients} terminals, {queries} queries, {n:,}-tuple"
            f" relations)"
        ),
        columns=[
            "machine", "MPL", "ok/submitted", "throughput (q/s)",
            "latency p50 (s)", "latency p95 (s)", "queue wait mean (s)",
            "service mean (s)",
        ],
    )
    profile: dict[str, Any] = {
        "experiment": "workload_mpl",
        "mix": mix,
        "relations": {"a": n, "bprime": max(1, n // 10)},
        "spec": {
            "queries": queries, "clients": clients, "arrival": "closed",
            "think_time": grid.base["think_time"],
            "policy": grid.base["policy"],
            "timeout": grid.base["timeout"], "seed": grid.base["seed"],
        },
        "mpls": list(mpls),
        "points": [],
    }
    curves: dict[str, list[dict[str, Any]]] = {m: [] for m in machines}
    for config, point in zip(grid.points(), results):
        curves[config["machine"]].append(point)
        report.add_row(
            config["machine"], point["mpl"],
            f"{point['completed']}/{point['submitted']}",
            point["throughput"],
            point["latency"]["p50"], point["latency"]["p95"],
            point["queue_wait"]["mean"], point["service"]["mean"],
        )
        profile["points"].append(point)

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
        report.check(
            f"{machine}: every submitted query completed",
            all(p["failed"] == 0 for p in points),
        )
    report.notes.append(
        "Closed-loop terminals with exponential think times; seeded, so"
        " every number is reproducible bit for bit."
    )
    return report, profile


EXTENSION_E3_SPEC = ExperimentSpec(
    name="workload_mpl", label="Extension E3", kind="extension",
    grid=_workload_grid, point=_workload_point,
    summarise=_workload_summarise,
)
