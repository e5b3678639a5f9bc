"""Measures one workload inside the current (fresh) process.

``measure`` is the untraced run behind every end-to-end metric: oracle,
set-up (several times), one warm-up repetition with the full answer
check, then the workload's fixed number of timed repetitions.
``trace`` is the separate traced run behind the per-layer metrics: one
plain repetition for the counts and the untraced reference time, then one
repetition under cProfile.  Neither edits anything under ``src/``.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import asdict
from statistics import median
from typing import Any, Callable, Optional

from repro.sim import Simulation

import oracle
from tracing import LAYERS, Tracer
from workloads import GAMMA, TERADATA, WORKLOADS, Recorder, Sizes


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def count_kernel_events() -> Callable[[], int]:
    """Wrap ``Simulation.run`` so every simulation adds the events it
    processed to a running total; returns the total's reader.

    ``run_workload`` and ``load_relation_timed`` expose no event count,
    so the traced run counts at the kernel's public entry point instead:
    one extra call per simulation, none per event.
    """
    total = 0
    original = Simulation.run

    def run(sim: Simulation, until: Optional[float] = None) -> float:
        nonlocal total
        before = sim.events_processed
        try:
            return original(sim, until)
        finally:
            total += sim.events_processed - before

    Simulation.run = run  # type: ignore[method-assign]
    return lambda: total


class Session:
    """One workload's oracle, state and repetitions."""

    def __init__(
        self, name: str, sizes: Sizes, seed: int, oracle_fault: bool,
        kernel_events: Optional[Callable[[], int]] = None,
    ) -> None:
        self.workload = WORKLOADS[name](sizes, seed)
        self.tally = oracle.Tally(oracle_fault)
        self.kernel_events = kernel_events
        self.setup_samples: list[float] = []
        self.expect = self.workload.expect()
        self.state: Any = None

    def build(self) -> None:
        # Drop the old state first: two copies alive would double the peak.
        self.state = None
        gc.collect()
        start = time.perf_counter()
        self.state = self.workload.setup()
        self.setup_samples.append(time.perf_counter() - start)

    def repetition(
        self, verify: bool, tracer: Optional[Tracer] = None
    ) -> Recorder:
        if self.workload.rebuilds or self.state is None:
            self.build()
        gc.collect()
        rec = Recorder(self.tally, tracer, self.kernel_events)
        self.workload.body(self.state, self.expect, rec, verify)
        return rec

    def simulated(self, recs: list[Recorder]) -> dict[str, float]:
        """The simulated-clock metrics, asserted equal on every
        repetition (the simulator is deterministic; a difference is a
        bug, counted as a failed operation)."""
        first = recs[0]
        self.tally.check(
            "sim_s repeats exactly",
            all(rec.sim_s == first.sim_s for rec in recs),
            f"{sorted({rec.sim_s for rec in recs})}",
        )
        out = {"sim_s": first.sim_s}
        if first.paper_log_err is not None:
            out["paper_log_err"] = first.paper_log_err
        if self.workload.latency_metrics:
            result = first.gamma_workload
            out["sim_qps"] = result.throughput
            out["sim_p95_s"] = result.latency.p95
            out["sim_p50_s"] = result.latency.p50
        return out

    def verdict(self) -> dict[str, Any]:
        tally = self.tally
        return {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failures": tally.failures,
        }


def measure(
    name: str, sizes: Sizes, seed: int, seconds: float, import_s: float,
    oracle_fault: bool = False,
) -> dict[str, Any]:
    """The untraced run: every end-to-end metric of one workload.

    The repetition count is the constant ``sizes.reps`` holds, the same
    on every commit; ``seconds`` only caps a run gone badly slow (no
    repetition starts once that long has been measured).
    """
    session = Session(name, sizes, seed, oracle_fault)
    if not session.workload.rebuilds:
        # ``rebuilds`` workloads set up before every repetition instead.
        for _ in range(session.workload.setup_reps):
            session.build()
    warm_up = session.repetition(verify=True)
    recs: list[Recorder] = []
    start = time.perf_counter()
    for _ in range(sizes.reps[name]):
        if recs and time.perf_counter() - start >= seconds:
            break
        recs.append(session.repetition(verify=False))

    samples = {
        "wall_s": [rec.wall_s for rec in recs],
        "cpu_s": [sum(rec.cpu_s.values()) for rec in recs],
        "setup_s": [import_s + s for s in session.setup_samples],
    }
    metrics = {key: median(values) for key, values in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics.update(session.simulated([warm_up, *recs]))
    verdict = session.verdict()
    metrics["ops_failed_share"] = verdict["failed"] / verdict["attempted"]
    return {
        "workload": name, "seed": seed, "sizes": asdict(sizes),
        "seconds": seconds, "reps": len(recs), "import_s": import_s,
        "samples": samples, "metrics": metrics, **verdict,
    }


def trace(
    name: str, sizes: Sizes, seed: int, oracle_fault: bool = False
) -> dict[str, Any]:
    """The traced run: every workload-derived per-layer metric."""
    session = Session(
        name, sizes, seed, oracle_fault, count_kernel_events()
    )
    plain = session.repetition(verify=True)
    tracer = Tracer(f"{name}/seed{seed}")
    traced = session.repetition(verify=False, tracer=tracer)

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"trace.{layer}.self_s"] = tracer.self_s[layer]
        metrics[f"trace.{layer}.calls"] = tracer.calls[layer]
    plain_cpu = sum(plain.cpu_s.values())
    metrics["trace.total_s"] = traced.wall_s
    metrics["trace.overhead_x"] = sum(traced.cpu_s.values()) / plain_cpu
    metrics["machine.gamma.cpu_s"] = plain.cpu_s[GAMMA]
    metrics["machine.teradata.cpu_s"] = plain.cpu_s[TERADATA]
    metrics["sim.kernel.us_per_event"] = (
        1e6 * plain.cpu_s[GAMMA] / plain.events[GAMMA]
    )
    metrics["count.sim_events"] = plain.events[GAMMA]
    for key, value in plain.counts.items():
        metrics[f"count.{key}"] = value
    metrics["model.cpu_util_max"] = plain.utilisation("cpu")
    metrics["model.disk_util_max"] = plain.utilisation("disk")
    metrics["model.nic_util_max"] = plain.utilisation("nic")
    metrics["model.ring_util"] = plain.utilisation("ring")
    metrics.update(session.simulated([plain, traced]))
    verdict = session.verdict()
    metrics["ops_failed_share"] = verdict["failed"] / verdict["attempted"]
    return {
        "workload": name, "seed": seed, "sizes": asdict(sizes),
        "metrics": metrics, "spans": tracer.spans, **verdict,
    }
