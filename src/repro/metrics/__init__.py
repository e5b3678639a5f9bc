"""Observability layer for the simulated machines.

Four pieces, all passive (they never schedule simulation events, so the
simulated timeline is bit-identical with metrics enabled or disabled):

* :class:`MetricsRegistry` — typed per-node and per-operator counters
  (tuples, packets, spool I/O, control messages, hash-table bytes,
  overflow chunks), threaded through every execution context.
* :class:`TraceBuffer` — a structured trace-event stream (operator
  start/stop, packet send/receive, disk/CPU/network service intervals,
  counter tracks) with a Chrome-trace-format exporter for
  ``chrome://tracing`` / Perfetto.
* :class:`UtilisationReport` — the post-run per-node CPU/disk/network
  busy fractions the paper's Figures 1-8 arguments are built on.
* :class:`Profiler` / :class:`QueryProfile` — EXPLAIN ANALYZE over the
  physical IR: per-operator spans split by resource class, bucketed
  phase timelines, critical-path extraction and a bottleneck verdict,
  rendered by :func:`explain_analyze`.
* :class:`QueryRecord` / :class:`LatencyStats` / :class:`WorkloadResult`
  — per-query latency records and their percentile/throughput summary
  for multiuser workload runs.
* :class:`TelemetrySampler` / :class:`SampleSeries` — per-interval time
  series over every server, the admission controller, the lock manager
  and memory gauges, pulled by the kernel at a fixed simulated cadence
  (never scheduled, so the timeline is bit-identical either way).
* :class:`SlidingWindowTracker` / :class:`Alert` and the ``detect_*``
  rules — windowed latency percentiles and overload/convoy/skew onset
  detection with simulated timestamps.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".profile": ("OperatorSpan", "Profiler", "QueryProfile", "explain_analyze"),
    ".registry": ("MetricsRegistry", "NodeMetrics", "OperatorMetrics"),
    ".report": ("NodeUtilisation", "UtilisationReport", "peak_utilisation"),
    ".slo": (
        "Alert", "SlidingWindowTracker", "detect_all", "detect_convoy",
        "detect_overload", "detect_skew",
    ),
    ".telemetry": ("SampleSeries", "TelemetrySampler", "render_dashboard"),
    ".timeline": ("PhaseTimeline", "density_strip", "sparkline"),
    ".trace": ("TraceBuffer",),
    ".workload": ("LatencyStats", "QueryRecord", "WorkloadResult", "percentile"),
})
