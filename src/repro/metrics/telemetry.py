"""Time-series telemetry: sampled cluster metrics over simulated time.

Every existing observability surface (MetricsRegistry, UtilisationReport,
EXPLAIN ANALYZE profiles) reports end-of-run aggregates; this module adds
the *time axis*.  A :class:`TelemetrySampler` observes the cluster on a
fixed simulated-time cadence and records one value per interval per
track: server utilisation / queue depth / queue wait, admission queue
and MPL occupancy, lock-manager held/waiting counts, buffer and
hash-table bytes, and anything else wired in via :meth:`add_gauge`.

Passivity is structural, not best-effort.  The sampler never schedules a
simulation event: the kernel *pulls* it (see
:meth:`~repro.sim.Simulation.set_sample_hook`) whenever the clock is
about to cross the next sample boundary, so event order, sequence
numbers and the clock itself are bit-identical with sampling on or off.
Each sample at boundary ``t`` observes the state left by every event
strictly before ``t`` — a deterministic cut of the simulation — and the
:class:`~repro.sim.Server` accessors pro-rate in-flight service to ``t``
exactly.

Surfaces: :meth:`TelemetrySampler.to_dict` (JSON schema persisted by the
result store), :meth:`TelemetrySampler.export_counters` (Perfetto
counter tracks merged into a :class:`~repro.metrics.trace.TraceBuffer`),
and :func:`render_dashboard` (ASCII sparklines reusing the profile
timeline's density ramp).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..errors import ReproError
from .timeline import sparkline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.kernel import Simulation
    from ..sim.resources import Server
    from .trace import TraceBuffer
    from .workload import QueryRecord

#: A probe reads simulation state at one sample boundary and appends to
#: the series it owns.  Probes must be passive: reading counters and
#: pro-rated accruals only, never scheduling events or mutating engine
#: state.
Probe = Callable[[float], None]


class SampleSeries:
    """One telemetry track: (time, value) pairs at the sample cadence.

    With a ``cap`` the series is a ring buffer — the oldest samples fall
    off and ``dropped`` counts them, so thousand-client runs hold O(cap)
    memory per track while exports still say what was lost.
    """

    __slots__ = ("node", "track", "unit", "times", "values", "dropped")

    def __init__(
        self,
        node: str,
        track: str,
        unit: str = "",
        cap: Optional[int] = None,
    ) -> None:
        self.node = node
        self.track = track
        self.unit = unit
        self.times: deque[float] = deque(maxlen=cap)
        self.values: deque[float] = deque(maxlen=cap)
        self.dropped = 0

    @property
    def key(self) -> str:
        return f"{self.node}.{self.track}"

    def __len__(self) -> int:
        return len(self.values)

    def append(self, t: float, value: float) -> None:
        times = self.times
        if times.maxlen is not None and len(times) == times.maxlen:
            self.dropped += 1
        times.append(t)
        self.values.append(value)

    @property
    def last(self) -> float:
        return self.values[-1] if self.values else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "node": self.node,
            "track": self.track,
            "unit": self.unit,
            "dropped": self.dropped,
            "times": list(self.times),
            "values": list(self.values),
        }

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<SampleSeries {self.key} n={len(self.values)}>"


class TelemetrySampler:
    """Samples wired gauges every ``interval`` simulated seconds.

    :meth:`watch` attaches to a machine's hardware inventory; the
    helpers it builds on (:meth:`watch_server`, :meth:`watch_group`)
    and :meth:`watch_admission`, :meth:`watch_locks`, :meth:`add_gauge`
    register probes; :meth:`attach` installs the kernel's pull hook.
    Per-interval rates (utilisation, mean queue wait) are computed as
    deltas of the servers' cumulative accruals between consecutive
    boundaries, so every interval is exact rather than a point sample.
    """

    #: Machines with at most this many data sites also get per-site
    #: lanes (beyond the cluster aggregate) — enough to chart, not
    #: enough to drown a 1000-site dashboard.
    per_node_limit = 8

    #: Cluster group track of each resource class's per-site servers.
    _GROUPS = (("cpu", "cpu.util"), ("disk", "disk.util"), ("net", "nic.util"))

    def __init__(
        self,
        interval: float = 0.25,
        cap: Optional[int] = None,
        slo: Optional[Any] = None,
    ) -> None:
        if interval <= 0.0:
            raise ReproError(f"sample interval must be > 0, got {interval}")
        if cap is not None and cap < 1:
            raise ReproError(f"sample cap must be >= 1, got {cap}")
        self.interval = interval
        self.cap = cap
        #: Optional sliding-window latency tracker; wired into the
        #: sample cadence when it exposes ``wire(sampler)`` (see
        #: :class:`repro.metrics.slo.SlidingWindowTracker`).
        self.slo = slo
        self.series: dict[str, SampleSeries] = {}
        self.samples = 0
        self._probes: list[Probe] = []
        self._ticks = 0
        if slo is not None and hasattr(slo, "wire"):
            slo.wire(self)

    # -- kernel hookup ----------------------------------------------------
    def attach(self, sim: "Simulation") -> None:
        """Install the pull hook; the first boundary is one interval in."""
        self._ticks = 0
        sim.set_sample_hook(self._on_due, self.interval)

    def _on_due(self, limit: float) -> float:
        """Sample every boundary ``<= limit``; return the next due time."""
        ticks = self._ticks
        interval = self.interval
        probes = self._probes
        due = (ticks + 1) * interval
        while due <= limit:
            for probe in probes:
                probe(due)
            self.samples += 1
            ticks += 1
            due = (ticks + 1) * interval
        self._ticks = ticks
        return due

    # -- series / probe registry ------------------------------------------
    def series_for(
        self, node: str, track: str, unit: str = ""
    ) -> SampleSeries:
        """The series for (node, track), created on first use."""
        key = f"{node}.{track}"
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = SampleSeries(
                node, track, unit, self.cap
            )
        return series

    def add_probe(self, probe: Probe) -> None:
        self._probes.append(probe)

    def add_gauge(
        self, node: str, track: str, unit: str, read: Callable[[], float]
    ) -> SampleSeries:
        """Sample ``read()`` every interval into one series."""
        series = self.series_for(node, track, unit)

        def probe(t: float) -> None:
            series.append(t, float(read()))

        self.add_probe(probe)
        return series

    # -- wiring helpers ----------------------------------------------------
    def watch(self, inventory: Any) -> None:
        """Attach to the simulation of ``inventory`` (a
        :class:`~repro.hardware.Inventory`) and sample its servers.

        Per-site servers are aggregated by resource class into cluster
        groups (``cluster.cpu.util.*``, ``cluster.disk.util.*`` and
        ``cluster.nic.util.*``); a machine-wide server — node == lane,
        the ring or the Y-net — gets its own ``{node}.net.*`` series;
        and a machine with at most :attr:`per_node_limit` sites also
        gets ``{node}.{lane}.*`` for every CPU and drive on a site.
        """
        self.attach(inventory.sim)
        rows = inventory.rows
        for resource, track in self._GROUPS:
            self.watch_group("cluster", track, [
                (row.node, row.server) for row in rows
                if row.resource == resource and row.node != row.lane
            ])
        for row in rows:
            if row.node == row.lane:
                self.watch_server(row.server, row.node, row.resource)
        if len(inventory.sites) <= self.per_node_limit:
            sites = set(inventory.sites)
            for row in rows:
                if row.node in sites and row.resource != "net":
                    self.watch_server(row.server, row.node, row.lane)

    def watch_server(
        self, server: "Server", node: str, prefix: str
    ) -> None:
        """Per-interval utilisation, queue depth and mean queue wait for
        one :class:`~repro.sim.Server`."""
        util = self.series_for(node, f"{prefix}.util", "frac")
        qdepth = self.series_for(node, f"{prefix}.qdepth", "requests")
        wait = self.series_for(node, f"{prefix}.wait", "s")
        cap = float(server.capacity)
        # (last boundary, slot-seconds, wait total, wait count) at it.
        state = [0.0, 0.0, 0.0, 0]

        def probe(t: float) -> None:
            _busy, slots, _qlen = server._prorated(t)
            dt = t - state[0]
            du = slots - state[1]
            util.append(t, du / (dt * cap) if dt > 0.0 else 0.0)
            qdepth.append(t, float(server.queue_length))
            stats = server.wait_stats
            dn = stats.count - state[3]
            dw = stats.total - state[2]
            wait.append(t, dw / dn if dn else 0.0)
            state[0] = t
            state[1] = slots
            state[2] = stats.total
            state[3] = stats.count

        self.add_probe(probe)

    def watch_group(
        self,
        node: str,
        prefix: str,
        members: Sequence[tuple[str, "Server"]],
    ) -> None:
        """Aggregate per-interval utilisation over a server group.

        Tracks ``{prefix}.mean`` / ``.max`` / ``.min`` / ``.spread``
        (max minus min — the skew detector's signal) so a 1000-site
        cluster costs four series, not four thousand.
        """
        group = list(members)
        if not group:
            return
        mean_s = self.series_for(node, f"{prefix}.mean", "frac")
        max_s = self.series_for(node, f"{prefix}.max", "frac")
        min_s = self.series_for(node, f"{prefix}.min", "frac")
        spread_s = self.series_for(node, f"{prefix}.spread", "frac")
        caps = [float(server.capacity) for _name, server in group]
        state = [0.0] + [0.0] * len(group)  # boundary, then slot-seconds

        def probe(t: float) -> None:
            dt = t - state[0]
            lo = hi = total = 0.0
            for i, (_name, server) in enumerate(group):
                _busy, slots, _qlen = server._prorated(t)
                u = (slots - state[i + 1]) / (dt * caps[i]) if dt > 0.0 \
                    else 0.0
                state[i + 1] = slots
                total += u
                if i == 0:
                    lo = hi = u
                else:
                    lo = u if u < lo else lo
                    hi = u if u > hi else hi
            state[0] = t
            mean_s.append(t, total / len(group))
            max_s.append(t, hi)
            min_s.append(t, lo)
            spread_s.append(t, hi - lo)

        self.add_probe(probe)

    def watch_admission(self, controller: Any) -> None:
        """Admission-queue depth, occupied MPL slots and cumulative
        timeouts (node ``admission``)."""
        queued = self.series_for("admission", "queued", "requests")
        running = self.series_for("admission", "running", "requests")
        timeouts = self.series_for("admission", "timeouts", "count")

        def probe(t: float) -> None:
            queued.append(t, float(controller.queue_length))
            running.append(t, float(controller.running))
            timeouts.append(t, float(controller.timeouts))

        self.add_probe(probe)

    def watch_locks(self, locks: Any) -> None:
        """Held / waiting lock counts plus cumulative deadlocks and lock
        timeouts (node ``locks``)."""
        held = self.series_for("locks", "held", "locks")
        waiting = self.series_for("locks", "waiting", "requests")
        deadlocks = self.series_for("locks", "deadlocks", "count")
        timeouts = self.series_for("locks", "timeouts", "count")
        states = locks._locks

        def probe(t: float) -> None:
            n_held = 0
            n_wait = 0
            for state in states.values():
                n_held += len(state.holders)
                n_wait += len(state.queue)
            held.append(t, float(n_held))
            waiting.append(t, float(n_wait))
            deadlocks.append(t, float(locks.deadlocks))
            timeouts.append(t, float(locks.timeouts))

        self.add_probe(probe)

    # -- completions -------------------------------------------------------
    def observe_completion(self, record: "QueryRecord") -> None:
        """Feed one finished workload request to the SLO tracker."""
        if self.slo is not None:
            self.slo.record(record.finished, record.latency, record.ok)

    # -- export ------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Total samples evicted across every ring-capped series."""
        return sum(s.dropped for s in self.series.values())

    def to_dict(self) -> dict[str, Any]:
        """The persisted telemetry schema (stable key order)."""
        return {
            "interval": self.interval,
            "samples": self.samples,
            "cap": self.cap,
            "dropped": self.dropped,
            "series": {
                key: self.series[key].as_dict()
                for key in sorted(self.series)
            },
        }

    def export_counters(self, trace: "TraceBuffer") -> int:
        """Merge every series into ``trace`` as Perfetto counter tracks
        (one track per series, unit-labelled).  Returns the number of
        counter events emitted."""
        emitted = 0
        for key in sorted(self.series):
            series = self.series[key]
            for t, value in zip(series.times, series.values):
                trace.counter(
                    series.node, series.track, t, {series.track: value},
                    unit=series.unit or None,
                )
                emitted += 1
        return emitted


# ---------------------------------------------------------------------------
# dashboard rendering
# ---------------------------------------------------------------------------


def render_dashboard(
    sampler: TelemetrySampler,
    alerts: Optional[Sequence[Any]] = None,
    width: int = 60,
) -> str:
    """One terminal screen of sparklines, one line per telemetry track.

    Each line is self-normalised to the track's own [min, max] (flat
    tracks render blank) with the last and peak values printed beside
    it; detector alerts (see :mod:`repro.metrics.slo`) are appended with
    their simulated timestamps.
    """
    span = sampler.samples * sampler.interval
    lines = [
        f"telemetry: {sampler.samples} samples"
        f" x {sampler.interval:g}s = {span:g}s simulated"
        + (f", {sampler.dropped} dropped" if sampler.dropped else "")
    ]
    label_w = max(
        (len(key) for key in sampler.series), default=0
    )
    for key in sorted(sampler.series):
        series = sampler.series[key]
        values = list(series.values)
        if not values:
            continue
        unit = f" {series.unit}" if series.unit else ""
        lines.append(
            f"{key:<{label_w}} |{sparkline(values, width)}|"
            f" last={series.last:.4g} peak={max(values):.4g}{unit}"
        )
    if alerts:
        lines.append("alerts:")
        for alert in alerts:
            lines.append(f"  {alert}")
    return "\n".join(lines)
