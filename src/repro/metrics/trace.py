"""Structured trace events with a Chrome-trace-format JSON exporter.

A :class:`TraceBuffer` collects timestamped events as the simulation runs
— operator start/stop, packet send/receive, disk/CPU/network service
intervals — and exports them in the Trace Event Format understood by
``chrome://tracing`` and https://ui.perfetto.dev.  Simulated seconds map
to trace microseconds.

Each simulated node becomes a trace *process* and each resource or
operator on it a *thread*, so Perfetto renders one swim-lane per
CPU/disk/NIC per node — the picture behind the paper's Figures 1-8
utilisation arguments.

Recording is append-only Python-list work: no simulation events are ever
scheduled, so tracing cannot change the timeline.

Long workloads can bound memory with ``TraceBuffer(cap=...)``: data
events ride a ring buffer (the oldest fall off, ``dropped`` counts
them and the export surfaces the count under ``otherData``), while the
process/thread name metadata needed to label tracks is kept separately
and never evicted.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Optional

_US = 1_000_000  # simulated seconds -> trace microseconds


class TraceBuffer:
    """An in-memory stream of Chrome-trace events.

    ``cap`` bounds the number of retained *data* events (durations,
    instants, counters); ``None`` keeps everything.  Metadata events
    (process/thread names) are always retained — a capped trace still
    opens in Perfetto with labelled tracks.
    """

    def __init__(self, cap: Optional[int] = None) -> None:
        if cap is not None and cap < 1:
            raise ValueError(f"trace cap must be >= 1, got {cap}")
        self.cap = cap
        self._meta: list[dict[str, Any]] = []
        self._data: deque[dict[str, Any]] = deque(maxlen=cap)
        self.dropped = 0
        self._pids: dict[str, int] = {}
        self._tids: dict[tuple[str, str], int] = {}
        #: Watched hardware server -> (node, lane) it is drawn on, and
        #: -> (lane, pid, tid) once its first interval has been drawn.
        self._servers: dict[Any, tuple[str, str]] = {}
        self._server_ids: dict[Any, tuple[str, int, int]] = {}

    @property
    def events(self) -> list[dict[str, Any]]:
        """Every retained event, metadata first (export order)."""
        return self._meta + list(self._data)

    def __len__(self) -> int:
        return len(self._meta) + len(self._data)

    def _record(self, event: dict[str, Any]) -> None:
        data = self._data
        if data.maxlen is not None and len(data) == data.maxlen:
            self.dropped += 1
        data.append(event)

    # -- pid/tid management -----------------------------------------------
    def _pid(self, node: str) -> int:
        pid = self._pids.get(node)
        if pid is None:
            pid = self._pids[node] = len(self._pids) + 1
            self._meta.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": node},
            })
        return pid

    def _tid(self, node: str, lane: str) -> int:
        key = (node, lane)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._tids[key] = (
                sum(1 for n, _ in self._tids if n == node) + 1
            )
            self._meta.append({
                "name": "thread_name", "ph": "M",
                "pid": self._pid(node), "tid": tid,
                "args": {"name": lane},
            })
        return tid

    # -- recording --------------------------------------------------------
    def duration(
        self,
        node: str,
        lane: str,
        name: str,
        start: float,
        dur: float,
        cat: str = "sim",
        args: Optional[dict[str, Any]] = None,
    ) -> None:
        """A complete event: ``name`` occupied ``lane`` for ``dur`` seconds."""
        event = {
            "name": name, "cat": cat, "ph": "X",
            "ts": start * _US, "dur": dur * _US,
            "pid": self._pid(node), "tid": self._tid(node, lane),
        }
        if args:
            event["args"] = args
        self._record(event)

    def instant(
        self,
        node: str,
        lane: str,
        name: str,
        ts: float,
        cat: str = "sim",
        args: Optional[dict[str, Any]] = None,
    ) -> None:
        """A point event (packet send/receive, control message)."""
        event = {
            "name": name, "cat": cat, "ph": "i", "s": "t",
            "ts": ts * _US,
            "pid": self._pid(node), "tid": self._tid(node, lane),
        }
        if args:
            event["args"] = args
        self._record(event)

    def counter(
        self,
        node: str,
        name: str,
        ts: float,
        values: dict[str, float],
        unit: Optional[str] = None,
    ) -> None:
        """A counter-track sample (``ph: "C"``).

        Perfetto renders one stacked counter track per (process, name),
        one series per key in ``values`` — used for hash-table bytes,
        port queue depth and overflow chunks so the Figure 13 traces show
        memory pressure over time, not just duration swim-lanes.
        ``unit`` is appended to the track name (``"depth [pages]"``) so
        the UI labels the axis.
        """
        self._record({
            "name": f"{name} [{unit}]" if unit else name,
            "cat": "counter", "ph": "C", "ts": ts * _US,
            "pid": self._pid(node), "tid": 0,
            "args": dict(values),
        })

    # -- hardware lanes ---------------------------------------------------
    def watch(self, inventory: Any) -> None:
        """Draw every service interval on the servers of ``inventory``
        (a :class:`~repro.hardware.Inventory`) on its row's lane."""
        for row in inventory.rows:
            self._servers[row.server] = (row.node, row.lane)
        inventory.subscribe(self._on_service)

    def _on_service(
        self, server: Any, _proc: Any, start: float, dur: float
    ) -> None:
        """:meth:`duration` of ``lane`` on ``lane``.  The lane's ids are
        resolved at its first interval, so tracks are numbered in
        first-event order, and looked up once per interval after it."""
        ids = self._server_ids.get(server)
        if ids is None:
            node, lane = self._servers[server]
            ids = self._server_ids[server] = (
                lane, self._pid(node), self._tid(node, lane)
            )
        lane, pid, tid = ids
        self._record({
            "name": lane, "cat": lane, "ph": "X",
            "ts": start * _US, "dur": dur * _US, "pid": pid, "tid": tid,
        })

    # -- export -----------------------------------------------------------
    def to_chrome(self) -> dict[str, Any]:
        """The Trace Event Format document (JSON-serialisable dict).

        Uncapped buffers keep the historical two-key shape; capped ones
        add ``otherData`` reporting the ring size and evicted events.
        """
        doc: dict[str, Any] = {
            "traceEvents": self.events, "displayTimeUnit": "ms",
        }
        if self.cap is not None:
            doc["otherData"] = {
                "cap": self.cap, "droppedEvents": self.dropped,
            }
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_chrome())

    def write(self, path: str) -> str:
        """Write the trace JSON; open the file in Perfetto to view it."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)
        return path
