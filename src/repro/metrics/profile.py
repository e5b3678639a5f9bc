"""Query profiler: EXPLAIN ANALYZE over the physical IR.

A :class:`Profiler` attaches to one query execution (Gamma or Teradata)
and folds every hardware service interval back onto the IR node that
caused it:

* drivers *register* each operator process against an IR node id and a
  phase ("build", "probe", "overflow", ...) when they spawn it;
* every server of the machine's :class:`~repro.hardware.Inventory`
  reports ``(server, process, start, duration)`` at service start
  through its hooks (:meth:`Profiler.watch`); the profiler
  resolves the process to an operator by walking ``Process.parent`` —
  helper processes (page feeders) need no explicit registration, and a
  message's :class:`~repro.sim.Chain`, which is no process, reports
  the process that dispatched it;
* ports report tuple counts for the process currently executing.

Everything is passive — the profiler never schedules simulation events,
so timelines are bit-identical with profiling on or off (pinned by the
golden-timeline tests).  :meth:`Profiler.finish` condenses the recording
into a serialisable :class:`QueryProfile`: per-operator spans, a bucketed
:class:`~repro.metrics.timeline.PhaseTimeline`, the critical path through
the operator DAG, and a bottleneck verdict.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from .timeline import Interval, PhaseTimeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Process, Server

#: Bucket label for busy time no registered operator claims (scheduler
#: control messages, host round-trips, lock/recovery traffic).
OTHER = "(other)"

#: Per-operator busy spread (max site / mean site) beyond which the
#: bottleneck verdict becomes "skew" instead of "<resource>-bound".
SKEW_THRESHOLD = 2.0


@dataclass
class OperatorSpan:
    """Activity attributed to one IR node across all sites."""

    op_id: str
    first: float = float("inf")
    last: float = 0.0
    busy: dict[str, float] = field(default_factory=dict)
    by_node: dict[str, float] = field(default_factory=dict)
    by_phase: dict[str, float] = field(default_factory=dict)
    tuples_in: int = 0
    tuples_out: int = 0
    pages: int = 0

    @property
    def total_busy(self) -> float:
        return sum(self.busy.values())

    @property
    def window(self) -> float:
        """Wall-clock (simulated) extent from first to last activity."""
        if self.first > self.last:
            return 0.0
        return self.last - self.first

    def as_dict(self) -> dict[str, Any]:
        return {
            "op_id": self.op_id,
            "first": None if self.first > self.last else self.first,
            "last": None if self.first > self.last else self.last,
            "busy": dict(sorted(self.busy.items())),
            "by_node": dict(sorted(self.by_node.items())),
            "by_phase": dict(sorted(self.by_phase.items())),
            "tuples_in": self.tuples_in,
            "tuples_out": self.tuples_out,
            "pages": self.pages,
        }


class Profiler:
    """Collects attributed service intervals for one query execution."""

    def __init__(self) -> None:
        self.spans: dict[str, OperatorSpan] = {}
        self.intervals: list[Interval] = []
        self._registered: dict[Any, tuple[str, Optional[str]]] = {}
        self._resolved: dict[Any, tuple[str, Optional[str]]] = {}
        self._servers: dict[Any, tuple[str, str]] = {}
        self.class_counts: Counter[str] = Counter()
        self.server_busy: dict[str, float] = {}
        self._server_class: dict[str, str] = {}
        #: Nodes each operator was *placed* on, whether or not they ever
        #: logged an interval — the skew verdict must count a node that
        #: did zero work.
        self.placements: dict[str, set[str]] = {}

    # -- wiring ------------------------------------------------------------
    def watch(self, inventory: Any) -> None:
        """Attribute every service interval on the servers of
        ``inventory`` (a :class:`~repro.hardware.Inventory`), classed by
        each row's declared resource — never inferred from a name."""
        for row in inventory.rows:
            self._servers[row.server] = (row.resource, row.node)
            self._server_class[row.server.name] = row.resource
            self.class_counts[row.resource] += 1
        inventory.subscribe(self._on_service)

    def register(
        self,
        proc: "Process",
        op_id: str,
        phase: Optional[str] = None,
        node: Optional[str] = None,
    ) -> None:
        """Bind a spawned operator process to an IR node id and phase.

        ``node`` declares the processor the fragment was placed on, so
        the operator's per-node accounting includes sites that end up
        doing no work at all (the most extreme skew).
        """
        self._registered[proc] = (op_id, phase)
        self._resolved[proc] = (op_id, phase)
        if node is not None:
            self.placements.setdefault(op_id, set()).add(node)

    # -- recording (hot path, must stay passive) ---------------------------
    def _resolve(self, proc: Optional["Process"]) -> tuple[str, Optional[str]]:
        if proc is None:
            return (OTHER, None)
        hit = self._resolved.get(proc)
        if hit is not None:
            return hit
        chain = []
        found: Optional[tuple[str, Optional[str]]] = None
        cursor: Optional["Process"] = proc
        while cursor is not None:
            found = self._resolved.get(cursor)
            if found is not None:
                break
            chain.append(cursor)
            cursor = cursor.parent
        result = found if found is not None else (OTHER, None)
        for entry in chain:
            self._resolved[entry] = result
        return result

    def _span(self, op_id: str) -> OperatorSpan:
        span = self.spans.get(op_id)
        if span is None:
            span = self.spans[op_id] = OperatorSpan(op_id)
        return span

    def _on_service(
        self,
        server: "Server",
        proc: Optional["Process"],
        start: float,
        dur: float,
    ) -> None:
        resource, node = self._servers[server]
        self.server_busy[server.name] = (
            self.server_busy.get(server.name, 0.0) + dur
        )
        op_id, phase = self._resolve(proc)
        span = self._span(op_id)
        if start < span.first:
            span.first = start
        end = start + dur
        if end > span.last:
            span.last = end
        span.busy[resource] = span.busy.get(resource, 0.0) + dur
        span.by_node[node] = span.by_node.get(node, 0.0) + dur
        if phase:
            span.by_phase[phase] = span.by_phase.get(phase, 0.0) + dur
        if resource == "disk":
            span.pages += 1
        self.intervals.append((op_id, phase, resource, node, start, dur))

    def record_tuples(
        self,
        proc: Optional["Process"],
        tuples_in: int = 0,
        tuples_out: int = 0,
    ) -> None:
        """Attribute tuple counts to whichever operator ``proc`` serves."""
        op_id, _phase = self._resolve(proc)
        span = self._span(op_id)
        span.tuples_in += tuples_in
        span.tuples_out += tuples_out

    def add_tuples(
        self, op_id: str, tuples_in: int = 0, tuples_out: int = 0
    ) -> None:
        """Attribute tuple counts directly to an IR node id."""
        span = self._span(op_id)
        span.tuples_in += tuples_in
        span.tuples_out += tuples_out

    # -- condensing --------------------------------------------------------
    def finish(
        self,
        ir: Optional[Any],
        elapsed: float,
        n_buckets: int = 48,
        op_ids: Optional[set[str]] = None,
    ) -> "QueryProfile":
        """Fold the recording into a :class:`QueryProfile`.

        ``ir`` may be a PhysicalIR (tree + critical path are derived from
        its operator DAG), an UpdateIR (single-node tree), or ``None``.

        ``op_ids`` restricts the profile to one request's IR nodes: when
        several concurrent requests share a profiler, each request's
        profile contains only the spans/intervals its own operators
        caused (shared unattributed time — scheduler control traffic,
        lock wakeups — is excluded rather than multiply counted).
        """
        intervals = self.intervals
        spans = self.spans
        if op_ids is not None:
            wanted = set(op_ids)
            intervals = [iv for iv in self.intervals if iv[0] in wanted]
            spans = {
                op_id: span for op_id, span in self.spans.items()
                if op_id in wanted
            }
        timeline = PhaseTimeline.from_intervals(
            intervals, elapsed, self.class_counts, n_buckets
        )
        root = getattr(ir, "root", None)
        tree = _plan_tree(root) if root is not None else _update_tree(ir)
        path = _critical_path(root, spans) if root is not None else []
        if not path and ir is not None and hasattr(ir, "op_id"):
            span = spans.get(ir.op_id)
            if span is not None:
                path = [_path_entry(span, wait=0.0)]
        if op_ids is None:
            verdict = self._verdict(elapsed)
        else:
            verdict = self._subset_verdict(intervals, spans, elapsed)
        return QueryProfile(
            elapsed=elapsed,
            spans=dict(spans),
            timeline=timeline,
            critical_path=path,
            verdict=verdict,
            tree=tree,
            plan=str(getattr(ir, "description", "") or ""),
            placements={
                op_id: tuple(sorted(nodes))
                for op_id, nodes in self.placements.items()
            },
        )

    def _verdict(self, elapsed: float) -> str:
        """``cpu-bound`` / ``disk-bound`` / ``net-bound`` / ``skew``."""
        if elapsed <= 0.0 or not self.server_busy:
            return "idle"
        peak: dict[str, float] = {}
        for name, busy in self.server_busy.items():
            resource = self._server_class[name]
            fraction = busy / elapsed
            if fraction > peak.get(resource, 0.0):
                peak[resource] = fraction
        if not peak:
            return "idle"
        return self._classify(peak, self.spans, self.intervals)

    def _subset_verdict(
        self,
        intervals: list[Interval],
        spans: dict[str, OperatorSpan],
        elapsed: float,
    ) -> str:
        """The verdict over one request's share of a shared recording.

        Peak busy fractions come from the filtered intervals grouped by
        (resource, node) — each node carries at most one server per
        resource class, so this matches the per-server accounting the
        full-run verdict uses.
        """
        if elapsed <= 0.0 or not intervals:
            return "idle"
        busy_by: Counter[tuple[str, str]] = Counter()
        for _op_id, _phase, resource, node, _start, dur in intervals:
            busy_by[(resource, node)] += dur
        peak: dict[str, float] = {}
        for (resource, _node), busy in busy_by.items():
            fraction = busy / elapsed
            if fraction > peak.get(resource, 0.0):
                peak[resource] = fraction
        return self._classify(peak, spans, intervals)

    def _classify(
        self,
        peak: dict[str, float],
        spans: dict[str, OperatorSpan],
        intervals: list[Interval],
    ) -> str:
        dominant = max(peak, key=lambda r: peak[r])
        busiest = max(
            (s for s in spans.values() if s.op_id != OTHER),
            key=lambda s: s.total_busy,
            default=None,
        )
        if busiest is not None and busiest.busy:
            # Compare only the sites doing the span's dominant kind of
            # work — mixing disk-site scan time with the slivers of net
            # time on other nodes would flag uniform plans as skewed.
            span_cls = max(busiest.busy, key=lambda c: busiest.busy[c])
            per_node: Counter[str] = Counter()
            # Every placed node participates in the mean, at zero if it
            # never logged an interval — a fragment doing no work at all
            # is the most extreme skew, not evidence of uniformity.
            for node in self.placements.get(busiest.op_id, ()):
                per_node[node] = 0
            for op_id, _phase, cls, node, _start, dur in intervals:
                if op_id == busiest.op_id and cls == span_cls:
                    per_node[node] += dur
            if len(per_node) >= 2:
                shares = list(per_node.values())
                mean = sum(shares) / len(shares)
                if mean > 0.0 and max(shares) / mean > SKEW_THRESHOLD:
                    return "skew"
        return f"{dominant}-bound"


# ---------------------------------------------------------------------------
# IR walking (duck-typed on ``op_id``/``inputs``/``exchange`` so metrics
# never imports the engine package)
# ---------------------------------------------------------------------------


def _exchange_kind(node: Any) -> Optional[str]:
    exchange = getattr(node, "exchange", None)
    if exchange is None:
        return None
    kind = getattr(exchange, "kind", None)
    return getattr(kind, "value", str(kind)) if kind is not None else None


def _plan_tree(node: Any) -> dict[str, Any]:
    return {
        "op_id": node.op_id,
        "label": node.describe(),
        "exchange": _exchange_kind(node),
        "children": [_plan_tree(child) for child in node.inputs],
    }


def _update_tree(ir: Optional[Any]) -> Optional[dict[str, Any]]:
    op_id = getattr(ir, "op_id", None)
    if op_id is None:
        return None
    return {
        "op_id": op_id,
        "label": str(getattr(ir, "description", op_id)),
        "exchange": None,
        "children": [],
    }


def _path_entry(span: OperatorSpan, wait: float) -> dict[str, Any]:
    return {
        "op_id": span.op_id,
        "first": None if span.first > span.last else span.first,
        "last": None if span.first > span.last else span.last,
        "busy": span.total_busy,
        "wait_for_input": wait,
    }


def _critical_path(
    root: Any, spans: dict[str, OperatorSpan]
) -> list[dict[str, Any]]:
    """Longest dependency chain of spans through the operator DAG.

    Walk from the plan root towards the leaves, at each operator
    following the *gating* input — the child whose span finished last.
    ``wait_for_input`` on each entry is how long the operator was live
    before that gating input completed (pipelining overlap): large waits
    mark edges where the operator mostly sat on its input.
    """
    path: list[dict[str, Any]] = []
    node = root
    while node is not None:
        span = spans.get(node.op_id)
        gating = None
        gating_span = None
        for child in node.inputs:
            child_span = spans.get(child.op_id)
            if child_span is None or child_span.first > child_span.last:
                continue
            if gating_span is None or child_span.last > gating_span.last:
                gating, gating_span = child, child_span
        if span is not None and span.first <= span.last:
            wait = 0.0
            if gating_span is not None:
                wait = max(0.0, gating_span.last - span.first)
            path.append(_path_entry(span, wait))
        node = gating
    return path


# ---------------------------------------------------------------------------
# the finished profile
# ---------------------------------------------------------------------------


@dataclass
class QueryProfile:
    """Serialisable EXPLAIN ANALYZE payload for one executed query."""

    elapsed: float
    spans: dict[str, OperatorSpan]
    timeline: PhaseTimeline
    critical_path: list[dict[str, Any]]
    verdict: str
    tree: Optional[dict[str, Any]]
    plan: str = ""
    #: Placed nodes per operator (includes nodes that logged no work).
    placements: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def node_busy(self, op_id: str) -> dict[str, float]:
        """Per-node busy seconds for one operator, with every *placed*
        node present (at 0.0 when it never logged an interval)."""
        span = self.spans.get(op_id)
        per_node = {node: 0.0 for node in self.placements.get(op_id, ())}
        if span is not None:
            for node, busy in span.by_node.items():
                per_node[node] = per_node.get(node, 0.0) + busy
        return per_node

    def utilisation_spread(self, op_id: str) -> float:
        """max/mean per-node busy for one operator — 1.0 is perfectly
        uniform; large values mean a few sites carried the work."""
        per_node = self.node_busy(op_id)
        if not per_node:
            return 1.0
        mean = sum(per_node.values()) / len(per_node)
        if mean <= 0.0:
            return 1.0
        return max(per_node.values()) / mean

    def to_dict(self) -> dict[str, Any]:
        return {
            "elapsed": self.elapsed,
            "verdict": self.verdict,
            "plan": self.plan,
            "tree": self.tree,
            "spans": {
                op_id: span.as_dict()
                for op_id, span in sorted(self.spans.items())
            },
            "critical_path": list(self.critical_path),
            "timeline": self.timeline.to_dict(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    # -- rendering ---------------------------------------------------------
    def render(self) -> str:
        """The EXPLAIN ANALYZE text: annotated plan tree, critical path,
        and per-resource / per-phase timelines."""
        lines = [
            f"EXPLAIN ANALYZE  elapsed={self.elapsed:.6f}s"
            f"  verdict={self.verdict}",
        ]
        if self.plan:
            lines.append(f"plan: {self.plan}")
        on_path = {entry["op_id"] for entry in self.critical_path}
        if self.tree is not None:
            lines.append("")
            self._render_node(self.tree, "", True, on_path, lines)
        hidden = sorted(
            op_id for op_id in self.spans
            if op_id != OTHER and not _in_tree(self.tree, op_id)
        )
        for op_id in hidden:
            lines.append(f"  {op_id}: {self._span_note(self.spans[op_id])}")
        if self.critical_path:
            lines.append("")
            lines.append("critical path (root -> gating input):")
            for entry in self.critical_path:
                wait = entry["wait_for_input"]
                lines.append(
                    f"  {entry['op_id']:<16} busy={entry['busy']:.4f}s"
                    f"  wait={wait:.4f}s"
                )
        lines.extend(self._render_timeline())
        return "\n".join(lines)

    def _render_node(
        self,
        tree: dict[str, Any],
        prefix: str,
        is_last: bool,
        on_path: set[str],
        lines: list[str],
    ) -> None:
        connector = "" if not prefix else ("`-- " if is_last else "|-- ")
        marker = "*" if tree["op_id"] in on_path else " "
        exchange = f" <-{tree['exchange']}-" if tree["exchange"] else ""
        span = self.spans.get(tree["op_id"])
        note = self._span_note(span) if span is not None else "(no activity)"
        lines.append(
            f"{prefix}{connector}{marker} {tree['label']}{exchange}  {note}"
        )
        children = tree["children"]
        child_prefix = prefix + (
            "" if not prefix else ("    " if is_last else "|   ")
        )
        for i, child in enumerate(children):
            self._render_node(
                child, child_prefix, i == len(children) - 1, on_path, lines
            )

    def _span_note(self, span: OperatorSpan) -> str:
        busy = " ".join(
            f"{resource}={span.busy[resource]:.4f}s"
            for resource in ("cpu", "disk", "net")
            if resource in span.busy
        )
        window = (
            f"[{span.first:.4f}..{span.last:.4f}]"
            if span.first <= span.last else "[idle]"
        )
        parts = [window]
        if busy:
            parts.append(busy)
        if span.tuples_in or span.tuples_out:
            parts.append(f"rows={span.tuples_in}->{span.tuples_out}")
        if span.pages:
            parts.append(f"pages={span.pages}")
        return " ".join(parts)

    def _render_timeline(self) -> list[str]:
        lines: list[str] = []
        if self.timeline.width <= 0.0:
            return lines
        lines.append("")
        lines.append(
            f"timeline ({self.timeline.n_buckets} x"
            f" {self.timeline.width:.6f}s buckets, machine busy fraction):"
        )
        for resource in ("cpu", "disk", "net"):
            if resource in self.timeline.resource_busy:
                strip = self.timeline.strip(
                    self.timeline.utilisation(resource)
                )
                lines.append(f"  {resource:<5}|{strip}|")
        phased = sorted(
            key for key in self.timeline.phase_busy if "/" in key
        )
        if phased:
            lines.append("phases (each normalised to its own peak):")
            for key in phased:
                lines.append(
                    f"  {key:<18}|{self.timeline.phase_strip(key)}|"
                )
        return lines


def _in_tree(tree: Optional[dict[str, Any]], op_id: str) -> bool:
    if tree is None:
        return False
    if tree["op_id"] == op_id:
        return True
    return any(_in_tree(child, op_id) for child in tree["children"])


def explain_analyze(result: Any) -> str:
    """Render the EXPLAIN ANALYZE text for a profiled query result.

    ``result`` is a :class:`~repro.engine.results.QueryResult` from
    ``machine.run(query, profile=True)`` (either machine).
    """
    profile = getattr(result, "profile", None)
    if profile is None:
        raise ValueError(
            "result has no profile; run the query with profile=True"
        )
    return profile.render()
