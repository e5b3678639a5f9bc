"""Processor nodes and the per-query execution context.

An :class:`ExecutionContext` is built fresh for every query (Gamma is
evaluated single-user with cold buffers): it owns the simulation, one
:class:`Node` per processor, the interconnect, the metrics registry and
(optionally) the trace-event stream the benchmarks report.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import TYPE_CHECKING, Any, Generator, Optional

from ..errors import ExecutionError
from ..hardware import DiskDrive, GammaConfig, Interconnect
from ..hardware.inventory import Inventory, InventoryRow
from ..metrics import MetricsRegistry
from ..metrics.report import NodeUtilisation, UtilisationReport
from ..sim import Server, Simulation, Use
from ..storage import BufferPool

if TYPE_CHECKING:  # each plane's module is imported where it is attached
    from ..metrics import Profiler, TraceBuffer
    from ..metrics.telemetry import TelemetrySampler

HOST = "host"
SCHEDULER = "sched"


class Node:
    """One Gamma processor: a CPU server, an optional disk, a buffer pool."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        config: GammaConfig,
        has_disk: bool,
    ) -> None:
        self.sim = sim
        self.name = name
        self.config = config
        self.cpu = Server(f"{name}.cpu")
        self.drive: Optional[DiskDrive] = (
            DiskDrive(f"{name}.disk", config.disk) if has_disk else None
        )
        buffer_pages = max(
            8, (config.memory_per_node // 2) // config.page_size
        )
        self.buffer = BufferPool(f"{name}.buf", buffer_pages)
        self.instructions_retired = 0.0
        # config.cpu.instructions_per_second, hoisted: work divides
        # by it once per CPU charge, and the property recomputes mips*1e6
        # per call.  Same expression, so the quotient is bit-identical.
        self._instr_per_s = config.cpu.mips * 1e6
        # One mutable Use reused by every work call: the kernel
        # consumes an effect synchronously at the yield (duration is read
        # once and captured by value), so the instance never needs to
        # outlive the next charge.
        self._cpu_effect = Use(self.cpu, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        disk = "disk" if self.drive else "diskless"
        return f"<Node {self.name} ({disk})>"

    @property
    def has_disk(self) -> bool:
        return self.drive is not None

    def work(self, instructions: float) -> Optional[Use]:
        """The effect that occupies this node's CPU for ``instructions`` of
        work, or None when there is nothing to charge.  Always written
        ``yield node.work(x)``: a yielded None costs no event (DESIGN 5.2).
        """
        if instructions <= 0:
            return None
        self.instructions_retired += instructions
        eff = self._cpu_effect
        eff.duration = instructions / self._instr_per_s
        return eff

    def read_page(
        self,
        file_id: str,
        page_no: int,
        nbytes: Optional[int] = None,
        sequential: Optional[bool] = None,
    ) -> Optional[Use]:
        """The disk effect that reads one page through the buffer pool, or
        None on a buffer-pool hit; written ``yield node.read_page(f, p)``."""
        if self.drive is None:
            raise ExecutionError(f"node {self.name!r} has no disk")
        if self.buffer.access(file_id, page_no):
            return None
        size = self.config.page_size if nbytes is None else nbytes
        return self.drive.read_effect(file_id, page_no, size, sequential)

    def read_page_uncached(
        self,
        file_id: str,
        page_no: int,
        nbytes: Optional[int] = None,
    ) -> Use:
        """The disk effect of a random page read that always goes to the
        disk.

        Used by the non-clustered index data-fetch path: the paper assumes
        (and measures) that "each tuple causes a page fault", so these
        accesses never hit the pool — which is exactly why larger pages
        *hurt* this access method (Figures 7-8: the longer transfer time
        dominates any fan-out advantage).
        """
        if self.drive is None:
            raise ExecutionError(f"node {self.name!r} has no disk")
        size = self.config.page_size if nbytes is None else nbytes
        return self.drive.read_effect(file_id, page_no, size, sequential=False)

    def write_page(
        self,
        file_id: str,
        page_no: int,
        nbytes: Optional[int] = None,
        sequential: Optional[bool] = None,
    ) -> Generator[Any, Any, None]:
        """Write one page (write-through; the page stays cached)."""
        if self.drive is None:
            raise ExecutionError(f"node {self.name!r} has no disk")
        size = self.config.page_size if nbytes is None else nbytes
        yield self.drive.write_effect(file_id, page_no, size, sequential)
        self.buffer.access(file_id, page_no)


class ExecutionContext:
    """Everything one query execution needs: sim, nodes, network, metrics.

    ``trace`` (optional) attaches a :class:`~repro.metrics.TraceBuffer`:
    service intervals on every CPU/disk/NIC/ring server and operator
    lifetimes are recorded into it as the simulation runs.  ``profile``
    attaches a :class:`~repro.metrics.Profiler` that attributes every
    service interval to the IR operator whose process consumed it.
    ``telemetry`` attaches a
    :class:`~repro.metrics.telemetry.TelemetrySampler` to the kernel's
    pull hook and wires the cluster's servers, lock manager and buffer
    pools into it.  All three find the servers in :attr:`hardware`, the
    machine's one :class:`~repro.hardware.Inventory`.  Tracing,
    profiling, telemetry and the always-on
    :class:`~repro.metrics.MetricsRegistry` are passive — they never
    schedule events, so the simulated timeline is identical whether or
    not they are inspected.
    """

    def __init__(
        self,
        config: GammaConfig,
        trace: Optional[TraceBuffer] = None,
        profile: bool = False,
        telemetry: Optional[TelemetrySampler] = None,
    ) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        self.trace = trace
        self.profiler: Optional[Profiler] = None
        if profile:
            from ..metrics.profile import Profiler

            self.profiler = Profiler()
        self.sim = Simulation()
        self.disk_nodes = [
            Node(self.sim, f"disk{i}", config, has_disk=True)
            for i in range(config.n_disk_sites)
        ]
        self.diskless_nodes = [
            Node(self.sim, f"proc{i}", config, has_disk=False)
            for i in range(config.n_diskless)
        ]
        self.scheduler_node = Node(self.sim, SCHEDULER, config, has_disk=False)
        self.host_node = Node(self.sim, HOST, config, has_disk=False)
        self.recovery_node: Optional[Node] = (
            Node(self.sim, "recovery", config, has_disk=True)
            if config.use_recovery_server else None
        )
        self.nodes: dict[str, Node] = {
            n.name: n
            for n in [
                *self.disk_nodes,
                *self.diskless_nodes,
                self.scheduler_node,
                self.host_node,
                *([self.recovery_node] if self.recovery_node else []),
            ]
        }
        self.net = Interconnect(config.network, list(self.nodes))
        from .recovery import RecoveryLog

        self.recovery_log: Optional[RecoveryLog] = (
            RecoveryLog(self, self.recovery_node)
            if self.recovery_node else None
        )
        from .locks import LockManager

        self.locks = LockManager(self.sim)
        #: Per-request bound (seconds) on any single lock wait; ``None``
        #: means wait forever.  The workload subsystem sets this so a
        #: query stuck behind a long writer aborts-and-releases instead
        #: of wedging a multiuser run.
        self.lock_timeout: Optional[float] = None
        self._txn_ids = itertools.count(1)
        self._spool_rr = itertools.cycle(range(len(self.disk_nodes)))
        self._temp_ids = itertools.count()
        self.telemetry = telemetry
        self.hardware = self._inventory()
        if trace is not None:
            trace.watch(self.hardware)
        if self.profiler is not None:
            self.profiler.watch(self.hardware)
        if telemetry is not None:
            telemetry.watch(self.hardware)
            self._watch_gauges(telemetry)

    @property
    def stats(self) -> Counter[str]:
        """Query-wide counters (view of the metrics registry, kept for
        compatibility with the pre-registry ``ctx.stats`` dict)."""
        return self.metrics.query

    def _inventory(self) -> Inventory:
        """Gamma's hardware: each node's CPU and drive, each NIC, then
        the ring (keys ``disk0.cpu``, ``disk0.disk``, ``disk0.nic``,
        ``ring``)."""
        rows = []
        for node in self.nodes.values():
            rows.append(InventoryRow(node.cpu, node.name, "cpu", "cpu"))
            if node.drive is not None:
                rows.append(InventoryRow(
                    node.drive.server, node.name, "disk", "disk"
                ))
        for name, interface in self.net.interfaces.items():
            rows.append(InventoryRow(interface.server, name, "nic", "net"))
        rows.append(InventoryRow(self.net.ring, "ring", "ring", "net"))
        return Inventory(
            self.sim, rows, [node.name for node in self.disk_nodes]
        )

    def _watch_gauges(self, sampler: TelemetrySampler) -> None:
        """Gamma's own telemetry gauges: lock-manager counts, buffer
        pages and hash-table peak bytes."""
        sampler.watch_locks(self.locks)
        nodes = list(self.nodes.values())
        sampler.add_gauge(
            "cluster", "mem.buffer_pages", "pages",
            lambda: float(sum(len(n.buffer) for n in nodes)),
        )
        registry_nodes = self.metrics.nodes
        sampler.add_gauge(
            "cluster", "mem.hash_table_peak", "bytes",
            lambda: float(sum(
                nm.hash_table_peak_bytes for nm in registry_nodes.values()
            )),
        )

    # ------------------------------------------------------------------
    # placement helpers
    # ------------------------------------------------------------------
    def placement_nodes(self, placement: "Any") -> list[Node]:
        """Resolve an IR :class:`~repro.engine.ir.Placement` against this
        machine's processors (:meth:`~repro.engine.ir.Placement.pools`,
        the rule the planner sizes fragments by)."""
        pools = {
            "disk": self.disk_nodes,
            "diskless": self.diskless_nodes,
            "host": [self.host_node],
        }
        return [
            node
            for pool in placement.pools(bool(self.diskless_nodes))
            for node in pools[pool]
        ]

    def spool_target(self, node: Node) -> Node:
        """Disk node that stores a spool file for ``node``.

        Disk sites spool locally; diskless processors are assigned disk
        sites round-robin.
        """
        if node.has_disk:
            return node
        return self.disk_nodes[next(self._spool_rr)]

    def temp_file_id(self, label: str) -> str:
        """A unique file id for a temporary (spool) file."""
        return f"tmp.{label}.{next(self._temp_ids)}"

    def next_txn_id(self) -> int:
        """A fresh transaction id for one query/update execution."""
        return next(self._txn_ids)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def utilisations(self) -> dict[str, float]:
        """Flat ``{"node.resource": busy fraction}`` map over all nodes."""
        return self.utilisation_report().as_dict()

    def utilisation_report(self) -> UtilisationReport:
        """The per-node CPU/disk/network busy-fraction report (post-run)."""
        busy = self.hardware.utilisations()
        rows = []
        for name, node in self.nodes.items():
            nm = self.metrics.node(name)
            drive = node.drive
            rows.append(NodeUtilisation(
                name=name,
                cpu=busy[f"{name}.cpu"],
                disk=busy.get(f"{name}.disk"),
                nic=busy.get(f"{name}.nic"),
                pages_read=drive.pages_read if drive else 0,
                pages_written=drive.pages_written if drive else 0,
                tuples_in=nm.tuples_in,
                tuples_out=nm.tuples_out,
            ))
        return UtilisationReport(self.sim.now, rows, ring=busy["ring"])
