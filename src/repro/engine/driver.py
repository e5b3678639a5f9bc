"""The Gamma driver: lowers physical IR onto split tables and ports.

This is layer three of the plan pipeline (logical plan → physical IR →
backend driver).  The scheduler process it models is the paper's: an idle
scheduler activates operator processes at the chosen nodes (four control
messages per operator per node, serialised through the scheduler's network
interface), sequences the build and probe phases of joins, coordinates
hash-overflow resolution rounds, and reports completion to the host.

The per-operator lowering lives with the operators themselves
(:class:`~repro.engine.operators.scan.ScanDriver` and friends); this module
supplies the shared machinery — lock acquisition, operator activation
(:meth:`GammaDriver._initiate`/:meth:`GammaDriver._spawn`), and the lowering
of IR :class:`~repro.engine.ir.Exchange` edges to
:class:`~repro.engine.operators.base.DestSpec` split tables.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..catalog import Catalog
from ..errors import PlanError
from ..sim import Delay, Process, WaitAll
from ..storage import Schema, StoredFile
from .ir import (
    AggregateOp,
    Exchange,
    ExchangeKind,
    HashJoinProbeOp,
    IRNode,
    PhysicalIR,
    ProjectOp,
    ScanOp,
    SortOp,
    StoreOp,
    UpdateIR,
    walk,
)
from .node import ExecutionContext, Node
from .operators import DestSpec
from .operators.aggregate import AggregateDriver
from .operators.join import HashJoinDriver
from .operators.project import ProjectDriver
from .operators.scan import ScanDriver
from .operators.sort import SortDriver
from .operators.store import HostSinkDriver, StoreDriver
from .plan import AppendTuple, DeleteTuple, ModifyTuple
from .ports import OutputPort
from .skew import router
from .split_table import SplitTable

CONTROL_BYTES = 128
REPLY_BYTES = 64


def _spawn_operator(
    ctx: ExecutionContext,
    node: Node,
    gen: Any,
    label: str,
    op_id: Optional[str] = None,
    phase: Optional[str] = None,
) -> Process:
    """Spawn an operator process with lifetime metrics and trace events.

    The operator pays its activation CPU first; start/finish times land in
    the metrics registry and (when tracing) as a duration event on the
    node's ``op:<label>`` lane.  ``op_id``/``phase`` register the process
    with the profiler (when one is attached) so every service interval it
    — or any helper process it spawns — consumes is attributed to that IR
    node.
    """

    def wrapped() -> Generator[Any, Any, Any]:
        started = ctx.sim.now
        ctx.metrics.record_operator_start(label, node.name, started)
        yield node.work(ctx.config.costs.operator_startup)
        result = yield from gen
        finished = ctx.sim.now
        ctx.metrics.record_operator_finish(label, node.name, finished)
        if ctx.trace is not None:
            ctx.trace.duration(
                node.name, f"op:{label}", label,
                started, finished - started, cat="operator",
            )
        return result

    proc = ctx.sim.spawn(wrapped(), name=label)
    if ctx.profiler is not None and op_id is not None:
        ctx.profiler.register(proc, op_id, phase, node=node.name)
    return proc


class GammaDriver:
    """Shared base for the query and update schedulers: operator
    activation and process spawning."""

    def __init__(self, ctx: ExecutionContext, catalog: Catalog) -> None:
        self.ctx = ctx
        self.catalog = catalog
        self.txn = ctx.next_txn_id()

    def _initiate(self, node: Node) -> Generator[Any, Any, None]:
        """The four scheduling messages that activate one operator."""
        ctx = self.ctx
        sched = ctx.scheduler_node.name
        for _ in range(2):
            yield from ctx.net.transfer(sched, node.name, CONTROL_BYTES)
            yield from ctx.net.transfer(node.name, sched, REPLY_BYTES)
        n = ctx.config.sched_messages_per_operator
        ctx.metrics.add("sched_messages", n)
        ctx.metrics.node(sched).control_messages += n

    def _spawn(
        self,
        node: Node,
        gen: Any,
        label: str,
        op_id: Optional[str] = None,
        phase: Optional[str] = None,
    ) -> Process:
        """Start an operator process; it pays its activation CPU first."""
        return _spawn_operator(self.ctx, node, gen, label, op_id, phase)


class QueryDriver(GammaDriver):
    """Executes one compiled :class:`~repro.engine.ir.PhysicalIR`."""

    def __init__(
        self, ctx: ExecutionContext, catalog: Catalog, plan: PhysicalIR
    ) -> None:
        super().__init__(ctx, catalog)
        self.plan = plan
        self.collected: list[tuple] = []
        self.result_fragments: list[StoredFile] = []
        self.result_count = 0
        self.overflows_per_node: list[int] = []
        self.partitions_per_node: list[int] = []
        self._label_counter = 0

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def host_process(self) -> Generator[Any, Any, None]:
        """Parse/optimize/compile at the host, then drive the scheduler."""
        ctx = self.ctx
        yield Delay(ctx.config.host_startup_s)
        yield from ctx.net.transfer(
            ctx.host_node.name, ctx.scheduler_node.name, 512
        )
        try:
            yield from self._acquire_read_locks()
            yield from self._scheduler()
        finally:
            # Strict two-phase locking: everything releases at commit.
            ctx.locks.release_all(self.txn)
        yield from ctx.net.transfer(
            ctx.scheduler_node.name, ctx.host_node.name, REPLY_BYTES
        )

    def _acquire_read_locks(self) -> Generator[Any, Any, None]:
        """Shared locks on every scanned fragment, in canonical order.

        Sorted acquisition makes the engine's own workloads deadlock-free;
        the lock manager's waits-for detector (Gamma's scheduler runs
        "global deadlock detection") guards everything else.
        """
        from .locks import LockMode

        names = {
            (node.relation.name, site)
            for node in walk(self.plan.root)
            if isinstance(node, ScanOp)
            for site in node.sites
        }
        for name in sorted(names):
            yield from self.ctx.locks.acquire(
                self.txn, name, LockMode.SHARED,
                timeout=self.ctx.lock_timeout,
            )

    def _scheduler(self) -> Generator[Any, Any, None]:
        ctx = self.ctx
        plan = self.plan
        if isinstance(plan.sink, StoreOp):
            consumers, dest = yield from StoreDriver().start(self, plan.sink)
        else:
            consumers, dest = HostSinkDriver().start(self, plan.sink)
        yield from self.run_op(plan.root, dest)
        results = yield WaitAll(consumers)
        self.result_count = sum(r or 0 for r in results)
        if ctx.recovery_log is not None:
            # Transaction commit: force the tail of the recovery log.
            yield from ctx.recovery_log.commit()

    # ------------------------------------------------------------------
    # IR lowering
    # ------------------------------------------------------------------
    def run_op(
        self, node: IRNode, dest: DestSpec
    ) -> Generator[Any, Any, None]:
        """Dispatch one IR operator (and, recursively, its inputs) to its
        per-operator driver."""
        if isinstance(node, ScanOp):
            yield from ScanDriver().run(self, node, dest)
        elif isinstance(node, HashJoinProbeOp):
            yield from HashJoinDriver().run(self, node, dest)
        elif isinstance(node, AggregateOp):
            yield from AggregateDriver().run(self, node, dest)
        elif isinstance(node, ProjectOp):
            yield from ProjectDriver().run(self, node, dest)
        elif isinstance(node, SortOp):
            yield from SortDriver().run(self, node, dest)
        else:  # pragma: no cover - the compiler emits a closed set
            raise PlanError(f"unknown physical node {node!r}")

    def lower_exchange(
        self,
        exchange: Exchange,
        ports: list[Any],
        bit_filter: Optional[Any] = None,
    ) -> DestSpec:
        """Lower one IR Exchange edge to a split-table destination spec.
        Every producer's split table shares one tuple of ``ports``."""
        kind = exchange.kind
        costs = self.ctx.config.costs
        shared = tuple(ports)
        if kind is ExchangeKind.RECORD_HASH:
            positions = list(exchange.positions or [])
            return DestSpec(shared, lambda _: SplitTable.by_record_hash(
                shared, positions, costs
            ))
        if kind is ExchangeKind.ROUND_ROBIN:
            return DestSpec(shared, lambda _: SplitTable.round_robin(shared))
        if kind is ExchangeKind.MERGE:
            return DestSpec(shared, lambda _: SplitTable.single(shared[0]))
        # Hash, range and the skew-aware kinds: one router for every
        # producer's split table (``router`` rejects a local exchange).
        return DestSpec.by_value(
            shared, exchange.attr, router(exchange, len(shared)), costs,
            bit_filter=bit_filter,
        )

    def _make_output(
        self, node: Node, dest: DestSpec, schema: Schema
    ) -> OutputPort:
        split = dest.split(schema)
        for destination in dest.ports:
            destination.port.add_producer()
        self._label_counter += 1
        return OutputPort(
            self.ctx, node, split, schema.tuple_bytes,
            f"out.{node.name}.{self._label_counter}",
        )


class UpdateDriver(GammaDriver):
    """Executes one compiled single-tuple update (Table 3)."""

    def __init__(
        self, ctx: ExecutionContext, catalog: Catalog, update: UpdateIR
    ) -> None:
        super().__init__(ctx, catalog)
        self.update = update
        self.request = update.request
        self.affected = 0

    @property
    def plan(self) -> UpdateIR:
        return self.update

    def host_process(self) -> Generator[Any, Any, None]:
        ctx = self.ctx
        yield Delay(ctx.config.host_startup_s)
        yield from ctx.net.transfer(
            ctx.host_node.name, ctx.scheduler_node.name, 512
        )
        try:
            yield from self._acquire_write_locks()
            yield from self._scheduler()
        finally:
            ctx.locks.release_all(self.txn)
        yield from ctx.net.transfer(
            ctx.scheduler_node.name, ctx.host_node.name, REPLY_BYTES
        )

    def _acquire_write_locks(self) -> Generator[Any, Any, None]:
        """Exclusive locks on every fragment the update may touch.

        The compiler resolved the lock set: a key-attribute modify can
        relocate the tuple anywhere, so it locks the whole relation;
        everything else locks its target site(s).  Canonical sorted order
        keeps the engine deadlock-free; the manager's waits-for detector
        guards everything else.
        """
        from .locks import LockMode

        relation = self.update.relation
        for site in sorted(set(self.update.lock_sites)):
            yield from self.ctx.locks.acquire(
                self.txn, (relation.name, site), LockMode.EXCLUSIVE,
                timeout=self.ctx.lock_timeout,
            )

    def _scheduler(self) -> Generator[Any, Any, None]:
        request = self.request
        if isinstance(request, AppendTuple):
            yield from self._run_append(request)
        elif isinstance(request, DeleteTuple):
            yield from self._run_delete(request)
        elif isinstance(request, ModifyTuple):
            yield from self._run_modify(request)
        else:  # pragma: no cover - UpdateRequest is a closed union
            raise PlanError(f"unknown update request {request!r}")

    def _run_append(self, request: AppendTuple) -> Generator[Any, Any, None]:
        from .operators import append_operator

        ctx = self.ctx
        relation = self.update.relation
        site = self.update.append_site
        assert site is not None
        node = ctx.disk_nodes[site]
        yield from self._initiate(node)
        proc = self._spawn(
            node,
            append_operator(ctx, node, relation.fragments[site], request.record),
            self.update.op_id,
            op_id=self.update.op_id, phase="update",
        )
        results = yield WaitAll([proc])
        self.affected = sum(results)

    def _run_delete(self, request: DeleteTuple) -> Generator[Any, Any, None]:
        from .operators import delete_operator

        ctx = self.ctx
        relation = self.update.relation
        procs = []
        for site in self.update.sites:
            node = ctx.disk_nodes[site]
            yield from self._initiate(node)
            procs.append(
                self._spawn(
                    node,
                    delete_operator(
                        ctx, node, relation.fragments[site], request.where
                    ),
                    f"{self.update.op_id}.{site}",
                    op_id=self.update.op_id, phase="update",
                )
            )
        results = yield WaitAll(procs)
        self.affected = sum(results)

    def _run_modify(self, request: ModifyTuple) -> Generator[Any, Any, None]:
        from .operators import modify_operator, reinsert_operator

        ctx = self.ctx
        relation = self.update.relation
        relocate = self.update.relocate
        procs = []
        for site in self.update.sites:
            node = ctx.disk_nodes[site]
            yield from self._initiate(node)
            procs.append(
                self._spawn(
                    node,
                    modify_operator(
                        ctx, node, relation.fragments[site], request.where,
                        request.attr, request.value, relocate,
                    ),
                    f"{self.update.op_id}.{site}",
                    op_id=self.update.op_id, phase="update",
                )
            )
        results = yield WaitAll(procs)
        outcomes = [r for r in results if r is not None]
        moved = [rec for status, rec in outcomes if status == "relocate"]
        self.affected = len(outcomes)
        # Re-insert relocated tuples at their (possibly new) home site.
        for record in moved:
            new_site = relation.partitioning.site_of(record, relation.n_sites)
            node = ctx.disk_nodes[new_site]
            yield from ctx.net.transfer(
                ctx.scheduler_node.name, node.name,
                relation.schema.tuple_bytes + 64,
            )
            yield from self._initiate(node)
            proc = self._spawn(
                node,
                reinsert_operator(
                    ctx, node, relation.fragments[new_site], record
                ),
                "reinsert",
                op_id=self.update.op_id, phase="update",
            )
            yield WaitAll([proc])


__all__ = [
    "CONTROL_BYTES",
    "REPLY_BYTES",
    "GammaDriver",
    "QueryDriver",
    "UpdateDriver",
]
