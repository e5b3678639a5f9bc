"""The Gamma database machine: the library's main entry point.

Typical use::

    from repro import GammaMachine, GammaConfig, Query, RangePredicate

    machine = GammaMachine(GammaConfig.paper_default())
    machine.load_wisconsin("tenk", 10_000, clustered_on="unique1",
                           secondary_on=["unique2"])
    result = machine.run(
        Query.select("tenk", RangePredicate("unique2", 0, 99), into="result")
    )
    print(result.response_time, result.result_count)
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from ..catalog import Catalog, Hashed, PartitioningStrategy, Relation, RoundRobin
from ..errors import CatalogError, ReproError
from ..hardware import GammaConfig
from ..storage import Schema
from ..workloads import StringsMode, wisconsin_load_set
from .driver import QueryDriver, UpdateDriver
from .ir import ir_op_ids
from .node import ExecutionContext
from .plan import PlanNode, Query, ScanNode, UpdateRequest
from .planner import Planner
from .results import QueryResult


def _scanned_relations(node: PlanNode) -> set[str]:
    """Names of every relation a plan tree reads."""
    names: set[str] = set()
    stack: list[PlanNode] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ScanNode):
            names.add(current.relation)
        stack.extend(current.children())
    return names


class GammaMachine:
    """A configured Gamma instance holding a catalog of loaded relations."""

    def __init__(
        self,
        config: Optional[GammaConfig] = None,
        skew_strategy: str = "hash",
    ) -> None:
        self.config = config or GammaConfig.paper_default()
        self.catalog = Catalog()
        #: Join redistribution strategy handed to every Planner this
        #: machine constructs (see :data:`repro.engine.planner.SKEW_STRATEGIES`).
        self.skew_strategy = skew_strategy

    def _planner(self) -> Planner:
        return Planner(
            self.config, self.catalog, skew_strategy=self.skew_strategy
        )

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"<GammaMachine {self.config.n_disk_sites}+"
            f"{self.config.n_diskless} nodes,"
            f" page={self.config.page_size}B, {len(self.catalog)} relations>"
        )

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_relation(
        self,
        name: str,
        schema: Schema,
        records: Sequence[tuple],
        partitioning: Optional[PartitioningStrategy] = None,
        clustered_on: Optional[str] = None,
        secondary_on: Iterable[str] = (),
    ) -> Relation:
        """Decluster ``records`` across the disk sites and register them."""
        strategy = partitioning or RoundRobin()
        return self.catalog.create(
            name,
            schema,
            strategy,
            records,
            n_sites=self.config.n_disk_sites,
            page_size=self.config.page_size,
            clustered_on=clustered_on,
            secondary_on=secondary_on,
        )

    def load_wisconsin(
        self,
        name: str,
        n: int,
        seed: Optional[int] = None,
        partition_on: str = "unique1",
        clustered_on: Optional[str] = None,
        secondary_on: Iterable[str] = (),
        strings: StringsMode = "cheap",
    ) -> Relation:
        """Load an ``n``-tuple Wisconsin relation hashed on ``unique1``.

        Mirrors Section 4: "Two copies of each relation were created and
        loaded using Uniquel as the key (partitioning) attribute in all
        cases."  The tuples are the process-wide shared relation of
        :func:`~repro.workloads.wisconsin.wisconsin_relation`; this
        machine's fragments, pages and indexes are its own.
        """
        schema, records = wisconsin_load_set(name, n, seed, strings)
        return self.load_relation(
            name,
            schema,
            records,
            partitioning=Hashed(partition_on),
            clustered_on=clustered_on,
            secondary_on=secondary_on,
        )

    def load_relation_timed(
        self,
        name: str,
        schema: Schema,
        records: Sequence[tuple],
        partitioning: Optional[PartitioningStrategy] = None,
        clustered_on: Optional[str] = None,
        secondary_on: Iterable[str] = (),
    ) -> tuple[Relation, QueryResult]:
        """Like :meth:`load_relation`, but the load itself is measured.

        The host streams tuples through the declustering split table to a
        loader operator at each disk site (Section 2's load path); index
        builds are charged as bulk sorts plus sequential index-page
        writes.  Returns the relation and the load's timing profile.
        """
        from .loader import LoadRun

        strategy = partitioning or RoundRobin()
        records = list(records)
        ctx = ExecutionContext(self.config)
        run = LoadRun(
            ctx, name, schema, records, strategy,
            clustered_on, list(secondary_on),
        )
        ctx.sim.spawn(run.host_process(), name="load.host")
        response_time = ctx.sim.run()
        relation = self.catalog.create(
            name, schema, strategy, records,
            n_sites=self.config.n_disk_sites,
            page_size=self.config.page_size,
            clustered_on=clustered_on,
            secondary_on=secondary_on,
        )
        result = QueryResult(
            response_time=response_time,
            result_count=run.loaded,
            stats=dict(ctx.stats),
            plan=f"load[{strategy.kind}]({name})",
        )
        return relation, result

    def drop_relation(self, name: str) -> None:
        self.catalog.drop(name)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        query: Query,
        trace: Optional["Any"] = None,
        profile: bool = False,
        telemetry: Optional["Any"] = None,
    ) -> QueryResult:
        """Execute a retrieval query, returning the answer and timings.

        Pass a :class:`~repro.metrics.TraceBuffer` as ``trace`` to record
        the execution's service intervals and operator lifetimes for
        Chrome-trace export; set ``profile=True`` to attach an EXPLAIN
        ANALYZE :class:`~repro.metrics.QueryProfile` to the result; pass
        a :class:`~repro.metrics.telemetry.TelemetrySampler` as
        ``telemetry`` to sample cluster time series on a fixed cadence.
        None of them change the simulated timeline.
        """
        return self._execute(query, trace, profile, telemetry)

    def run_concurrent(
        self,
        requests: Sequence[Query | UpdateRequest],
        trace: Optional["Any"] = None,
        profile: bool = False,
    ) -> list[QueryResult]:
        """Execute several queries/updates in one simulation.

        The paper defers this: "The validity of this expectation will be
        determined in future multiuser benchmarks of the Gamma database
        machine."  All requests are submitted at t=0 and contend for the
        same CPUs, disks, network interfaces and locks; each result's
        ``response_time`` is its own completion (or abort) time.  This is
        how the Remote-join off-loading claim (Section 6.2.1) can be
        tested: with joins on the diskless processors, the disk sites
        keep capacity for concurrent selections.

        Per-request failures (a deadlock victim, a lock timeout) do not
        fail the batch: the victim's locks are released, its result
        carries the exception in :attr:`QueryResult.error` with
        ``response_time`` at the abort point, and its result relation
        (if any) is not registered.

        ``trace``/``profile`` work as in :meth:`run`: one shared
        :class:`~repro.metrics.TraceBuffer`/:class:`~repro.metrics.Profiler`
        observes the whole run, and with ``profile=True`` each result's
        ``profile`` is that request's own EXPLAIN ANALYZE — operator
        spans filtered to its plan's operators.  Because all requests
        share one simulation, the metrics snapshots and utilisation
        report describe the whole machine over the whole run, not any
        single request.
        """
        queries = [r for r in requests if isinstance(r, Query)]
        for query in queries:
            if query.into is not None and query.into in self.catalog:
                raise CatalogError(
                    f"result relation {query.into!r} already exists"
                )
        names = [q.into for q in queries if q.into is not None]
        if len(names) != len(set(names)):
            raise CatalogError("concurrent queries need distinct result names")
        into_names = set(names)
        for query in queries:
            for relation in sorted(_scanned_relations(query.root)):
                if relation in into_names and relation not in self.catalog:
                    raise CatalogError(
                        f"concurrent request reads {relation!r}, which"
                        " another request in the same batch creates (via"
                        " into=); results only exist after the batch"
                        " completes — submit the reader in a later batch"
                    )
        ctx = ExecutionContext(self.config, trace=trace, profile=profile)
        planner = self._planner()
        runs: list[tuple[Any, Any, Any, list[float], list[BaseException]]] = []
        for i, request in enumerate(requests):
            # Distinct op_id namespaces keep per-request profiles (and the
            # profiler's span keying) from colliding across plans.
            planner.id_prefix = f"q{i}."
            ir, run = self._compile(planner, ctx, request)
            finished: list[float] = []
            failure: list[BaseException] = []

            def host(run=run, finished=finished, failure=failure):
                try:
                    yield from run.host_process()
                except ReproError as exc:
                    failure.append(exc)
                finally:
                    finished.append(ctx.sim.now)

            ctx.sim.spawn(host(), name=f"host.q{i}")
            runs.append((request, run, ir, finished, failure))
        ctx.sim.run()
        ctx.stats["sim_events"] = ctx.sim.events_processed
        results = []
        for request, run, ir, finished, failure in runs:
            error = failure[0] if failure else None
            response_time = finished[0] if finished else ctx.sim.now
            result = self._build_result(
                ctx, run, request, response_time, error=error
            )
            if ctx.profiler is not None:
                result.profile = ctx.profiler.finish(
                    ir, response_time, op_ids=ir_op_ids(ir)
                )
            results.append(result)
        return results

    def run_workload(
        self, mix: "Any", spec: "Any", telemetry: Optional["Any"] = None
    ) -> "Any":
        """Run a multiuser workload: terminals submitting a query mix
        against one live simulation, behind admission control.

        ``mix`` is a :class:`~repro.workloads.multiuser.QueryMix` whose
        queries are host-bound (``into=None``); ``spec`` is the
        :class:`~repro.workloads.multiuser.WorkloadSpec` (clients,
        arrival process, MPL, admission policy, timeout, seed).  Returns
        the :class:`~repro.metrics.WorkloadResult` with per-query
        latency records and percentile/throughput summaries.  The same
        spec and mix on the same machine reproduce the result bit for
        bit — with or without a ``telemetry`` sampler attached.
        """
        from ..workloads.multiuser import drive_workload

        ctx = ExecutionContext(self.config, telemetry=telemetry)
        ctx.lock_timeout = spec.timeout
        machine = self

        class _Session:
            sim = ctx.sim
            label = "gamma"

            @staticmethod
            def execute(index: int, request: Query | UpdateRequest) -> Any:
                planner = machine._planner()
                planner.id_prefix = f"q{index}."
                if isinstance(request, Query) and request.into is not None:
                    raise CatalogError(
                        "workload queries must stream to the host"
                        f" (into=None), got into={request.into!r}"
                    )
                _ir, run = machine._compile(planner, ctx, request)
                yield from run.host_process()

        return drive_workload(_Session, spec, mix, telemetry=telemetry)

    def update(
        self,
        request: UpdateRequest,
        trace: Optional["Any"] = None,
        profile: bool = False,
        telemetry: Optional["Any"] = None,
    ) -> QueryResult:
        """Execute a single-tuple update request (Table 3 operations)."""
        return self._execute(request, trace, profile, telemetry)

    def _compile(
        self,
        planner: Planner,
        ctx: ExecutionContext,
        request: Query | UpdateRequest,
    ) -> tuple[Any, Any]:
        """The one request path: compile ``request`` and bind its driver
        to ``ctx``.  Returns (IR, driver)."""
        if isinstance(request, Query):
            ir: Any = planner.plan(request)
            return ir, QueryDriver(ctx, self.catalog, ir)
        ir = planner.compile_update(request)
        return ir, UpdateDriver(ctx, self.catalog, ir)

    def _execute(
        self,
        request: Query | UpdateRequest,
        trace: Optional["Any"],
        profile: bool,
        telemetry: Optional["Any"],
    ) -> QueryResult:
        """One request alone in its own simulation: the body of
        :meth:`run` and :meth:`update`."""
        if (
            isinstance(request, Query)
            and request.into is not None
            and request.into in self.catalog
        ):
            raise CatalogError(
                f"result relation {request.into!r} already exists"
            )
        ctx = ExecutionContext(
            self.config, trace=trace, profile=profile, telemetry=telemetry
        )
        ir, run = self._compile(self._planner(), ctx, request)
        ctx.sim.spawn(run.host_process(), name="host")
        response_time = ctx.sim.run()
        ctx.stats["sim_events"] = ctx.sim.events_processed
        result = self._build_result(ctx, run, request, response_time)
        if ctx.profiler is not None:
            result.profile = ctx.profiler.finish(ir, response_time)
        return result

    def _build_result(
        self,
        ctx: ExecutionContext,
        run: Any,
        request: Query | UpdateRequest,
        response_time: float,
        error: Optional[BaseException] = None,
    ) -> QueryResult:
        """The one result assembler behind ``run``/``run_concurrent``/
        ``update``: registers any result relation and snapshots the
        context's metrics into a :class:`QueryResult`.

        A failed request (``error`` set) never registers its result
        relation — an aborted ``retrieve into`` must not leave a
        half-written relation in the catalog — and reports no tuples.
        """
        snapshot = ctx.metrics.snapshot()
        utilisation_report = ctx.utilisation_report()
        if isinstance(request, Query):
            result_relation = None
            if request.into is not None and error is None:
                self.catalog.register(
                    Relation(request.into, run.plan.schema, RoundRobin(),
                             run.result_fragments)
                )
                result_relation = request.into
            if error is None:
                tuples = run.collected if request.into is None else None
            else:
                tuples = None
            return QueryResult(
                response_time=response_time,
                tuples=tuples,
                result_relation=result_relation,
                result_count=run.result_count if error is None else 0,
                stats=dict(ctx.stats),
                overflows_per_node=run.overflows_per_node,
                partitions_per_node=run.partitions_per_node,
                utilisations=utilisation_report.as_dict(),
                node_metrics=snapshot["nodes"],
                operator_metrics=snapshot["operators"],
                utilisation_report=utilisation_report,
                plan=run.plan.description,
                error=error,
            )
        return QueryResult(
            response_time=response_time,
            result_count=run.affected if error is None else 0,
            stats=dict(ctx.stats),
            utilisations=utilisation_report.as_dict(),
            node_metrics=snapshot["nodes"],
            operator_metrics=snapshot["operators"],
            utilisation_report=utilisation_report,
            plan=run.plan.description,
            error=error,
        )
