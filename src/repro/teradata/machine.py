"""The Teradata DBC/1012 baseline machine.

The comparison system of Sections 3-7: 4 IFPs, 20 AMPs with two DSUs each,
a 12 MB/s Y-net, release 2.3 software.  It accepts the same
:class:`~repro.engine.plan.Query` objects as :class:`~repro.engine.machine.
GammaMachine`, so every benchmark runs the identical workload on both
machines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence

from ..catalog import gamma_hash
from ..engine.plan import Query, UpdateRequest
from ..engine.results import QueryResult
from ..errors import CatalogError
from ..hardware import TeradataConfig
from ..hardware.inventory import Inventory, InventoryRow
from ..sim import Server, Simulation
from ..storage import Schema
from ..workloads import StringsMode, wisconsin_load_set
from .amp import Amp, AmpFragment, hash_partition
from .costs import DEFAULT_TERADATA_COSTS, TeradataCosts
from .executor import TeradataRun, TeradataUpdateRun
from .planner import TeradataPlanner

if TYPE_CHECKING:
    from ..metrics import Profiler


def _hardware(
    sim: Simulation, amps: Sequence[Amp], ynet: Optional[Server] = None
) -> Inventory:
    """The DBC/1012's hardware: each AMP's CPU and drives (keys
    ``amp0.cpu``, ``amp0.d0`` ...), then the Y-net when the run has one."""
    rows = []
    for amp in amps:
        rows.append(InventoryRow(amp.cpu, amp.name, "cpu", "cpu"))
        for d, drive in enumerate(amp.drives):
            rows.append(InventoryRow(drive.server, amp.name, f"d{d}", "disk"))
    if ynet is not None:
        rows.append(InventoryRow(ynet, "ynet", "ynet", "net"))
    return Inventory(sim, rows, [amp.name for amp in amps])


class TeradataRelation:
    """A relation hash-partitioned on its primary key across all AMPs."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        key_attr: str,
        fragments: Sequence[AmpFragment],
    ) -> None:
        self.name = name
        self.schema = schema
        self.key_attr = key_attr
        self.fragments = list(fragments)

    @property
    def num_records(self) -> int:
        return sum(f.num_records for f in self.fragments)

    @property
    def num_pages(self) -> int:
        return sum(f.num_pages for f in self.fragments)

    @property
    def n_sites(self) -> int:
        return len(self.fragments)

    def indexed_attrs(self) -> set[str]:
        return set(self.fragments[0].indexes)

    def records(self) -> Iterable[tuple]:
        for fragment in self.fragments:
            yield from fragment.live_records()

    def amp_of_key(self, value: object, n_amps: int) -> int:
        return gamma_hash(value, n_amps)


class TeradataMachine:
    """A configured DBC/1012 with a catalog of loaded relations."""

    def __init__(
        self,
        config: Optional[TeradataConfig] = None,
        costs: TeradataCosts = DEFAULT_TERADATA_COSTS,
        skew_strategy: str = "hash",
    ) -> None:
        self.config = config or TeradataConfig.paper_default()
        self.costs = costs
        self.relations: dict[str, TeradataRelation] = {}
        #: Join redistribution strategy handed to every planner this
        #: machine constructs (see :mod:`repro.engine.skew`).
        self.skew_strategy = skew_strategy

    def _planner(self) -> TeradataPlanner:
        return TeradataPlanner(
            self.config, self, self.costs, skew_strategy=self.skew_strategy
        )

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"<TeradataMachine {self.config.n_amps} AMPs,"
            f" {len(self.relations)} relations>"
        )

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_relation(
        self,
        name: str,
        schema: Schema,
        records: Sequence[tuple],
        primary_key: str,
        secondary_on: Iterable[str] = (),
    ) -> TeradataRelation:
        """Hash tuples to AMPs on the primary key; store in hash-key order.

        "Whenever a tuple is to be inserted into a relation, a hash
        function is applied to the primary key of the relation to select
        an AMP for storage."
        """
        if name in self.relations:
            raise CatalogError(f"relation {name!r} already exists")
        buckets = hash_partition(
            records, schema.position(primary_key), self.config.n_amps
        )
        fragments = [
            AmpFragment(
                f"{name}.a{i}", schema, primary_key,
                self.config.page_size, bucket,
            )
            for i, bucket in enumerate(buckets)
        ]
        relation = TeradataRelation(name, schema, primary_key, fragments)
        for attr in secondary_on:
            for fragment in fragments:
                fragment.add_index(attr)
        self.relations[name] = relation
        return relation

    def load_wisconsin(
        self,
        name: str,
        n: int,
        seed: Optional[int] = None,
        secondary_on: Iterable[str] = (),
        strings: StringsMode = "cheap",
    ) -> TeradataRelation:
        """Load the same shared ``n``-tuple Wisconsin relation
        :meth:`GammaMachine.load_wisconsin` loads, keyed on ``unique1``."""
        schema, records = wisconsin_load_set(name, n, seed, strings)
        return self.load_relation(
            name, schema, records,
            primary_key="unique1", secondary_on=secondary_on,
        )

    def lookup(self, name: str) -> TeradataRelation:
        try:
            return self.relations[name]
        except KeyError:
            raise CatalogError(f"unknown relation {name!r}") from None

    def drop_relation(self, name: str) -> None:
        self.lookup(name)
        del self.relations[name]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        query: Query,
        profile: bool = False,
        telemetry: Optional["Any"] = None,
    ) -> QueryResult:
        """Execute a retrieval query (selection / join / aggregate)."""
        return self._execute(query, profile, telemetry)

    def run_workload(
        self, mix: "Any", spec: "Any", telemetry: Optional["Any"] = None
    ) -> "Any":
        """Run a multiuser workload on the DBC/1012: terminals submitting
        a query mix into one live simulation, behind admission control.

        The counterpart of
        :meth:`~repro.engine.machine.GammaMachine.run_workload` — the
        same :class:`~repro.workloads.multiuser.QueryMix` and
        :class:`~repro.workloads.multiuser.WorkloadSpec` drive both
        machines, so MPL sweeps compare them on identical workloads.
        All requests share one simulation, one set of AMPs and the
        single physical Y-net (the DBC/1012's broadcast network is the
        shared resource multiuser contention exposes first).
        """
        from ..workloads.multiuser import drive_workload

        sim = Simulation()
        amps = [Amp(sim, i, self.config) for i in range(self.config.n_amps)]
        ynet = Server("ynet")
        if telemetry is not None:
            telemetry.watch(_hardware(sim, amps, ynet))
        machine = self

        class _Session:
            label = "teradata"

            @staticmethod
            def execute(index: int, request: Query | UpdateRequest) -> "Any":
                planner = machine._planner()
                planner.id_prefix = f"q{index}."
                if isinstance(request, Query) and request.into is not None:
                    raise CatalogError(
                        "workload queries must stream to the host"
                        f" (into=None), got into={request.into!r}"
                    )
                _ir, run = machine._compile(
                    planner, sim, amps, request, ynet=ynet, tag=f"q{index}."
                )
                yield from run.coordinator()

        _Session.sim = sim
        return drive_workload(_Session, spec, mix, telemetry=telemetry)

    def update(
        self, request: UpdateRequest, profile: bool = False
    ) -> QueryResult:
        """Execute a single-tuple update request (Table 3 operations)."""
        return self._execute(request, profile, None)

    def _compile(
        self,
        planner: TeradataPlanner,
        sim: Simulation,
        amps: list[Amp],
        request: Query | UpdateRequest,
        profiler: Optional[Profiler] = None,
        ynet: Optional[Server] = None,
        tag: str = "",
    ) -> tuple[Any, Any]:
        """The one request path: compile ``request`` and bind its run to
        ``sim``/``amps`` (and, for a query, the shared ``ynet`` and
        spool-file ``tag`` of a concurrent run).  Returns (IR, run)."""
        if isinstance(request, Query):
            ir: Any = planner.plan(request)
            return ir, TeradataRun(
                self, sim, amps, ir, profiler=profiler, ynet=ynet, tag=tag
            )
        ir = planner.compile_update(request)
        return ir, TeradataUpdateRun(self, sim, amps, ir)

    def _execute(
        self,
        request: Query | UpdateRequest,
        profile: bool,
        telemetry: Optional["Any"],
    ) -> QueryResult:
        """One request alone in its own simulation: the body of
        :meth:`run` and :meth:`update`."""
        query = request if isinstance(request, Query) else None
        if query is not None and query.into is not None and (
            query.into in self.relations
        ):
            raise CatalogError(f"result relation {query.into!r} exists")
        sim = Simulation()
        # One request, bulk-synchronous: every AMP has a single requester
        # at a time (DESIGN 5.6, "Service runs").
        amps = [
            Amp(sim, i, self.config, private=True)
            for i in range(self.config.n_amps)
        ]
        profiler: Optional[Profiler] = None
        if profile:
            from ..metrics.profile import Profiler

            profiler = Profiler()
        ir, run = self._compile(
            self._planner(), sim, amps, request, profiler=profiler
        )
        hardware = _hardware(sim, amps, run.ynet)
        if profiler is not None:
            profiler.watch(hardware)
        if telemetry is not None:
            telemetry.watch(hardware)
        proc = sim.spawn(run.coordinator(), name="ifp")
        if profiler is not None and query is None:
            # Updates execute inline in the coordinator process.
            profiler.register(proc, ir.op_id, "update")
        response_time = sim.run()
        if query is not None and query.into is not None and (
            run.result_relation is not None
        ):
            self.relations[query.into] = run.result_relation
        result = QueryResult(
            response_time=response_time,
            tuples=(
                run.collected
                if query is not None and query.into is None else None
            ),
            result_relation=None if query is None else query.into,
            result_count=run.affected if query is None else run.result_count,
            stats=dict(run.stats),
            utilisations=hardware.utilisations(),
            plan=ir.description,
        )
        if profiler is not None:
            result.profile = profiler.finish(ir, response_time)
        return result
