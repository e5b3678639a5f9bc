"""The backend-agnostic physical dataflow IR.

The paper's central comparison — Gamma's split tables + token ring against
Teradata's spool files + Y-net — is a comparison of two *dataflow
machineries* executing the same queries.  This module makes that structure
explicit: a logical :class:`~repro.engine.plan.Query` is compiled into a
DAG of physical operator nodes (:class:`ScanOp`, :class:`ProjectOp`,
:class:`HashJoinBuildOp`/:class:`HashJoinProbeOp`, :class:`SortMergeJoinOp`,
:class:`AggregateOp`, :class:`SortOp`, :class:`StoreOp`,
:class:`HostSinkOp`) connected by explicit :class:`Exchange` edges that say
how tuples are redistributed between operator fragments (hash-split,
range-split, round-robin, merge, local, and the skew-aware kinds of
:mod:`repro.engine.skew`) and a :class:`Placement` saying where each
fragment runs.  Every node lists its children, in plan order, in
``inputs``; :func:`walk` is the one generic traversal built on them.

Backends never see logical plan nodes: the Gamma driver
(:mod:`repro.engine.driver`) lowers Exchange edges to split tables and
ports, while the Teradata driver (:mod:`repro.teradata.executor`) lowers
the same edges to AMP-local spool redistributions over the Y-net.  The
shared :class:`PlanCompiler` walk lives here; each backend supplies its
conventions (access-path choice, join algorithm, operator placement) by
overriding the hook methods.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator, Optional, Union

from ..errors import PlanError
from ..storage import Schema, int_attr
from .plan import (
    AccessPath,
    AggregateNode,
    AppendTuple,
    ExactMatch,
    JoinMode,
    JoinNode,
    ModifyTuple,
    PlanNode,
    ProjectNode,
    Query,
    ScanNode,
    SortNode,
    UpdateRequest,
)

# ---------------------------------------------------------------------------
# exchange edges and placement
# ---------------------------------------------------------------------------


class ExchangeKind(Enum):
    """How an operator's output stream reaches its consumer's fragments."""

    HASH = "hash"          #: hash-split on ``attr`` (split table / Y-net hash)
    RANGE = "range"        #: range-split on ``attr`` at ``boundaries``
    RECORD_HASH = "record-hash"  #: hash of the projected ``positions``
    ROUND_ROBIN = "rr"     #: even round-robin spray
    MERGE = "merge"        #: all producers feed one consumer (merge-to-host)
    LOCAL = "local"        #: no redistribution: producer and consumer are
    #: co-partitioned (Teradata's primary-key join shortcut)
    # Skew-aware redistributions.  A plain hash split collapses under hot
    # keys (a handful of attribute values carry most of the stream and
    # all land on one consumer); these three kinds carry the optimizer's
    # histogram knowledge down to the drivers.
    VHASH = "vhash"        #: virtual-processor hash: over-partition into
    #: ``len(virtual_map)`` virtual buckets, then map each to a consumer
    HOT_BROADCAST = "hot-broadcast"  #: fragment-replicate, build side:
    #: tuples with a ``hot_keys`` value go to *every* consumer
    HOT_SPRAY = "hot-spray"  #: fragment-replicate, probe side: tuples
    #: with a ``hot_keys`` value are round-robined, the rest hash-split


@dataclass(frozen=True)
class Exchange:
    """One redistribution edge between two physical operators."""

    kind: ExchangeKind
    attr: Optional[str] = None
    boundaries: Optional[list] = None    # RANGE: n-1 split points
    positions: Optional[list[int]] = None  # RECORD_HASH: projected columns
    #: VHASH: virtual bucket -> consumer index, length = V (> consumers).
    virtual_map: Optional[tuple[int, ...]] = None
    #: HOT_BROADCAST / HOT_SPRAY: the attribute values detected as hot.
    hot_keys: Optional[frozenset] = None

    def describe(self) -> str:
        if self.kind is ExchangeKind.HASH:
            return f"hash({self.attr})"
        if self.kind is ExchangeKind.RANGE:
            width = len(self.boundaries or []) + 1
            return f"range({self.attr} x{width})"
        if self.kind is ExchangeKind.RECORD_HASH:
            return f"record-hash({self.positions})"
        if self.kind is ExchangeKind.VHASH:
            vmap = self.virtual_map or ()
            width = (max(vmap) + 1) if vmap else 0
            return f"vhash({self.attr} {len(vmap)}->{width})"
        if self.kind in (ExchangeKind.HOT_BROADCAST, ExchangeKind.HOT_SPRAY):
            return f"{self.kind.value}({self.attr} {len(self.hot_keys or ())} hot)"
        return self.kind.value


@dataclass(frozen=True)
class Placement:
    """Which processors run an operator's fragments.

    ``role`` is symbolic — the driver resolves it against its machine
    (``disk-sites``, ``diskless``, ``join-sites``, ``amps``, ``host``);
    ``sites`` pins an explicit fragment list when the compiler can prune
    (single-site exact match, range-declustered scans); ``mode`` carries
    the Gamma join placement (Local / Remote / Allnodes).
    """

    role: str
    sites: Optional[tuple[int, ...]] = None
    mode: Optional[JoinMode] = None

    def describe(self) -> str:
        where = self.role if self.sites is None else f"{len(self.sites)} sites"
        return where if self.mode is None else f"{where}:{self.mode.value}"

    def pools(self, has_diskless: bool) -> tuple[str, ...]:
        """The Gamma processor pools this placement runs on, in fragment
        order: ``"disk"`` sites, ``"diskless"`` processors or the
        ``"host"``.  A machine without diskless processors runs their
        work on its disk sites.  The planner counts these pools and
        ``ExecutionContext.placement_nodes`` resolves them to nodes, so
        both size a placement by this one rule."""
        if self.role == "join-sites":
            if self.mode is JoinMode.LOCAL or not has_diskless:
                return ("disk",)
            if self.mode is JoinMode.REMOTE:
                return ("diskless",)
            return ("disk", "diskless")
        if self.role == "diskless":
            return ("diskless",) if has_diskless else ("disk",)
        if self.role == "disk-sites":
            return ("disk",)
        if self.role == "host":
            return ("host",)
        raise PlanError(f"unknown placement role {self.role!r}")


# ---------------------------------------------------------------------------
# operator nodes
# ---------------------------------------------------------------------------


class _Unary:
    """A node fed by one input stream, its ``source``."""

    source: Any

    @property
    def inputs(self) -> tuple[Any, ...]:
        return (self.source,)


@dataclass
class ScanOp:
    """A placed selection: which fragments, which access method."""

    relation: Any
    predicate: object
    path: AccessPath
    sites: list[int]
    schema: Schema
    estimated_matches: float
    op_id: str = "scan"
    placement: Placement = field(default=Placement("disk-sites"))

    @property
    def inputs(self) -> tuple[Any, ...]:
        return ()

    @property
    def estimated_rows(self) -> float:
        return self.estimated_matches

    def describe(self) -> str:
        return (
            f"scan({self.relation.name}, {self.path.value},"
            f" sites={len(self.sites)})"
        )


@dataclass
class ProjectOp(_Unary):
    """A placed projection (streaming, or hash-partitioned dedup)."""

    source: "IRNode"
    exchange: Exchange
    positions: list[int]
    unique: bool
    schema: Schema
    op_id: str = "project"
    placement: Placement = field(default=Placement("diskless"))
    estimated_rows: float = 0.0

    def describe(self) -> str:
        kind = "unique" if self.unique else "stream"
        return f"project[{kind}]({self.source.describe()})"


@dataclass
class HashJoinBuildOp(_Unary):
    """The building half of a hash join: consumes the hashed build stream."""

    source: "IRNode"
    exchange: Exchange
    attr: str
    schema: Schema
    op_id: str = "join.build"

    @property
    def estimated_rows(self) -> float:
        return self.source.estimated_rows

    def describe(self) -> str:
        return self.source.describe()


@dataclass
class HashJoinProbeOp:
    """The probing half of a hash join; owns its build side.

    Keeping build and probe as one ownership pair mirrors how both the
    scheduler and the paper treat a join: "a join is logically two
    operators" activated together on the same set of processors.
    """

    build_input: HashJoinBuildOp
    source: "IRNode"
    exchange: Exchange
    attr: str
    mode: JoinMode
    schema: Schema
    op_id: str = "join"
    placement: Placement = field(default=Placement("join-sites"))

    @property
    def inputs(self) -> tuple[Any, ...]:
        return (self.build_input, self.source)

    @property
    def estimated_rows(self) -> float:
        return min(
            self.build_input.estimated_rows, self.source.estimated_rows
        )

    def describe(self) -> str:
        return (
            f"join[{self.mode.value}]({self.build_input.describe()},"
            f" {self.source.describe()})"
        )


@dataclass
class SortMergeJoinOp:
    """A sort-merge join over two redistributed (or co-located) streams."""

    left: "IRNode"
    right: "IRNode"
    left_exchange: Exchange
    right_exchange: Exchange
    left_attr: str
    right_attr: str
    mode: JoinMode
    schema: Schema
    op_id: str = "smj"
    placement: Placement = field(default=Placement("amps"))

    @property
    def inputs(self) -> tuple[Any, ...]:
        return (self.left, self.right)

    @property
    def estimated_rows(self) -> float:
        return min(self.left.estimated_rows, self.right.estimated_rows)

    def describe(self) -> str:
        return (
            f"sort-merge[{self.left_attr}]({self.left.describe()},"
            f" {self.right.describe()})"
        )


@dataclass
class AggregateOp(_Unary):
    """One aggregation stage.

    ``stage`` distinguishes the dataflow shapes: a ``grouped`` aggregate is
    one stage fed by a hash exchange on the grouping attribute; a scalar
    aggregate is two stages — every fragment folds a ``partial``
    accumulator, and a single ``combine`` fragment merges them (the
    combine's ``source`` is the partial stage).
    """

    source: "IRNode"
    exchange: Exchange
    op: str
    attr: Optional[str]
    group_by: Optional[str]
    stage: str  # "grouped" | "partial" | "combine"
    schema: Schema
    op_id: str = "agg"
    placement: Placement = field(default=Placement("diskless"))
    estimated_rows: float = 0.0

    @property
    def child(self) -> "IRNode":
        """The stream being aggregated (skips the partial stage)."""
        if self.stage == "combine":
            assert isinstance(self.source, AggregateOp)
            return self.source.source
        return self.source

    def describe(self) -> str:
        if self.stage == "partial":
            return f"agg-partial[{self.op}]({self.source.describe()})"
        grouping = f" by {self.group_by}" if self.group_by else ""
        return f"agg[{self.op}{grouping}]({self.child.describe()})"


@dataclass
class SortOp(_Unary):
    """A placed parallel sort: range slices + ordered emission chain."""

    source: "IRNode"
    exchange: Exchange  # RANGE with boundaries, or MERGE (single sorter)
    attr: str
    key_pos: int
    descending: bool
    schema: Schema
    op_id: str = "sort"
    placement: Placement = field(default=Placement("diskless"))
    estimated_rows: float = 0.0

    @property
    def boundaries(self) -> Optional[list]:
        return self.exchange.boundaries

    def describe(self) -> str:
        direction = "desc" if self.descending else "asc"
        bounds = self.exchange.boundaries
        width = (len(bounds) + 1) if bounds is not None else 1
        return (
            f"sort[{self.attr} {direction} x{width}]"
            f"({self.source.describe()})"
        )


@dataclass
class StoreOp(_Unary):
    """Materialise the result stream as a new declustered relation."""

    source: "IRNode"
    exchange: Exchange
    into: str
    schema: Schema
    op_id: str = "store"
    placement: Placement = field(default=Placement("disk-sites"))
    estimated_rows: float = 0.0

    def describe(self) -> str:
        return f"store[{self.into}]({self.source.describe()})"


@dataclass
class HostSinkOp(_Unary):
    """Merge the result stream back to the host."""

    source: "IRNode"
    exchange: Exchange
    schema: Schema
    op_id: str = "sink"
    placement: Placement = field(default=Placement("host"))
    estimated_rows: float = 0.0

    def describe(self) -> str:
        return f"host-sink({self.source.describe()})"


IRNode = Union[
    ScanOp, ProjectOp, HashJoinBuildOp, HashJoinProbeOp,
    SortMergeJoinOp, AggregateOp, SortOp, StoreOp, HostSinkOp,
]


@dataclass
class PhysicalIR:
    """The executable artifact: a sink-rooted operator DAG.

    ``root`` exposes the operator tree *below* the sink — the shape the
    optimizer tests and ``description`` strings are written against.
    """

    sink: IRNode
    into: Optional[str]
    schema: Schema
    description: str = field(default="")

    @property
    def root(self) -> IRNode:
        return self.sink.source  # type: ignore[union-attr]

    def describe(self) -> str:
        return self.sink.describe()


def walk(node: IRNode) -> Iterator[IRNode]:
    """Every node of the DAG under ``node``, itself first: pre-order, a
    node before its :attr:`inputs`, the inputs in plan order."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(current.inputs))


def ir_op_ids(ir: Any) -> set[str]:
    """Every operator id of one compiled plan (PhysicalIR or UpdateIR).

    Concurrent entry points use this to filter a shared profiler's spans
    down to the nodes one request owns.
    """
    if isinstance(ir, PhysicalIR):
        return {node.op_id for node in walk(ir.sink)}
    return {ir.op_id}


@dataclass
class UpdateIR:
    """A compiled single-tuple update (Table 3 operations).

    The compiler resolves everything decidable before execution: the
    target sites, the sites to lock (a key-attribute modify can relocate
    its tuple anywhere, so it locks the whole relation), whether the
    modify relocates, and — crucially — the home site of an append.
    Round-robin partitioning advances a cursor on every call, so the
    append site must be decided exactly once, here.
    """

    request: UpdateRequest
    relation: Any
    sites: list[int]
    lock_sites: list[int]
    relocate: bool = False
    append_site: Optional[int] = None
    op_id: str = "update"

    @property
    def description(self) -> str:
        return type(self.request).__name__


# ---------------------------------------------------------------------------
# the shared compiler
# ---------------------------------------------------------------------------


class PlanCompiler:
    """Compiles logical plans into the physical IR.

    The walk, the operator DAG shapes, and the cardinality bookkeeping are
    shared; a backend subclass supplies its conventions through the hook
    methods (``choose_path``/``choose_sites``/``selectivity`` for scans,
    ``rewrite_join``/``lower_join`` for join strategy, the ``*_placement``
    hooks for operator siting).
    """

    def __init__(
        self, config: Any, catalog: Any, skew_strategy: str = "hash"
    ) -> None:
        # Imported here: the skew module builds this module's Exchanges.
        from .skew import SKEW_STRATEGIES

        if skew_strategy not in SKEW_STRATEGIES:
            raise PlanError(
                f"unknown skew_strategy {skew_strategy!r};"
                f" expected one of {SKEW_STRATEGIES}"
            )
        self.config = config
        self.catalog = catalog
        #: The join redistribution (:data:`~repro.engine.skew.SKEW_STRATEGIES`).
        self.skew_strategy = skew_strategy
        self._op_seq = itertools.count()

    # -- entry points ---------------------------------------------------
    def plan(self, query: Query) -> PhysicalIR:
        self._op_seq = itertools.count()
        root = self.compile_node(query.root)
        sink = self.lower_sink(root, query.into)
        return PhysicalIR(
            sink=sink,
            into=query.into,
            schema=root.schema,
            description=root.describe(),
        )

    def compile_update(self, request: UpdateRequest) -> UpdateIR:
        relation = self.catalog.lookup(request.relation)
        if isinstance(request, AppendTuple):
            site = self.append_site(relation, request)
            return UpdateIR(
                request, relation, sites=[site], lock_sites=[site],
                append_site=site, op_id=self.next_id("append"),
            )
        if isinstance(request, ModifyTuple):
            relocate = self.modify_relocates(relation, request)
            sites = self.update_sites(relation, request.where)
            lock_sites = (
                list(range(relation.n_sites)) if relocate else sites
            )
            return UpdateIR(
                request, relation, sites=sites, lock_sites=lock_sites,
                relocate=relocate, op_id=self.next_id("modify"),
            )
        sites = self.update_sites(relation, request.where)
        return UpdateIR(
            request, relation, sites=sites, lock_sites=sites,
            op_id=self.next_id("delete"),
        )

    #: Prepended to every generated operator id.  Concurrent entry points
    #: set a per-request prefix (``"q3."``) so one shared profiler can
    #: attribute spans to the request that owns them; single-query plans
    #: keep the bare historical ids ("scan0", "join2", ...).
    id_prefix: str = ""

    def next_id(self, kind: str) -> str:
        return f"{self.id_prefix}{kind}{next(self._op_seq)}"

    def base_relation(self, attr: str, node: IRNode) -> Optional[Any]:
        """The base relation a plan-time sample of ``attr`` is drawn
        from: the first scan under ``node``, in :func:`walk` order, whose
        relation has the attribute."""
        for op in walk(node):
            if isinstance(op, ScanOp) and attr in op.relation.schema:
                return op.relation
        return None

    # -- the generic walk ----------------------------------------------
    def compile_node(self, node: PlanNode) -> IRNode:
        if isinstance(node, ScanNode):
            return self.lower_scan(node)
        if isinstance(node, JoinNode):
            return self._compile_join(node)
        if isinstance(node, AggregateNode):
            return self._compile_aggregate(node)
        if isinstance(node, ProjectNode):
            return self._compile_project(node)
        if isinstance(node, SortNode):
            return self._compile_sort(node)
        raise PlanError(f"unknown plan node {node!r}")

    def lower_scan(self, node: ScanNode) -> ScanOp:
        relation = self.catalog.lookup(node.relation)
        predicate = node.predicate
        est = self.selectivity(relation, predicate) * relation.num_records
        path = node.forced_path or self.choose_path(relation, predicate)
        sites = self.choose_sites(relation, predicate, path)
        return ScanOp(
            relation=relation,
            predicate=predicate,
            path=path,
            sites=sites,
            schema=relation.schema,
            estimated_matches=est,
            op_id=self.next_id("scan"),
            placement=self.scan_placement(sites),
        )

    def _compile_join(self, node: JoinNode) -> IRNode:
        node = self.rewrite_join(node)
        build = self.compile_node(node.build)
        probe = self.compile_node(node.probe)
        if node.build_attr not in build.schema:
            raise PlanError(
                f"build attribute {node.build_attr!r} not in build schema"
            )
        if node.probe_attr not in probe.schema:
            raise PlanError(
                f"probe attribute {node.probe_attr!r} not in probe schema"
            )
        return self.lower_join(node, build, probe)

    def _compile_aggregate(self, node: AggregateNode) -> IRNode:
        child = self.compile_node(node.child)
        if node.attr is not None and node.attr not in child.schema:
            raise PlanError(f"aggregate attribute {node.attr!r} unknown")
        if node.group_by is not None and node.group_by not in child.schema:
            raise PlanError(f"group-by attribute {node.group_by!r} unknown")
        return self.lower_aggregate(node, child)

    def _compile_project(self, node: ProjectNode) -> IRNode:
        child = self.compile_node(node.child)
        positions = [child.schema.position(a) for a in node.attrs]
        return self.lower_project(node, child, positions)

    def _compile_sort(self, node: SortNode) -> IRNode:
        child = self.compile_node(node.child)
        key_pos = child.schema.position(node.attr)
        return self.lower_sort(node, child, key_pos)

    # -- shared lowerings ----------------------------------------------
    def lower_join(
        self, node: JoinNode, build: IRNode, probe: IRNode
    ) -> IRNode:
        """Default strategy: a partitioned hash join — both streams are
        hash-split on their join attribute across the join sites."""
        build_op = HashJoinBuildOp(
            source=build,
            exchange=Exchange(ExchangeKind.HASH, attr=node.build_attr),
            attr=node.build_attr,
            schema=build.schema,
            op_id=self.next_id("join.build"),
        )
        return HashJoinProbeOp(
            build_input=build_op,
            source=probe,
            exchange=Exchange(ExchangeKind.HASH, attr=node.probe_attr),
            attr=node.probe_attr,
            mode=node.mode,
            schema=build.schema.concat(probe.schema),
            op_id=self.next_id("join"),
            placement=self.join_placement(node.mode),
        )

    def lower_aggregate(self, node: AggregateNode, child: IRNode) -> IRNode:
        if node.group_by is not None:
            schema = Schema([int_attr(node.group_by), int_attr(node.op)])
            return AggregateOp(
                source=child,
                exchange=Exchange(ExchangeKind.HASH, attr=node.group_by),
                op=node.op, attr=node.attr, group_by=node.group_by,
                stage="grouped", schema=schema,
                op_id=self.next_id("agg"),
                placement=self.aggregate_placement(),
                estimated_rows=child.estimated_rows,
            )
        # Scalar: every fragment folds a four-field accumulator
        # (count / sum / min / max), one combiner merges them.
        partial_schema = Schema(
            [int_attr(n) for n in ("count", "sum", "min", "max")]
        )
        partial = AggregateOp(
            source=child,
            exchange=Exchange(ExchangeKind.ROUND_ROBIN),
            op=node.op, attr=node.attr, group_by=None,
            stage="partial", schema=partial_schema,
            op_id=self.next_id("agg.part"),
            placement=self.aggregate_placement(),
            estimated_rows=child.estimated_rows,
        )
        return AggregateOp(
            source=partial,
            exchange=Exchange(ExchangeKind.MERGE),
            op=node.op, attr=node.attr, group_by=None,
            stage="combine", schema=Schema([int_attr(node.op)]),
            op_id=self.next_id("agg"),
            placement=self.aggregate_placement(),
            estimated_rows=child.estimated_rows,
        )

    def lower_project(
        self, node: ProjectNode, child: IRNode, positions: list[int]
    ) -> IRNode:
        if node.unique:
            exchange = Exchange(
                ExchangeKind.RECORD_HASH, positions=list(positions)
            )
        else:
            exchange = Exchange(ExchangeKind.ROUND_ROBIN)
        return ProjectOp(
            source=child,
            exchange=exchange,
            positions=positions,
            unique=node.unique,
            schema=child.schema.project(node.attrs),
            op_id=self.next_id("project"),
            placement=self.project_placement(),
        )

    def lower_sort(
        self, node: SortNode, child: IRNode, key_pos: int
    ) -> IRNode:
        boundaries = self.sort_boundaries(node.attr, child)
        if boundaries is None:
            exchange = Exchange(ExchangeKind.MERGE, attr=node.attr)
        else:
            exchange = Exchange(
                ExchangeKind.RANGE, attr=node.attr, boundaries=boundaries
            )
        return SortOp(
            source=child,
            exchange=exchange,
            attr=node.attr,
            key_pos=key_pos,
            descending=node.descending,
            schema=child.schema,
            op_id=self.next_id("sort"),
            placement=self.sort_placement(),
        )

    def lower_sink(self, root: IRNode, into: Optional[str]) -> IRNode:
        if into is not None:
            return StoreOp(
                source=root,
                exchange=Exchange(ExchangeKind.ROUND_ROBIN),
                into=into,
                schema=root.schema,
                op_id=self.next_id("store"),
                placement=Placement("disk-sites"),
            )
        return HostSinkOp(
            source=root,
            exchange=Exchange(ExchangeKind.MERGE),
            schema=root.schema,
            op_id=self.next_id("sink"),
            placement=Placement("host"),
        )

    # -- backend hooks --------------------------------------------------
    def selectivity(self, relation: Any, predicate: Any) -> float:
        """Fraction of tuples matching ``predicate`` (uniform fallback)."""
        return predicate.selectivity(relation.num_records)

    def choose_path(self, relation: Any, predicate: Any) -> AccessPath:
        raise NotImplementedError

    def choose_sites(
        self, relation: Any, predicate: Any, path: AccessPath
    ) -> list[int]:
        raise NotImplementedError

    def rewrite_join(self, node: JoinNode) -> JoinNode:
        """Logical rewrite hook (Gamma's selection propagation)."""
        return node

    def sort_boundaries(self, attr: str, child: IRNode) -> Optional[list]:
        """Range-split points for a parallel sort; None = single sorter."""
        return None

    def scan_placement(self, sites: list[int]) -> Placement:
        return Placement("disk-sites", sites=tuple(sites))

    def join_placement(self, mode: JoinMode) -> Placement:
        return Placement("join-sites", mode=mode)

    def aggregate_placement(self) -> Placement:
        return Placement("diskless")

    def project_placement(self) -> Placement:
        return Placement("diskless")

    def sort_placement(self) -> Placement:
        return Placement("diskless")

    # -- update hooks ---------------------------------------------------
    def append_site(self, relation: Any, request: AppendTuple) -> int:
        raise NotImplementedError

    def update_sites(self, relation: Any, where: ExactMatch) -> list[int]:
        raise NotImplementedError

    def modify_relocates(self, relation: Any, request: ModifyTuple) -> bool:
        raise NotImplementedError
