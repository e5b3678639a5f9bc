"""Predicates, logical plan nodes and join placement modes.

Gamma compiles predicates "into machine language"; here they compile into
page filters over tuple positions (``compile_batch``), so filtering a
page does no name lookups, and into one compare over a fragment's int
column (``compile_column``, :mod:`repro.storage.column`), which a full
scan uses wherever it answers exactly.  Plans are small trees of
dataclass nodes; the planner (:mod:`repro.engine.planner`) turns them
into placed physical operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional, Union

from ..errors import PlanError
from ..storage import Schema
from ..storage.column import ColumnFilter, range_positions

Predicate = Union["TruePredicate", "RangePredicate", "ExactMatch"]


@dataclass(frozen=True)
class TruePredicate:
    """Matches every tuple (a 100 % selection)."""

    def compile_batch(
        self, schema: Schema
    ) -> Callable[[list[tuple]], list[tuple]]:
        """The matching records of a page.

        Callers treat the result as read-only, so the 100 % selection can
        hand the input batch back without a copy.
        """
        return lambda records: records

    def compile_column(self, schema: Schema) -> Optional[ColumnFilter]:
        """None: there is nothing to compare."""
        return None

    def selectivity(self, cardinality: int) -> float:
        return 1.0

    def describe(self) -> str:
        return "true"


@dataclass(frozen=True)
class RangePredicate:
    """``low <= attr <= high`` (inclusive, the Wisconsin range shape)."""

    attr: str
    low: Any
    high: Any

    def compile_batch(
        self, schema: Schema
    ) -> Callable[[list[tuple]], list[tuple]]:
        """The matching records of a page, in one filter pass."""
        pos = schema.position(self.attr)
        low, high = self.low, self.high

        def batch(records: list[tuple]) -> list[tuple]:
            return [r for r in records if low <= r[pos] <= high]

        return batch

    def compile_column(self, schema: Schema) -> Optional[ColumnFilter]:
        """The same filter as one compare over the attribute's column."""
        low, high = self.low, self.high
        return schema.position(self.attr), (
            lambda column: range_positions(column, low, high)
        )

    def selectivity(self, cardinality: int) -> float:
        """Uniform-distribution estimate over a unique 0..n-1 attribute.

        This is exactly the statistic Gamma's Selinger-style optimizer has
        for the Wisconsin attributes.
        """
        if cardinality <= 0:
            return 0.0
        span = self.high - self.low + 1
        return max(0.0, min(1.0, span / cardinality))

    def describe(self) -> str:
        return f"{self.low} <= {self.attr} <= {self.high}"


@dataclass(frozen=True)
class ExactMatch:
    """``attr = value`` (single-tuple operations on unique attributes)."""

    attr: str
    value: Any

    def compile_batch(
        self, schema: Schema
    ) -> Callable[[list[tuple]], list[tuple]]:
        """The matching records of a page, in one filter pass."""
        pos = schema.position(self.attr)
        value = self.value

        def batch(records: list[tuple]) -> list[tuple]:
            return [r for r in records if r[pos] == value]

        return batch

    def compile_column(self, schema: Schema) -> Optional[ColumnFilter]:
        """The same filter as one compare over the attribute's column
        (for ints, ``== value`` is ``value <= v <= value``)."""
        value = self.value
        return schema.position(self.attr), (
            lambda column: range_positions(column, value, value)
        )

    def selectivity(self, cardinality: int) -> float:
        return 1.0 / cardinality if cardinality else 0.0

    def describe(self) -> str:
        return f"{self.attr} = {self.value!r}"


class JoinMode(Enum):
    """Where the join operators run (Section 6 of the paper)."""

    LOCAL = "local"        # on the processors with disks
    REMOTE = "remote"      # on the diskless processors only
    ALLNODES = "allnodes"  # on both sets


class AccessPath(Enum):
    """Access method chosen by the optimizer for a selection."""

    FILE_SCAN = "file-scan"
    CLUSTERED_INDEX = "clustered-index"
    NONCLUSTERED_INDEX = "nonclustered-index"
    CLUSTERED_EXACT = "clustered-exact"
    NONCLUSTERED_EXACT = "nonclustered-exact"


# ---------------------------------------------------------------------------
# logical plan nodes
# ---------------------------------------------------------------------------


@dataclass
class ScanNode:
    """Select tuples of ``relation`` satisfying ``predicate``."""

    relation: str
    predicate: Predicate = field(default_factory=TruePredicate)
    forced_path: Optional[AccessPath] = None

    def children(self) -> list["PlanNode"]:
        return []


@dataclass
class JoinNode:
    """Equi-join; ``build`` is the (smaller) hashed side."""

    build: "PlanNode"
    probe: "PlanNode"
    build_attr: str
    probe_attr: str
    mode: JoinMode = JoinMode.REMOTE

    def children(self) -> list["PlanNode"]:
        return [self.build, self.probe]


@dataclass
class AggregateNode:
    """Scalar or grouped aggregate over the child stream."""

    child: "PlanNode"
    op: str  # count | sum | min | max | avg
    attr: Optional[str] = None
    group_by: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in {"count", "sum", "min", "max", "avg"}:
            raise PlanError(f"unknown aggregate op {self.op!r}")
        if self.op != "count" and self.attr is None:
            raise PlanError(f"aggregate {self.op!r} needs an attribute")

    def children(self) -> list["PlanNode"]:
        return [self.child]


@dataclass
class ProjectNode:
    """Project the child stream onto ``attrs``.

    With ``unique=True`` duplicates are eliminated — the projection
    operator Gamma runs on the diskless processors (Section 2 lists
    "join, projection, and aggregate operations" there): the stream is
    hash-partitioned on the projected attributes so each node can
    deduplicate its disjoint share locally.
    """

    child: "PlanNode"
    attrs: list[str]
    unique: bool = False

    def __post_init__(self) -> None:
        if not self.attrs:
            raise PlanError("projection needs at least one attribute")

    def children(self) -> list["PlanNode"]:
        return [self.child]


@dataclass
class SortNode:
    """Order the child stream by ``attr``.

    Gamma sorts in parallel by *range*-splitting the stream across the
    diskless processors (each takes a disjoint key slice, boundaries from
    catalog statistics), sorting its slice with WiSS's external sort, and
    emitting the slices in ascending slice order.
    """

    child: "PlanNode"
    attr: str
    descending: bool = False

    def children(self) -> list["PlanNode"]:
        return [self.child]


PlanNode = Union[ScanNode, JoinNode, AggregateNode, ProjectNode, SortNode]


@dataclass
class Query:
    """A complete request: a plan tree plus its destination.

    ``into`` names a result relation (Gamma's ``retrieve into``, stored
    round-robin across the disk sites); ``into=None`` streams result tuples
    back to the host.
    """

    root: PlanNode
    into: Optional[str] = None

    # -- convenience constructors ------------------------------------
    @staticmethod
    def select(
        relation: str,
        where: Predicate = TruePredicate(),
        into: Optional[str] = None,
        forced_path: Optional[AccessPath] = None,
        project: Optional[list[str]] = None,
        unique: bool = False,
        sort_by: Optional[str] = None,
        descending: bool = False,
    ) -> "Query":
        root: PlanNode = ScanNode(relation, where, forced_path)
        if project is not None:
            root = ProjectNode(root, project, unique=unique)
        if sort_by is not None:
            root = SortNode(root, sort_by, descending=descending)
        return Query(root, into)

    @staticmethod
    def join(
        build: PlanNode,
        probe: PlanNode,
        on: tuple[str, str],
        mode: JoinMode = JoinMode.REMOTE,
        into: Optional[str] = None,
    ) -> "Query":
        build_attr, probe_attr = on
        return Query(JoinNode(build, probe, build_attr, probe_attr, mode), into)

    @staticmethod
    def aggregate(
        relation: str,
        op: str,
        attr: Optional[str] = None,
        group_by: Optional[str] = None,
        where: Predicate = TruePredicate(),
        into: Optional[str] = None,
    ) -> "Query":
        return Query(
            AggregateNode(ScanNode(relation, where), op, attr, group_by), into
        )


# ---------------------------------------------------------------------------
# update requests (Table 3) — separate from the dataflow plan tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AppendTuple:
    """Append one tuple to a relation."""

    relation: str
    record: tuple


@dataclass(frozen=True)
class DeleteTuple:
    """Delete the single tuple matching ``where`` (located via an index
    when one exists)."""

    relation: str
    where: ExactMatch


@dataclass(frozen=True)
class ModifyTuple:
    """Set ``attr = value`` on the single tuple matching ``where``."""

    relation: str
    where: ExactMatch
    attr: str
    value: Any


UpdateRequest = Union[AppendTuple, DeleteTuple, ModifyTuple]
