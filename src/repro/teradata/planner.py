"""The Teradata DBC/1012 query planner: release 2.3 conventions over the
shared physical IR.

The same :class:`~repro.engine.ir.PlanCompiler` walk that produces Gamma
plans produces Teradata plans; this subclass supplies what the DBC/1012
software actually did:

* **hash-addressed exact match** — an equality predicate on the primary
  (partitioning) key goes to exactly one AMP;
* **dense, hash-ordered secondary indexes** — an index range selection
  must scan the *whole* index (the rows are in hash order, not key
  order), so the optimizer compares that full-scan-plus-random-fetches
  cost against a plain file scan (the Table 1 row-3 behaviour);
* **sort-merge joins over spool files** — both inputs are redistributed
  through the Y-net by hashing the join attribute, except that a base
  relation joined on its primary key is already partitioned correctly
  and ships nothing (Table 2 rows 4-6's 25-50 % gain);
* **no selection propagation** — the rewrite hook stays the identity,
  which is why Teradata runs joinAselB *slower* than joinABprime while
  Gamma runs it faster.
"""

from __future__ import annotations

from typing import Any, Optional

from ..engine.ir import (
    Exchange,
    ExchangeKind,
    IRNode,
    Placement,
    PlanCompiler,
    ScanOp,
    SortMergeJoinOp,
)
from ..engine.plan import (
    AccessPath,
    AppendTuple,
    ExactMatch,
    JoinNode,
    ModifyTuple,
    ProjectNode,
    RangePredicate,
    SortNode,
)
from ..engine.skew import join_exchanges
from ..errors import PlanError
from .costs import TeradataCosts


class TeradataPlanner(PlanCompiler):
    """Compiles logical plans into DBC/1012-convention physical IR.

    ``skew_strategy`` selects the spool redistribution for joins where
    *both* sides must cross the Y-net: ``"hash"`` (the default
    hash-the-join-attribute), ``"range"``, ``"vhash"`` or
    ``"hot-broadcast"`` — the same statistics as the Gamma planner (see
    :mod:`repro.engine.skew`).  A side consumed in place (``LOCAL``, the
    primary-key shortcut) pins the other side to plain hashing: the
    stored fragments are already hash-partitioned, so any other split of
    the shipped side would misalign the merge.
    """

    def __init__(
        self,
        config: Any,
        catalog: Any,
        costs: TeradataCosts,
        skew_strategy: str = "hash",
    ) -> None:
        super().__init__(config, catalog, skew_strategy)
        self.costs = costs

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def choose_path(self, relation: Any, predicate: Any) -> AccessPath:
        if (
            isinstance(predicate, ExactMatch)
            and predicate.attr == relation.key_attr
        ):
            # Hash-addressed single-tuple retrieval: one AMP, one access.
            return AccessPath.CLUSTERED_EXACT
        attr = getattr(predicate, "attr", None)
        if attr in relation.indexed_attrs():
            if isinstance(predicate, ExactMatch):
                return AccessPath.NONCLUSTERED_EXACT
            if isinstance(predicate, RangePredicate) and self._index_wins(
                relation, predicate
            ):
                return AccessPath.NONCLUSTERED_INDEX
        return AccessPath.FILE_SCAN

    def _index_wins(self, relation: Any, predicate: RangePredicate) -> bool:
        """Cost comparison between a full dense-index scan plus random
        fetches and a plain file scan.  Because the index rows are hashed
        (never key-sorted), the whole index is always read."""
        cpu = self.config.cpu
        disk = self.config.disk
        n = relation.num_records
        per_amp = n / self.config.n_amps
        frag = relation.fragments[0]
        index = frag.indexes[predicate.attr]
        sel = predicate.selectivity(n)
        index_cost = (
            index.num_pages * disk.sequential_access_time(self.config.page_size)
            + per_amp * cpu.time_for(self.costs.index_entry)
            + sel * per_amp * disk.random_access_time(self.config.page_size)
        )
        scan_cost = (
            frag.num_pages * disk.sequential_access_time(self.config.page_size)
            + per_amp * cpu.time_for(self.costs.scan_tuple)
        )
        return index_cost < scan_cost

    def choose_sites(
        self, relation: Any, predicate: Any, path: AccessPath
    ) -> list[int]:
        if path is AccessPath.CLUSTERED_EXACT:
            assert isinstance(predicate, ExactMatch)
            return [relation.amp_of_key(predicate.value, self.config.n_amps)]
        return list(range(self.config.n_amps))

    def scan_placement(self, sites: list[int]) -> Placement:
        return Placement("amps", sites=tuple(sites))

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def lower_join(
        self, node: JoinNode, build: IRNode, probe: IRNode
    ) -> IRNode:
        """A sort-merge join over two spool-file streams, each either
        redistributed by hashing the join attribute or (for a base
        relation joined on its primary key) consumed in place."""
        left_exchange = self._join_exchange(build, node.build_attr)
        right_exchange = self._join_exchange(probe, node.probe_attr)
        if (
            self.skew_strategy != "hash"
            and left_exchange.kind is ExchangeKind.HASH
            and right_exchange.kind is ExchangeKind.HASH
        ):
            exchanges = join_exchanges(
                self.skew_strategy, node.build_attr, node.probe_attr,
                self.base_relation(node.probe_attr, probe),
                self.config.n_amps,
            )
            if exchanges is not None:
                left_exchange, right_exchange = exchanges
        return SortMergeJoinOp(
            left=build,
            right=probe,
            left_exchange=left_exchange,
            right_exchange=right_exchange,
            left_attr=node.build_attr,
            right_attr=node.probe_attr,
            mode=node.mode,
            schema=build.schema.concat(probe.schema),
            op_id=self.next_id("smj"),
            placement=Placement("amps"),
        )

    def _join_exchange(self, side: IRNode, attr: str) -> Exchange:
        if (
            isinstance(side, ScanOp)
            and attr == side.relation.key_attr
        ):
            return Exchange(ExchangeKind.LOCAL, attr=attr)
        return Exchange(ExchangeKind.HASH, attr=attr)

    # ------------------------------------------------------------------
    # aggregates / unsupported shapes
    # ------------------------------------------------------------------
    def aggregate_placement(self) -> Placement:
        return Placement("amps")

    def lower_aggregate(self, node: Any, child: IRNode) -> IRNode:
        agg = super().lower_aggregate(node, child)
        if getattr(agg, "stage", None) == "combine":
            # Scalar partials fold in place on each AMP (no round-robin
            # spray to diskless processors — there are none); only the
            # four-field accumulators cross the Y-net to the combiner.
            agg.source.exchange = Exchange(ExchangeKind.LOCAL)
        return agg

    def lower_project(
        self, node: ProjectNode, child: IRNode, positions: list[int]
    ) -> IRNode:
        raise PlanError("Teradata model cannot execute projections")

    def lower_sort(
        self, node: SortNode, child: IRNode, key_pos: int
    ) -> IRNode:
        raise PlanError("Teradata model cannot execute sorts")

    def lower_sink(self, root: IRNode, into: Optional[str]) -> IRNode:
        sink = super().lower_sink(root, into)
        if into is not None:
            # Result tuples are hash-addressed on the result table's
            # first attribute (its primary key) — not round-robin.
            sink.exchange = Exchange(
                ExchangeKind.HASH, attr=root.schema.names()[0]
            )
        return sink

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def append_site(self, relation: Any, request: AppendTuple) -> int:
        key_pos = relation.schema.position(relation.key_attr)
        return relation.amp_of_key(
            request.record[key_pos], self.config.n_amps
        )

    def update_sites(self, relation: Any, where: ExactMatch) -> list[int]:
        if where.attr == relation.key_attr:
            return [relation.amp_of_key(where.value, self.config.n_amps)]
        return list(range(self.config.n_amps))

    def modify_relocates(self, relation: Any, request: ModifyTuple) -> bool:
        return request.attr == relation.key_attr


__all__ = ["TeradataPlanner"]
