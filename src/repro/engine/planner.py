"""Gamma's query optimizer: access-path selection and operator placement.

Gamma "uses traditional relational techniques for query parsing,
optimization [SELI79], and code generation".  The shared compiler walk and
the physical IR live in :mod:`repro.engine.ir`; this module supplies the
conventions that make the output a *Gamma* plan:

* **access path** — clustered index whenever the predicate is on the
  clustered attribute; non-clustered index only when the estimated number
  of random data-page reads is cheaper than a full sequential scan (this
  is why the optimizer "is smart enough to choose a segment scan" for the
  10 % non-clustered selection);
* **single-site exact match** — an equality predicate on the partitioning
  attribute is sent to exactly one processor;
* **selection propagation** — a range predicate on one side's join
  attribute is propagated to the other side (joinAselB → joinselAselB);
* **join placement** — Local / Remote / Allnodes per the query's
  :class:`~repro.engine.plan.JoinMode`.
"""

from __future__ import annotations

from typing import Optional

from ..catalog import Relation
from ..errors import PlanError
from .ir import (
    AggregateOp,
    Exchange,
    ExchangeKind,
    HashJoinBuildOp,
    HashJoinProbeOp,
    HostSinkOp,
    IRNode,
    PhysicalIR,
    Placement,
    PlanCompiler,
    ProjectOp,
    ScanOp,
    SortOp,
    StoreOp,
    UpdateIR,
)
from .plan import (
    AccessPath,
    AppendTuple,
    ExactMatch,
    JoinNode,
    ModifyTuple,
    PlanNode,
    RangePredicate,
    ScanNode,
    TruePredicate,
)
from .skew import join_exchanges, sample


class Planner(PlanCompiler):
    """Compiles logical :class:`~repro.engine.plan.Query` trees into
    Gamma-convention physical IR.

    ``skew_strategy`` selects the join redistribution: ``"hash"`` (the
    paper's plain split table), ``"range"`` (histogram-driven range
    splits), ``"vhash"`` (virtual-processor hashing: over-partition into
    V buckets and bin-pack the V buckets onto the join sites by sampled
    load), or ``"hot-broadcast"`` (fragment-replicate: detected hot keys
    are broadcast on the build side and round-robined on the probe side).
    Everything except ``"hash"`` samples the probe side's base relation
    at plan time, the same way :meth:`sort_boundaries` does.
    """

    def fragments(self, placement: Placement) -> int:
        """How many fragments ``placement`` runs on: its
        :meth:`~repro.engine.ir.Placement.pools`, counted on this
        configuration."""
        width = {
            "disk": self.config.n_disk_sites,
            "diskless": self.config.n_diskless,
            "host": 1,
        }
        pools = placement.pools(bool(self.config.n_diskless))
        return sum(width[pool] for pool in pools)

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def selectivity(self, relation: Relation, predicate: object) -> float:
        """Selectivity estimate, preferring load-time catalog statistics
        over the uniform-over-cardinality fallback."""
        if isinstance(predicate, RangePredicate):
            stats = relation.stats_for(predicate.attr)
            if stats is not None:
                return stats.range_selectivity(predicate.low, predicate.high)
        if isinstance(predicate, ExactMatch):
            stats = relation.stats_for(predicate.attr)
            if stats is not None and stats.distinct_hint > 0:
                return 1.0 / stats.distinct_hint
        return predicate.selectivity(relation.num_records)

    def choose_path(self, relation: Relation, predicate: object) -> AccessPath:
        if isinstance(predicate, TruePredicate):
            return AccessPath.FILE_SCAN
        if isinstance(predicate, ExactMatch):
            if predicate.attr == relation.clustered_on:
                return AccessPath.CLUSTERED_EXACT
            if predicate.attr in relation.fragments[0].secondary:
                return AccessPath.NONCLUSTERED_EXACT
            return AccessPath.FILE_SCAN
        if isinstance(predicate, RangePredicate):
            if predicate.attr == relation.clustered_on:
                return AccessPath.CLUSTERED_INDEX
            if predicate.attr in relation.fragments[0].secondary:
                if self._nonclustered_wins(relation, predicate):
                    return AccessPath.NONCLUSTERED_INDEX
            return AccessPath.FILE_SCAN
        raise PlanError(f"unknown predicate {predicate!r}")

    def _nonclustered_wins(
        self, relation: Relation, predicate: RangePredicate
    ) -> bool:
        """Selinger-style I/O comparison: random fetches vs a full scan.

        Each qualifying tuple costs one random data-page read through a
        non-clustered index; a segment scan streams every page at the
        sequential rate.  The 1 % selection wins with the index, the 10 %
        selection loses — matching Table 1 and the paper's remark that "our
        optimizer is smart enough to choose a segment scan for this query".
        """
        disk = self.config.disk
        page = self.config.page_size
        n_sites = max(1, relation.n_sites)
        matches_per_site = (
            self.selectivity(relation, predicate)
            * relation.num_records / n_sites
        )
        pages_per_site = relation.num_pages / n_sites
        index_cost = matches_per_site * disk.random_access_time(page)
        scan_cost = pages_per_site * disk.sequential_access_time(page)
        return index_cost < scan_cost

    def choose_sites(
        self, relation: Relation, predicate: object, path: AccessPath
    ) -> list[int]:
        all_sites = list(range(relation.n_sites))
        part_attr = getattr(relation.partitioning, "attr", None)
        if isinstance(predicate, ExactMatch) and predicate.attr == part_attr:
            site = relation.partitioning.site_for_key(
                predicate.value, relation.n_sites
            )
            if site is not None:
                return [site]
        if (
            isinstance(predicate, RangePredicate)
            and predicate.attr == part_attr
        ):
            # Range declustering lets the scheduler activate only the
            # sites whose key range intersects the predicate.
            sites = relation.partitioning.sites_for_range(
                predicate.low, predicate.high, relation.n_sites
            )
            if sites is not None:
                return sites
        return all_sites

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def rewrite_join(self, node: JoinNode) -> JoinNode:
        """Selection propagation across an equi-join.

        A range predicate on one side's join attribute implies the same
        range on the other side's join attribute.  This is the rewrite the
        paper describes: "Selection propagation by the Gamma optimizer
        reduces joinAselB to joinselAselB", which is why Gamma runs
        joinAselB *faster* than joinABprime while Teradata runs it slower.
        """

        def range_on(child: PlanNode, attr: str) -> Optional[RangePredicate]:
            if (
                isinstance(child, ScanNode)
                and isinstance(child.predicate, RangePredicate)
                and child.predicate.attr == attr
            ):
                return child.predicate
            return None

        def is_unfiltered_scan(child: PlanNode) -> bool:
            return isinstance(child, ScanNode) and isinstance(
                child.predicate, TruePredicate
            )

        build_pred = range_on(node.build, node.build_attr)
        probe_pred = range_on(node.probe, node.probe_attr)
        if build_pred is not None and is_unfiltered_scan(node.probe):
            assert isinstance(node.probe, ScanNode)
            new_probe = ScanNode(
                node.probe.relation,
                RangePredicate(node.probe_attr, build_pred.low, build_pred.high),
                node.probe.forced_path,
            )
            return JoinNode(node.build, new_probe, node.build_attr,
                            node.probe_attr, node.mode)
        if probe_pred is not None and is_unfiltered_scan(node.build):
            assert isinstance(node.build, ScanNode)
            new_build = ScanNode(
                node.build.relation,
                RangePredicate(node.build_attr, probe_pred.low, probe_pred.high),
                node.build.forced_path,
            )
            return JoinNode(new_build, node.probe, node.build_attr,
                            node.probe_attr, node.mode)
        return node

    def lower_join(
        self, node: JoinNode, build: IRNode, probe: IRNode
    ) -> IRNode:
        """The default partitioned hash join, with the skew-aware
        redistribution installed on both exchange edges when a non-hash
        strategy is selected (and its statistics are derivable)."""
        joined = super().lower_join(node, build, probe)
        if self.skew_strategy == "hash":
            return joined
        assert isinstance(joined, HashJoinProbeOp)
        exchanges = join_exchanges(
            self.skew_strategy, node.build_attr, node.probe_attr,
            self.base_relation(node.probe_attr, probe),
            self.fragments(joined.placement),
        )
        if exchanges is not None:
            joined.build_input.exchange, joined.exchange = exchanges
        return joined

    # ------------------------------------------------------------------
    # sorts
    # ------------------------------------------------------------------
    def sort_boundaries(self, attr: str, child: IRNode) -> Optional[list]:
        """Range-slice boundaries from catalog statistics.

        The optimizer samples the base relation holding ``attr`` (the
        statistics a Selinger-style catalog keeps); without a base source
        for the attribute the sort degrades to one sorter node — always
        correct, just unparallel.  The cut points are
        ``sample[len * i // n]``, one element past
        :func:`~repro.engine.skew.histogram_boundaries`' cut.
        """
        n_sorters = self.fragments(self.sort_placement())
        if n_sorters == 1:
            return None
        relation = self.base_relation(attr, child)
        if relation is None:
            return None
        values = sorted(sample(relation, attr))
        if len(values) < n_sorters:
            return None
        return [
            values[(len(values) * i) // n_sorters]
            for i in range(1, n_sorters)
        ]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def append_site(self, relation: Relation, request: AppendTuple) -> int:
        # Decide the home site exactly once (round-robin strategies
        # advance a cursor on every call).
        return relation.partitioning.site_of(request.record, relation.n_sites)

    def update_sites(self, relation: Relation, where: ExactMatch) -> list[int]:
        part_attr = getattr(relation.partitioning, "attr", None)
        if where.attr == part_attr:
            site = relation.partitioning.site_for_key(
                where.value, relation.n_sites
            )
            if site is not None:
                return [site]
        return list(range(relation.n_sites))

    def modify_relocates(
        self, relation: Relation, request: ModifyTuple
    ) -> bool:
        part_attr = getattr(relation.partitioning, "attr", None)
        return request.attr == part_attr or (
            request.attr == relation.clustered_on
        )


__all__ = [
    "AggregateOp",
    "Exchange",
    "ExchangeKind",
    "HashJoinBuildOp",
    "HashJoinProbeOp",
    "HostSinkOp",
    "IRNode",
    "PhysicalIR",
    "Placement",
    "PlanCompiler",
    "Planner",
    "ProjectOp",
    "ScanOp",
    "SortOp",
    "StoreOp",
    "UpdateIR",
]
