"""Tests for optimizer decisions: access paths, sites, join planning."""

import pytest

from repro.engine import (
    AccessPath,
    ExactMatch,
    JoinMode,
    JoinNode,
    Query,
    RangePredicate,
    ScanNode,
    TruePredicate,
)
from repro.engine.ir import HashJoinProbeOp
from repro.engine.planner import Planner
from repro.errors import PlanError


def plan_scan(machine, predicate, relation="twok", forced=None):
    planner = Planner(machine.config, machine.catalog)
    query = Query.select(relation, predicate, forced_path=forced)
    return planner.plan(query).root


class TestAccessPathSelection:
    def test_full_scan_for_true_predicate(self, machine):
        scan = plan_scan(machine, TruePredicate())
        assert scan.path is AccessPath.FILE_SCAN

    def test_clustered_index_for_key_range(self, machine):
        scan = plan_scan(machine, RangePredicate("unique1", 0, 19))
        assert scan.path is AccessPath.CLUSTERED_INDEX

    def test_nonclustered_index_for_selective_range(self, machine):
        # 1% selection through the unique2 index.
        scan = plan_scan(machine, RangePredicate("unique2", 0, 19))
        assert scan.path is AccessPath.NONCLUSTERED_INDEX

    def test_segment_scan_for_10pct_nonclustered(self, machine):
        # "our optimizer is smart enough to choose to use a segment scan
        # for this query" — 10% through a non-clustered index loses.
        scan = plan_scan(machine, RangePredicate("unique2", 0, 199))
        assert scan.path is AccessPath.FILE_SCAN

    def test_scan_for_unindexed_attribute(self, machine):
        scan = plan_scan(machine, RangePredicate("hundred", 0, 0))
        assert scan.path is AccessPath.FILE_SCAN

    def test_clustered_exact(self, machine):
        scan = plan_scan(machine, ExactMatch("unique1", 5))
        assert scan.path is AccessPath.CLUSTERED_EXACT

    def test_nonclustered_exact(self, machine):
        scan = plan_scan(machine, ExactMatch("unique2", 5))
        assert scan.path is AccessPath.NONCLUSTERED_EXACT

    def test_forced_path_wins(self, machine):
        scan = plan_scan(
            machine, RangePredicate("unique2", 0, 19),
            forced=AccessPath.FILE_SCAN,
        )
        assert scan.path is AccessPath.FILE_SCAN


class TestSitePruning:
    def test_exact_on_partitioning_attr_uses_one_site(self, machine):
        scan = plan_scan(machine, ExactMatch("unique1", 42))
        assert len(scan.sites) == 1

    def test_exact_on_other_attr_uses_all_sites(self, machine):
        scan = plan_scan(machine, ExactMatch("unique2", 42))
        assert len(scan.sites) == machine.config.n_disk_sites

    def test_range_uses_all_sites(self, machine):
        scan = plan_scan(machine, RangePredicate("unique1", 0, 10))
        assert len(scan.sites) == machine.config.n_disk_sites


class TestJoinPlanning:
    def test_join_schema_is_concat(self, join_machine):
        planner = Planner(join_machine.config, join_machine.catalog)
        query = Query.join(
            ScanNode("Bprime"), ScanNode("A"), on=("unique2", "unique2")
        )
        plan = planner.plan(query)
        assert isinstance(plan.root, HashJoinProbeOp)
        assert len(plan.schema) == 32  # two 16-attribute Wisconsin schemas

    def test_unknown_join_attr_rejected(self, join_machine):
        planner = Planner(join_machine.config, join_machine.catalog)
        query = Query.join(ScanNode("Bprime"), ScanNode("A"), on=("zzz", "unique2"))
        with pytest.raises(PlanError):
            planner.plan(query)

    def test_join_mode_preserved(self, join_machine):
        planner = Planner(join_machine.config, join_machine.catalog)
        for mode in JoinMode:
            query = Query.join(
                ScanNode("Bprime"), ScanNode("A"),
                on=("unique2", "unique2"), mode=mode,
            )
            assert planner.plan(query).root.mode is mode

    def test_estimated_matches(self, machine):
        scan = plan_scan(machine, RangePredicate("unique1", 0, 19))
        assert scan.estimated_matches == pytest.approx(20)

    def test_plan_description_mentions_path(self, machine):
        planner = Planner(machine.config, machine.catalog)
        plan = planner.plan(Query.select("twok", RangePredicate("unique1", 0, 5)))
        assert "clustered-index" in plan.description


class TestAggregatePlanning:
    def test_group_schema(self, machine):
        planner = Planner(machine.config, machine.catalog)
        plan = planner.plan(Query.aggregate("twok", op="sum", attr="unique1",
                                            group_by="ten"))
        assert plan.schema.names() == ["ten", "sum"]

    def test_scalar_schema(self, machine):
        planner = Planner(machine.config, machine.catalog)
        plan = planner.plan(Query.aggregate("twok", op="count"))
        assert len(plan.schema) == 1

    def test_unknown_attr_rejected(self, machine):
        planner = Planner(machine.config, machine.catalog)
        with pytest.raises(PlanError):
            planner.plan(Query.aggregate("twok", op="sum", attr="zzz"))
