"""Tests for predicates, plan nodes and the Query constructors."""

import pytest

from repro.engine import (
    AggregateNode,
    ExactMatch,
    JoinMode,
    JoinNode,
    Query,
    RangePredicate,
    ScanNode,
    TruePredicate,
)
from repro.errors import PlanError
from repro.storage import Schema, int_attr


def schema():
    return Schema([int_attr("a"), int_attr("b")])


class TestPredicates:
    def test_true_predicate_matches_all(self):
        records = [(1, 2), (-5, 0)]
        assert TruePredicate().compile_batch(schema())(records) == records
        assert TruePredicate().selectivity(100) == 1.0

    def test_range_inclusive(self):
        pred = RangePredicate("a", 5, 10).compile_batch(schema())
        records = [(4, 0), (5, 0), (10, 0), (11, 0)]
        assert pred(records) == [r for r in records if 5 <= r[0] <= 10]
        assert pred(records) == [(5, 0), (10, 0)]

    def test_range_selectivity_uniform_estimate(self):
        assert RangePredicate("a", 0, 99).selectivity(10_000) == pytest.approx(0.01)
        assert RangePredicate("a", 0, 999).selectivity(1_000) == 1.0

    def test_range_selectivity_clamped(self):
        assert RangePredicate("a", 0, 10**9).selectivity(100) == 1.0
        assert RangePredicate("a", 10, 5).selectivity(100) == 0.0

    def test_exact_match(self):
        pred = ExactMatch("b", 7).compile_batch(schema())
        assert pred([(0, 7), (7, 0), (1, 7)]) == [(0, 7), (1, 7)]
        assert ExactMatch("b", 7).selectivity(1000) == pytest.approx(0.001)

    def test_unknown_attribute_raises_on_compile(self):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            RangePredicate("zzz", 0, 1).compile_batch(schema())

    def test_describe(self):
        assert "a" in RangePredicate("a", 0, 1).describe()
        assert "=" in ExactMatch("a", 1).describe()

    def test_describe_round_trips_bounds_and_value(self):
        assert RangePredicate("a", 5, 9).describe() == "5 <= a <= 9"
        assert ExactMatch("b", 7).describe() == "b = 7"


class TestQueryConstructors:
    def test_select(self):
        q = Query.select("r", RangePredicate("a", 0, 1), into="out")
        assert isinstance(q.root, ScanNode)
        assert q.into == "out"

    def test_join_defaults_remote(self):
        q = Query.join(ScanNode("b"), ScanNode("p"), on=("a", "a"))
        assert isinstance(q.root, JoinNode)
        assert q.root.mode is JoinMode.REMOTE

    def test_aggregate_validation(self):
        with pytest.raises(PlanError):
            Query.aggregate("r", op="median")
        with pytest.raises(PlanError):
            Query.aggregate("r", op="sum")  # sum needs an attribute

    def test_count_needs_no_attribute(self):
        q = Query.aggregate("r", op="count")
        assert isinstance(q.root, AggregateNode)

    def test_children(self):
        join = JoinNode(ScanNode("b"), ScanNode("p"), "a", "a")
        assert len(join.children()) == 2
        assert ScanNode("r").children() == []
        assert len(AggregateNode(ScanNode("r"), "count").children()) == 1

    def test_empty_projection_rejected(self):
        with pytest.raises(PlanError):
            Query.select("r", project=[])
