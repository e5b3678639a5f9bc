"""Tests for split tables, bit-vector filters and ports plumbing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import BitVectorFilter
from repro.engine.split_table import Destination, SplitTable
from repro.engine.node import ExecutionContext
from repro.engine.ports import InputPort
from repro.errors import ConfigError, PlanError
from repro.hardware import GammaConfig, GammaCosts
from repro.storage import Schema, int_attr


def make_destinations(n=4):
    ctx = ExecutionContext(GammaConfig(n_disk_sites=max(n, 1), n_diskless=0))
    dests = []
    for i in range(n):
        node = ctx.disk_nodes[i]
        dests.append(Destination(node.name, InputPort(ctx, f"p{i}", node)))
    return dests


class TestSplitTable:
    def test_hash_split_routes_consistently(self):
        schema = Schema([int_attr("k")])
        table = SplitTable.by_hash(make_destinations(), schema, "k", GammaCosts())
        for v in range(200):
            assert table.route((v,)) == table.route((v,))
            assert 0 <= table.route((v,)) < 4

    def test_hash_split_spreads(self):
        schema = Schema([int_attr("k")])
        table = SplitTable.by_hash(make_destinations(), schema, "k", GammaCosts())
        counts = [0] * 4
        for v in range(4000):
            counts[table.route((v,))] += 1
        assert max(counts) < 1.3 * min(counts)

    def test_round_robin_cycles(self):
        table = SplitTable.round_robin(make_destinations())
        assert [table.route((i,)) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_single_always_zero(self):
        table = SplitTable.single(make_destinations(1)[0])
        assert table.route((99,)) == 0

    def test_empty_destinations_rejected(self):
        with pytest.raises(PlanError):
            SplitTable.round_robin([])

    def test_bit_filter_drops_nonmembers(self):
        schema = Schema([int_attr("k")])
        bf = BitVectorFilter()
        for v in range(50):
            bf.add(v)
        table = SplitTable.by_hash(
            make_destinations(), schema, "k", GammaCosts(), bit_filter=bf
        )
        # members always route; non-members mostly dropped (None).
        assert all(table.route((v,)) is not None for v in range(50))
        dropped = sum(
            1 for v in range(10_000, 20_000) if table.route((v,)) is None
        )
        assert dropped > 9000


class TestBitVectorFilter:
    def test_no_false_negatives(self):
        bf = BitVectorFilter()
        values = list(range(0, 5000, 7))
        for v in values:
            bf.add(v)
        assert all(bf.might_contain(v) for v in values)

    def test_low_false_positive_rate(self):
        bf = BitVectorFilter(n_bits=1 << 16)
        for v in range(1000):
            bf.add(v)
        fps = sum(1 for v in range(100_000, 110_000) if bf.might_contain(v))
        assert fps < 1000  # well under 10%

    def test_union(self):
        a = BitVectorFilter()
        b = BitVectorFilter()
        a.add(1)
        b.add(2)
        a.union(b)
        assert a.might_contain(1) and a.might_contain(2)

    def test_union_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            BitVectorFilter(n_bits=1024).union(BitVectorFilter(n_bits=2048))

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigError):
            BitVectorFilter(n_bits=4)
        with pytest.raises(ConfigError):
            BitVectorFilter(n_hashes=0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(), max_size=200))
    def test_property_membership_superset(self, values):
        bf = BitVectorFilter()
        for v in values:
            bf.add(v)
        assert all(bf.might_contain(v) for v in values)


class TestTupleConservation:
    """Every tuple routed through a split table lands at exactly one port."""

    @settings(max_examples=20, deadline=None)
    @given(
        n_dests=st.integers(min_value=1, max_value=8),
        n_tuples=st.integers(min_value=0, max_value=500),
        kind=st.sampled_from(["hash", "rr"]),
    )
    def test_property_conservation(self, n_dests, n_tuples, kind):
        schema = Schema([int_attr("k")])
        dests = make_destinations(max(n_dests, 1))[:n_dests]
        if kind == "hash":
            table = SplitTable.by_hash(dests, schema, "k", GammaCosts())
        else:
            table = SplitTable.round_robin(dests)
        counts = [0] * n_dests
        for idx in table.route_batch([(v,) for v in range(n_tuples)]):
            assert idx is not None
            counts[idx] += 1
        assert sum(counts) == n_tuples
