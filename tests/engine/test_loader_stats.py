"""Tests for timed bulk loading and catalog statistics."""

import random

import pytest

from repro import (
    GammaConfig,
    GammaMachine,
    Hashed,
    Query,
    RangePredicate,
    RoundRobin,
    UniformRange,
)
from repro.catalog import AttrStats, collect_statistics
from repro.workloads import generate_tuples, wisconsin_schema


def records(n=1_000, seed=41):
    return list(generate_tuples(n, seed=seed))


class TestTimedLoad:
    def _load(self, n=1_000, **kwargs):
        m = GammaMachine(GammaConfig(n_disk_sites=4, n_diskless=4))
        rel, result = m.load_relation_timed(
            "r", wisconsin_schema(), records(n),
            partitioning=kwargs.pop("partitioning", Hashed("unique1")),
            **kwargs,
        )
        return m, rel, result

    def test_load_takes_time_and_counts_tuples(self):
        _m, _rel, result = self._load()
        assert result.response_time > 0
        assert result.result_count == 1_000
        assert result.stats["load_packets"] > 0

    def test_loaded_relation_is_queryable(self):
        m, _rel, _res = self._load(clustered_on="unique1")
        q = m.run(Query.select("r", RangePredicate("unique1", 0, 9)))
        assert q.result_count == 10

    def test_load_time_scales_with_cardinality(self):
        _m, _rel, small = self._load(n=500)
        _m, _rel, big = self._load(n=2_000)
        assert 2.0 < big.response_time / small.response_time < 6.0

    def test_index_builds_cost_extra(self):
        _m, _rel, plain = self._load()
        _m, _rel, indexed = self._load(
            clustered_on="unique1", secondary_on=["unique2"]
        )
        assert indexed.response_time > plain.response_time
        assert indexed.stats["index_pages_built"] > 0

    def test_round_robin_strategy(self):
        m, rel, _res = self._load(partitioning=RoundRobin())
        sizes = rel.fragment_sizes()
        assert max(sizes) - min(sizes) <= 1

    def test_uniform_range_strategy(self):
        m, rel, _res = self._load(partitioning=UniformRange("unique1"))
        highs = [
            max(r[0] for r in frag.records()) for frag in rel.fragments
        ]
        assert highs == sorted(highs)

    def test_more_sites_load_faster(self):
        def load_with(sites):
            m = GammaMachine(GammaConfig(n_disk_sites=sites,
                                         n_diskless=sites))
            _rel, result = m.load_relation_timed(
                "r", wisconsin_schema(), records(2_000),
                partitioning=Hashed("unique1"), clustered_on="unique1",
            )
            return result.response_time

        # The host NIC serialises shipping, but per-site page writes and
        # index builds parallelise.
        assert load_with(8) < load_with(2)


class TestCatalogStatistics:
    def test_collected_on_load(self):
        m = GammaMachine(GammaConfig(n_disk_sites=2, n_diskless=2))
        rel = m.load_wisconsin("r", 1_000, seed=41)
        stats = rel.stats_for("unique1")
        assert stats == AttrStats(0, 999, 1000)
        assert rel.stats_for("ten").width == 10

    def test_string_attrs_have_no_stats(self):
        m = GammaMachine(GammaConfig(n_disk_sites=2, n_diskless=2))
        rel = m.load_wisconsin("r", 100, seed=41)
        assert rel.stats_for("stringu1") is None

    def test_range_selectivity(self):
        stats = AttrStats(0, 99, 100)
        assert stats.range_selectivity(0, 9) == pytest.approx(0.1)
        assert stats.range_selectivity(-50, 199) == 1.0
        assert stats.range_selectivity(500, 600) == 0.0

    def test_collect_statistics_empty(self):
        assert collect_statistics(wisconsin_schema(), []) == {}

    @pytest.mark.parametrize("seed", range(6))
    def test_collect_statistics_matches_per_attribute_reference(
        self, seed, monkeypatch
    ):
        """Field for field what one list comprehension, ``set``, ``min``
        and ``max`` per attribute gave — also past the distinct sample."""
        from repro.catalog import relation as relation_module
        from repro.storage import Schema, int_attr, string_attr

        sample = 50
        monkeypatch.setattr(relation_module, "DISTINCT_SAMPLE", sample)
        rng = random.Random(seed)
        schema = Schema([
            int_attr("a"), string_attr("s"), int_attr("b"), int_attr("c"),
        ])
        n = rng.choice([1, 7, sample, sample + 1, 4 * sample])
        rows = [
            (rng.randrange(-1000, 1000), "x", rng.randrange(5), i)
            for i in range(n)
        ]
        expected = {}
        for position, name in ((0, "a"), (2, "b"), (3, "c")):
            values = [row[position] for row in rows]
            expected[name] = AttrStats(
                minimum=min(values), maximum=max(values),
                distinct_hint=len(set(values[:sample])),
            )
        assert collect_statistics(schema, rows) == expected
        assert collect_statistics(schema, tuple(rows)) == expected

    def test_planner_uses_stats_for_derived_attrs(self):
        # 'ten' spans 0..9: a predicate ten=0 is a 10% selection, so the
        # estimate must be ~n/10, not ~1.
        from repro.engine.planner import Planner

        m = GammaMachine(GammaConfig(n_disk_sites=2, n_diskless=2))
        m.load_wisconsin("r", 1_000, seed=41)
        planner = Planner(m.config, m.catalog)
        plan = planner.plan(Query.select("r", RangePredicate("ten", 0, 0)))
        assert plan.root.estimated_matches == pytest.approx(100)
