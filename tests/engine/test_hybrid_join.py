"""Tests for the parallel Hybrid hash join (the paper's announced fix)."""

from dataclasses import replace

import pytest

from repro import GammaConfig, GammaMachine
from repro.engine import JoinMode, Query, RangePredicate, ScanNode
from repro.engine.operators import join
from repro.engine.operators.join import PartitionPlan, _h2
from repro.workloads import generate_tuples


def nested_loop_join(left, right, lpos, rpos):
    index = {}
    for lt in left:
        index.setdefault(lt[lpos], []).append(lt)
    return sorted(
        lt + rt for rt in right for lt in index.get(rt[rpos], [])
    )


def hybrid_machine(join_memory=10_000_000, **kwargs):
    config = replace(
        GammaConfig(n_disk_sites=4, n_diskless=4,
                    join_memory_total=join_memory),
        **{"join_overflow": "static", **kwargs},
    )
    m = GammaMachine(config)
    m.load_wisconsin("A", 2_000, seed=21)
    m.load_wisconsin("Bprime", 500, seed=23)
    return m


class TestHybridCorrectness:
    def test_in_memory_join_matches_oracle(self):
        m = hybrid_machine()
        r = m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                             on=("unique2", "unique2"), into="o"))
        expected = nested_loop_join(
            list(generate_tuples(500, seed=23)),
            list(generate_tuples(2000, seed=21)), 1, 1,
        )
        assert sorted(m.catalog.lookup("o").records()) == expected
        assert r.result_count == 500

    def test_spilling_join_matches_oracle(self):
        m = hybrid_machine(join_memory=30_000)  # forces several partitions
        r = m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                             on=("unique2", "unique2"), into="o"))
        expected = nested_loop_join(
            list(generate_tuples(500, seed=23)),
            list(generate_tuples(2000, seed=21)), 1, 1,
        )
        assert sorted(m.catalog.lookup("o").records()) == expected
        # Planned partitions and actual overflow reactions are separate
        # reports: a well-estimated spilling join plans several
        # partitions but never actually overflows.
        assert r.max_partitions > 1
        assert r.max_overflows == 0

    def test_deep_memory_pressure_still_correct(self):
        m = hybrid_machine(join_memory=12_000)
        r = m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                             on=("unique2", "unique2"), into="o"))
        assert r.result_count == 500

    def test_with_selections(self):
        m = hybrid_machine(join_memory=30_000)
        sel = RangePredicate("unique2", 0, 99)
        r = m.run(Query.join(ScanNode("Bprime", sel), ScanNode("A"),
                             on=("unique2", "unique2"), into="o"))
        assert r.result_count == 100

    def test_local_mode(self):
        m = hybrid_machine(join_memory=30_000)
        r = m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                             on=("unique1", "unique1"),
                             mode=JoinMode.LOCAL, into="o"))
        assert r.result_count == 500

    def test_empty_build_side(self):
        m = hybrid_machine(join_memory=30_000)
        r = m.run(Query.join(
            ScanNode("Bprime", RangePredicate("unique2", -9, -1)),
            ScanNode("A"), on=("unique2", "unique2"), into="o",
        ))
        assert r.result_count == 0

    def test_bit_filters_compose(self):
        m = hybrid_machine(join_memory=30_000, use_bit_filters=True)
        r = m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                             on=("unique2", "unique2"), into="o"))
        assert r.result_count == 500


class TestHybridVsSimple:
    def _run(self, policy, join_memory):
        config = replace(
            GammaConfig(n_disk_sites=4, n_diskless=4,
                        join_memory_total=join_memory),
            join_overflow=policy,
        )
        m = GammaMachine(config)
        m.load_wisconsin("A", 4_000, seed=21)
        m.load_wisconsin("Bprime", 1_000, seed=23)
        return m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                                on=("unique2", "unique2"), into="o"))

    def test_same_answer_both_algorithms(self):
        simple = self._run("simple", 40_000)
        hybrid = self._run("static", 40_000)
        assert simple.result_count == hybrid.result_count == 1000

    def test_hybrid_wins_under_deep_pressure(self):
        simple = self._run("simple", 25_000)
        hybrid = self._run("static", 25_000)
        assert hybrid.response_time < simple.response_time

    def test_equivalent_with_ample_memory(self):
        simple = self._run("simple", 10_000_000)
        hybrid = self._run("static", 10_000_000)
        assert hybrid.response_time == pytest.approx(
            simple.response_time, rel=0.02
        )

    def test_invalid_algorithm_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            GammaConfig(join_overflow="sort-merge")


class TestPartitionPlan:
    """The pure key-space routing arithmetic, exercised directly."""

    KEYS = range(5_000)

    def test_accurate_plan_layout(self):
        plan = PartitionPlan(expected_bytes=4_000_000, capacity_bytes=1_000_000)
        assert plan.n_static == 5  # ceil(4 * 1.05)
        assert plan.fraction0 == pytest.approx(0.95 / 4)
        assert plan.static_cut == plan.fraction0
        assert plan.n_partitions == 5

    def test_routing_covers_exactly_the_planned_range(self):
        plan = PartitionPlan(4_000_000, 1_000_000)
        parts = {plan.partition_of(k) for k in self.KEYS}
        assert parts == set(range(plan.n_static))

    def test_two_partitions_rest_region_is_single_slice(self):
        # n_static == 2 exercises the min(n_static - 2, ...) clamp: the
        # whole rest region is one spool partition, even for hash values
        # at the very top of the unit interval.
        plan = PartitionPlan(1_500_000, 1_000_000)
        assert plan.n_static == 2  # ceil(1.5 * 1.05)
        assert {plan.partition_of(k) for k in self.KEYS} <= {0, 1}
        top = max(self.KEYS, key=lambda k: _h2(k, 0))
        assert _h2(top, 0) > 0.999  # effectively the 1.0 boundary
        assert plan.partition_of(top) == 1

    def test_fitting_estimate_keeps_everything_resident(self):
        plan = PartitionPlan(500, 1_000)
        assert plan.n_static == 1 and plan.fraction0 == 1.0
        assert all(plan.partition_of(k) == 0 for k in self.KEYS)

    def test_optimistic_plan_ignores_the_estimate(self):
        plan = PartitionPlan(9_999_999, 1_000, optimistic=True)
        assert plan.n_static == 1 and plan.fraction0 == 1.0
        assert all(plan.partition_of(k) == 0 for k in self.KEYS)

    def test_demote_halves_resident_region(self):
        plan = PartitionPlan(2_000_000, 1_000_000)
        before = plan.fraction0
        resident_before = {k for k in self.KEYS if plan.partition_of(k) == 0}
        cut = plan.demote()
        assert cut == pytest.approx(before / 2)
        assert plan.n_partitions == plan.n_static + 1
        resident_after = {k for k in self.KEYS if plan.partition_of(k) == 0}
        assert resident_after < resident_before
        # Every evicted key routes to the new demoted slice, and the
        # static spool partitions are untouched.
        for k in resident_before - resident_after:
            assert plan.partition_of(k) == plan.n_static

    def test_demote_bottoms_out_at_zero(self):
        plan = PartitionPlan(2_000_000, 1_000_000)
        for _ in range(60):
            plan.demote()
        assert plan.fraction0 == 0.0
        assert all(plan.partition_of(k) != 0 for k in self.KEYS)

    def test_routing_is_stable_across_demotions(self):
        # A key that routes to a static spool partition keeps that
        # partition no matter how many demotions happen later.
        plan = PartitionPlan(4_000_000, 1_000_000)
        spooled = {
            k: plan.partition_of(k) for k in self.KEYS
            if plan.partition_of(k) > 0
        }
        plan.demote()
        plan.demote()
        for k, part in spooled.items():
            assert plan.partition_of(k) == part


class TestSpillPolicies:
    def _oracle(self):
        return nested_loop_join(
            list(generate_tuples(500, seed=23)),
            list(generate_tuples(2000, seed=21)), 1, 1,
        )

    @pytest.mark.parametrize("policy", ["static", "demote", "dynamic"])
    @pytest.mark.parametrize("factor", [0.1, 1.0, 10.0])
    def test_estimate_error_never_changes_answers(self, policy, factor):
        # 10x under- and overestimates change the plan, never the join.
        m = hybrid_machine(join_memory=30_000,
                           join_overflow=policy,
                           join_estimate_factor=factor)
        m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                         on=("unique2", "unique2"), into="o"))
        assert sorted(m.catalog.lookup("o").records()) == self._oracle()

    def test_resolve_chunking_matches_in_memory_answer(self):
        # The chunk-and-rescan resolve path (static policy, memory far
        # too small for even one spooled partition) must produce the
        # same relation as the all-in-memory join.
        m = hybrid_machine(join_memory=8_000)
        m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                         on=("unique2", "unique2"), into="o"))
        assert sorted(m.catalog.lookup("o").records()) == self._oracle()

    def test_dynamic_recursion_matches_oracle(self):
        m = hybrid_machine(join_memory=8_000,
                           join_overflow="dynamic")
        r = m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                             on=("unique2", "unique2"), into="o"))
        assert sorted(m.catalog.lookup("o").records()) == self._oracle()
        assert r.max_overflows > 0  # it really did adapt

    def test_dynamic_response_independent_of_estimate(self):
        def run(factor):
            m = hybrid_machine(join_memory=20_000,
                               join_overflow="dynamic",
                               join_estimate_factor=factor)
            return m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                                    on=("unique2", "unique2"), into="o"))

        times = {run(f).response_time for f in (0.1, 1.0, 10.0)}
        assert len(times) == 1

    def test_static_and_demote_identical_without_overflow(self):
        def run(policy):
            m = hybrid_machine(join_memory=100_000,
                               join_overflow=policy)
            return m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                                    on=("unique2", "unique2"), into="o"))

        assert (run("static").response_time
                == run("demote").response_time)

    def test_recursion_depth_zero_falls_back_to_chunking(self, monkeypatch):
        monkeypatch.setattr(join, "MAX_RECURSION", 0)
        m = hybrid_machine(join_memory=8_000, join_overflow="dynamic")
        m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                         on=("unique2", "unique2"), into="o"))
        assert sorted(m.catalog.lookup("o").records()) == self._oracle()


class TestHybridConfigKnobs:
    def test_invalid_policy_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            GammaConfig(join_overflow="panic")

    def test_nonpositive_estimate_factor_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            GammaConfig(join_estimate_factor=0.0)

    def test_with_hybrid_helper(self):
        config = GammaConfig().with_hybrid(
            spill_policy="dynamic", estimate_factor=0.5)
        assert config.join_overflow == "dynamic"
        assert config.join_estimate_factor == 0.5
        # Unset knobs keep their defaults.
        default = GammaConfig().with_hybrid()
        assert default.join_overflow == "static"
        assert default.join_estimate_factor == 1.0

