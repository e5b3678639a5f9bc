"""Tests for the multiuser workload subsystem (terminals, arrivals,
mixes, and the machine-agnostic runner)."""

import random

import pytest

from repro import GammaConfig, GammaMachine, Query, TeradataConfig
from repro.bench import run_experiment
from repro.bench.workload import EXTENSION_E3_SPEC
from repro.errors import ConfigError
from repro.teradata import TeradataMachine
from repro.workloads import (
    MixEntry,
    QueryMix,
    WorkloadSpec,
    mixed_mix,
    selection_mix,
    update_mix,
)

N = 600


def gamma():
    m = GammaMachine(GammaConfig(n_disk_sites=4, n_diskless=4))
    m.load_wisconsin("A", N, seed=5)
    m.load_wisconsin("Bp", N // 10, seed=6)
    return m


def teradata():
    m = TeradataMachine(TeradataConfig(n_amps=8))
    m.load_wisconsin("A", N, seed=5)
    m.load_wisconsin("Bp", N // 10, seed=6)
    return m


class TestSpecAndMixes:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(queries=0)
        with pytest.raises(ConfigError):
            WorkloadSpec(clients=0)
        with pytest.raises(ConfigError):
            WorkloadSpec(arrival="batch")
        with pytest.raises(ConfigError):
            WorkloadSpec(think_time=-1.0)
        with pytest.raises(ConfigError):
            WorkloadSpec(arrival="open", arrival_rate=0.0)

    def test_mpl_defaults(self):
        assert WorkloadSpec(clients=7).resolved_mpl == 7
        assert WorkloadSpec(arrival="open").resolved_mpl == 4
        assert WorkloadSpec(mpl=3).resolved_mpl == 3
        assert WorkloadSpec(mpl=3).with_mpl(9).resolved_mpl == 9

    def test_mix_validation(self):
        with pytest.raises(ConfigError):
            QueryMix("empty", [])
        with pytest.raises(ConfigError):
            MixEntry(0.0, "zero", lambda rng: Query.select("A"))

    def test_draws_cover_all_arms_and_are_seed_deterministic(self):
        mix = mixed_mix("A", "Bp", N)
        kinds = {e.kind for e in mix.entries}
        drawn = {mix.draw(random.Random(i))[0].kind for i in range(200)}
        assert drawn == kinds
        a = [mix.draw(random.Random(42))[0].kind for _ in range(5)]
        b = [mix.draw(random.Random(42))[0].kind for _ in range(5)]
        assert a == b

    def test_client_streams_are_independent_of_each_other(self):
        spec = WorkloadSpec(seed=9)
        assert (
            spec.client_rng(0).random() != spec.client_rng(1).random()
        )
        # And stable across calls.
        assert spec.client_rng(2).random() == spec.client_rng(2).random()


class TestDriveWorkload:
    def test_closed_loop_completes_every_query(self):
        spec = WorkloadSpec(queries=12, clients=3, think_time=0.1, seed=7)
        result = gamma().run_workload(selection_mix("A", N), spec)
        assert result.submitted == 12
        assert result.completed == 12
        assert result.failed == 0
        assert result.machine == "gamma"
        assert result.elapsed > 0
        assert result.throughput == pytest.approx(12 / result.elapsed)
        # Every closed-loop client actually submitted work.
        assert {r.client for r in result.records} == {0, 1, 2}
        lat = result.latency
        assert 0 < lat.p50 <= lat.p95 <= lat.p99 <= lat.max

    def test_same_spec_is_bit_identical(self):
        spec = WorkloadSpec(queries=10, clients=2, think_time=0.1, seed=3)
        a = gamma().run_workload(mixed_mix("A", "Bp", N), spec)
        b = gamma().run_workload(mixed_mix("A", "Bp", N), spec)
        assert a.to_json() == b.to_json()

    def test_teradata_runs_the_same_workload(self):
        spec = WorkloadSpec(queries=8, clients=2, think_time=0.1, seed=3)
        a = teradata().run_workload(mixed_mix("A", "Bp", N), spec)
        b = teradata().run_workload(mixed_mix("A", "Bp", N), spec)
        assert a.machine == "teradata"
        assert a.completed == 8
        assert a.to_json() == b.to_json()

    def test_open_loop_is_deterministic_and_completes(self):
        spec = WorkloadSpec(queries=10, arrival="open", arrival_rate=4.0,
                            seed=11)
        a = gamma().run_workload(selection_mix("A", N), spec)
        b = gamma().run_workload(selection_mix("A", N), spec)
        assert a.submitted == 10
        assert a.completed == 10
        assert a.arrival == "open"
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        mk = lambda seed: gamma().run_workload(
            selection_mix("A", N),
            WorkloadSpec(queries=10, clients=2, think_time=0.1, seed=seed),
        )
        assert mk(1).to_json() != mk(2).to_json()

    def test_update_mix_mutates_relation(self):
        from repro import RangePredicate

        spec = WorkloadSpec(queries=12, clients=2, think_time=0.05, seed=4)
        m = gamma()
        result = m.run_workload(update_mix("A", N), spec)
        assert result.completed == 12
        appends = result.by_kind().get("append")
        assert appends is not None and appends.count > 0
        # The appended tuples are durable: workload appends use keys far
        # above the loaded unique1 range.
        check = m.run(
            Query.select("A", RangePredicate("unique1", 1_000_000,
                                             10**12))
        )
        assert check.result_count == appends.count

    def test_admission_timeout_is_recorded_not_raised(self):
        # mpl=1 with a fast open-loop stream and a tight timeout: some
        # arrivals must give up in the admission queue, recorded as
        # AdmissionTimeout, never crashing the run.
        spec = WorkloadSpec(queries=12, arrival="open", arrival_rate=50.0,
                            mpl=1, timeout=0.05, seed=13)
        result = gamma().run_workload(selection_mix("A", N), spec)
        assert result.submitted == 12
        assert result.failed > 0
        assert result.completed + result.failed == 12
        errors = result.errors_by_type()
        assert errors.get("AdmissionTimeout", 0) == result.failed
        assert result.admission["timeouts"] == result.failed
        for r in result.records:
            if not r.ok:
                assert r.admitted is None

    def test_priority_policy_runs_clean(self):
        spec = WorkloadSpec(queries=10, clients=5, think_time=0.05,
                            mpl=1, policy="priority", seed=21)
        result = gamma().run_workload(mixed_mix("A", "Bp", N), spec)
        assert result.completed == 10
        assert result.policy == "priority"

    def test_mpl_bounds_are_respected(self):
        spec = WorkloadSpec(queries=10, clients=5, think_time=0.01,
                            mpl=2, seed=17)
        result = gamma().run_workload(selection_mix("A", N), spec)
        assert result.mpl == 2
        assert result.admission["peak_running"] <= 2

    def test_to_dict_schema(self):
        spec = WorkloadSpec(queries=6, clients=2, think_time=0.1, seed=8)
        d = gamma().run_workload(selection_mix("A", N), spec).to_dict()
        for key in ("machine", "mix", "arrival", "clients", "mpl",
                    "policy", "seed", "elapsed", "submitted", "completed",
                    "failed", "throughput", "latency", "queue_wait",
                    "service", "by_kind", "errors", "admission",
                    "records"):
            assert key in d, key
        assert len(d["records"]) == 6
        for key in ("p50", "p95", "p99", "mean", "max", "count"):
            assert key in d["latency"], key


class TestMplSweep:
    def test_sweep_is_deterministic_and_throughput_rises(self):
        def run():
            return run_experiment(
                EXTENSION_E3_SPEC, n=N, queries=16, clients=8,
                mix="selection", think_time=0.05, seed=2,
                machines=("gamma",), mpls=(1, 4),
            ).results

        a, b = run(), run()
        assert a == b
        assert [r["mpl"] for r in a] == [1, 4]
        # More concurrency, more throughput; less queueing.
        assert a[1]["throughput"] > a[0]["throughput"]
        assert a[1]["queue_wait"]["mean"] < a[0]["queue_wait"]["mean"]
