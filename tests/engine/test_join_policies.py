"""The hash join's four overflow policies against a plain dict join.

One operator runs ``simple``, ``static``, ``demote`` and ``dynamic``; every
one of them must return exactly the multiset a Python dict join returns,
whatever the memory budget, machine size, estimate error, bit filters or
join mode, and a build side that can never fit must end in a named error
or the right answer — never a hang.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import GammaConfig, GammaMachine
from repro.engine import JoinMode, Query, ScanNode
from repro.engine.operators import join
from repro.errors import ExecutionError, SimulationError
from repro.hardware.configs import JOIN_OVERFLOW_POLICIES
from repro.storage import Schema, int_attr
from repro.workloads import generate_tuples
from repro.workloads.wisconsin import wisconsin_schema

BUILD_ROWS, PROBE_ROWS = 200, 600


def dict_join(build, probe, pos):
    table = {}
    for b in build:
        table.setdefault(b[pos], []).append(b)
    return sorted(b + p for p in probe for b in table.get(p[pos], ()))


class TestOneKeyBuildSide:
    """Every build tuple has the same key and memory holds about one."""

    SCHEMA = Schema([int_attr("k"), int_attr("v")])
    BUILD = [(7, i) for i in range(60)]
    PROBE = [(i % 10, i) for i in range(20)]

    def _run(self, policy):
        m = GammaMachine(GammaConfig(
            n_disk_sites=2, n_diskless=2, join_memory_total=300,
            join_overflow=policy,
        ))
        m.load_relation("B", self.SCHEMA, self.BUILD)
        m.load_relation("P", self.SCHEMA, self.PROBE)
        result = m.run(Query.join(ScanNode("B"), ScanNode("P"),
                                  on=("k", "k"), into="o"))
        return m, result

    def test_simple_gives_up_after_the_round_bound(self, monkeypatch):
        # Simple evicts and re-spools the one bucket every generation:
        # MAX_OVERFLOW_ROUNDS ends it with a named error.
        rounds = []
        resolve = join.resolve_round

        def counted(ctx, state, *args):
            rounds.append(state.index)
            return resolve(ctx, state, *args)

        monkeypatch.setattr(join, "resolve_round", counted)
        monkeypatch.setattr(join, "MAX_OVERFLOW_ROUNDS", 5)
        with pytest.raises(SimulationError) as info:
            self._run("simple")
        assert isinstance(info.value.__cause__, ExecutionError)
        assert "did not converge" in str(info.value.__cause__)
        assert len(rounds) == 4 * 2  # rounds 2..5 on both join nodes

    @pytest.mark.parametrize("policy, overflows", [
        ("static", [0, 1]), ("demote", [0, 3]), ("dynamic", [0, 7]),
    ])
    def test_hybrid_policies_chunk_to_the_right_answer(self, policy,
                                                      overflows):
        m, result = self._run(policy)
        assert sorted(m.catalog.lookup("o").records()) == dict_join(
            self.BUILD, self.PROBE, 0)
        assert result.overflows_per_node == overflows


def _join(policy, factor, ratio, sites, filters, mode, attr):
    """Run one generated cell; returns (rows, hash_overflows)."""
    entry_bytes = wisconsin_schema().tuple_bytes * 1.2
    # A bucket larger than a node's memory fits under no policy, so the
    # budget is floored at four table entries per join node.
    memory = max(int(ratio * BUILD_ROWS * entry_bytes),
                 int(4 * entry_bytes * sites))
    m = GammaMachine(GammaConfig(
        n_disk_sites=sites, n_diskless=sites, join_memory_total=memory,
        use_bit_filters=filters, join_overflow=policy,
        join_estimate_factor=factor,
    ))
    m.load_wisconsin("A", PROBE_ROWS, seed=21)
    m.load_wisconsin("B", BUILD_ROWS, seed=23)
    result = m.run(Query.join(ScanNode("B"), ScanNode("A"), on=(attr, attr),
                              mode=mode, into="o"))
    return sorted(m.catalog.lookup("o").records()), result.stats.get(
        "hash_overflows", 0)


@pytest.mark.parametrize("policy", JOIN_OVERFLOW_POLICIES)
def test_every_policy_joins_like_a_dict(policy):
    overflowed = []
    pos = wisconsin_schema().position

    @settings(max_examples=12, deadline=None, derandomize=True,
              database=None)
    @given(
        factor=st.floats(0.1, 10.0),
        ratio=st.floats(0.1, 1.5),
        sites=st.integers(2, 16),
        filters=st.booleans(),
        mode=st.sampled_from([JoinMode.LOCAL, JoinMode.REMOTE]),
        attr=st.sampled_from(["unique1", "unique2", "hundred"]),
    )
    # Underestimated and far too small: every policy really overflows.
    @example(factor=0.25, ratio=0.2, sites=4, filters=True,
             mode=JoinMode.REMOTE, attr="unique2")
    def check(factor, ratio, sites, filters, mode, attr):
        rows, overflows = _join(policy, factor, ratio, sites, filters,
                                mode, attr)
        expected = dict_join(
            list(generate_tuples(BUILD_ROWS, seed=23)),
            list(generate_tuples(PROBE_ROWS, seed=21)), pos(attr),
        )
        assert rows == expected
        overflowed.append(overflows > 0)

    check()
    assert any(overflowed)


@pytest.mark.parametrize("memory", [30_000, 8_000])
@pytest.mark.parametrize("policy", JOIN_OVERFLOW_POLICIES)
def test_hash_overflows_counts_every_node_reaction(policy, memory):
    # The query's counter and the per-node list count the same reactions,
    # extra resolve chunks included.  A 4x underestimate makes every
    # policy react.
    m = GammaMachine(GammaConfig(
        n_disk_sites=4, n_diskless=4, join_memory_total=memory,
        join_overflow=policy, join_estimate_factor=0.25,
    ))
    m.load_wisconsin("A", 2_000, seed=21)
    m.load_wisconsin("Bprime", 500, seed=23)
    result = m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                              on=("unique2", "unique2"), into="o"))
    assert sum(result.overflows_per_node) > 0
    assert result.stats["hash_overflows"] == sum(result.overflows_per_node)
