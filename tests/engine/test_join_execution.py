"""End-to-end join execution: answers checked against a nested-loop oracle."""

import pytest

from repro import GammaConfig, GammaMachine
from repro.engine import JoinMode, Query, RangePredicate, ScanNode
from repro.workloads import generate_tuples


def nested_loop_join(left, right, lpos, rpos):
    index = {}
    for lt in left:
        index.setdefault(lt[lpos], []).append(lt)
    out = []
    for rt in right:
        for lt in index.get(rt[rpos], []):
            out.append(lt + rt)
    return sorted(out)


def tuples(n, seed):
    return list(generate_tuples(n, seed=seed))


class TestJoinCorrectness:
    def test_join_abprime_nonkey(self, join_machine):
        r = join_machine.run(
            Query.join(ScanNode("Bprime"), ScanNode("A"),
                       on=("unique2", "unique2"), into="j1")
        )
        expected = nested_loop_join(tuples(200, 23), tuples(2000, 21), 1, 1)
        got = sorted(join_machine.catalog.lookup("j1").records())
        assert got == expected
        assert r.result_count == len(expected) == 200

    def test_join_abprime_key(self, join_machine):
        r = join_machine.run(
            Query.join(ScanNode("Bprime"), ScanNode("A"),
                       on=("unique1", "unique1"), mode=JoinMode.LOCAL, into="j2")
        )
        expected = nested_loop_join(tuples(200, 23), tuples(2000, 21), 0, 0)
        assert sorted(join_machine.catalog.lookup("j2").records()) == expected
        assert r.result_count == 200

    def test_join_with_selections(self, join_machine):
        # joinAselB: selections propagated to both inputs.
        sel = RangePredicate("unique2", 0, 199)
        r = join_machine.run(
            Query.join(
                ScanNode("B", sel), ScanNode("A", sel),
                on=("unique2", "unique2"), into="j3",
            )
        )
        a = [t for t in tuples(2000, 21) if t[1] <= 199]
        b = [t for t in tuples(2000, 22) if t[1] <= 199]
        assert r.result_count == len(nested_loop_join(b, a, 1, 1)) == 200

    def test_all_modes_same_answer(self, join_machine):
        counts = set()
        for i, mode in enumerate(JoinMode):
            r = join_machine.run(
                Query.join(ScanNode("Bprime"), ScanNode("A"),
                           on=("unique2", "unique2"), mode=mode,
                           into=f"jm{i}")
            )
            counts.add(r.result_count)
        assert counts == {200}

    def test_three_way_join_joincselaselb(self, join_machine):
        # C join (selA join selB) — the paper's joinCselAselB shape.
        sel = RangePredicate("unique2", 0, 199)
        inner = ScanNode("A", sel)
        outer = ScanNode("B", sel)
        from repro.engine import JoinNode

        q = Query.join(
            build=ScanNode("C"),
            probe=JoinNode(outer, inner, "unique2", "unique2"),
            on=("unique1", "unique1"),
            into="j5",
        )
        r = join_machine.run(q)
        a = [t for t in tuples(2000, 21) if t[1] <= 199]
        b = [t for t in tuples(2000, 22) if t[1] <= 199]
        ab = nested_loop_join(b, a, 1, 1)
        c = tuples(200, 24)
        # join attr on probe side: the B-part unique1 sits at position 0.
        expected = nested_loop_join(c, ab, 0, 0)
        assert r.result_count == len(expected)

    def test_empty_build_side(self, join_machine):
        r = join_machine.run(
            Query.join(
                ScanNode("Bprime", RangePredicate("unique2", -5, -1)),
                ScanNode("A"),
                on=("unique2", "unique2"), into="j6",
            )
        )
        assert r.result_count == 0


class TestJoinOverflow:
    def _machine(self, join_memory):
        m = GammaMachine(
            GammaConfig(n_disk_sites=4, n_diskless=4,
                        join_memory_total=join_memory)
        )
        m.load_wisconsin("A", 2_000, seed=21)
        m.load_wisconsin("Bprime", 500, seed=23)
        return m

    def test_overflow_join_still_correct(self):
        # 500 build tuples * 208B * 1.2 ≈ 125 KB >> 20 KB of memory.
        m = self._machine(20_000)
        r = m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                             on=("unique2", "unique2"), into="o"))
        expected = nested_loop_join(tuples(500, 23), tuples(2000, 21), 1, 1)
        assert sorted(m.catalog.lookup("o").records()) == expected
        assert r.max_overflows > 0

    def test_no_overflow_with_ample_memory(self):
        m = self._machine(10_000_000)
        r = m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                             on=("unique2", "unique2"), into="o"))
        assert r.max_overflows == 0
        assert r.result_count == 500

    def test_less_memory_more_overflows_slower(self):
        results = {}
        for mem in (1_000_000, 40_000, 15_000):
            m = self._machine(mem)
            r = m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                                 on=("unique2", "unique2"), into="o"))
            assert r.result_count == 500
            results[mem] = r
        assert results[15_000].max_overflows > results[40_000].max_overflows
        assert (
            results[15_000].response_time
            > results[40_000].response_time
            > results[1_000_000].response_time
        )

    def test_overflow_spool_io_counted(self):
        m = self._machine(20_000)
        r = m.run(Query.join(ScanNode("Bprime"), ScanNode("A"),
                             on=("unique2", "unique2"), into="o"))
        assert r.stats.get("spool_pages_written", 0) > 0
        assert r.stats.get("spool_pages_read", 0) > 0


class TestBitFilters:
    def test_bit_filter_same_answer_fewer_tuples_shipped(self):
        def run(use_filters):
            m = GammaMachine(
                GammaConfig(n_disk_sites=4, n_diskless=4,
                            use_bit_filters=use_filters)
            )
            m.load_wisconsin("A", 2_000, seed=21)
            m.load_wisconsin("Bprime", 100, seed=23)
            return m.run(
                Query.join(ScanNode("Bprime"), ScanNode("A"),
                           on=("unique2", "unique2"), into="o")
            )

        plain = run(False)
        filtered = run(True)
        assert plain.result_count == filtered.result_count == 100
        assert (
            filtered.stats["tuples_shipped"] < plain.stats["tuples_shipped"]
        )


class TestJoinModesTiming:
    def test_local_wins_on_partitioning_attribute(self):
        m = GammaMachine(GammaConfig(n_disk_sites=4, n_diskless=4))
        m.load_wisconsin("A", 8_000, seed=1)
        m.load_wisconsin("Bp", 800, seed=2)
        times = {}
        for mode in (JoinMode.LOCAL, JoinMode.REMOTE):
            times[mode] = m.run(
                Query.join(ScanNode("Bp"), ScanNode("A"),
                           on=("unique1", "unique1"), mode=mode, into="o")
            ).response_time
            m.drop_relation("o")
        assert times[JoinMode.LOCAL] < times[JoinMode.REMOTE]

    def test_remote_wins_on_nonpartitioning_attribute(self):
        m = GammaMachine(GammaConfig(n_disk_sites=4, n_diskless=4))
        m.load_wisconsin("A", 8_000, seed=1)
        m.load_wisconsin("Bp", 800, seed=2)
        times = {}
        for mode in (JoinMode.LOCAL, JoinMode.REMOTE):
            times[mode] = m.run(
                Query.join(ScanNode("Bp"), ScanNode("A"),
                           on=("unique2", "unique2"), mode=mode, into="o")
            ).response_time
            m.drop_relation("o")
        assert times[JoinMode.REMOTE] < times[JoinMode.LOCAL]
