"""Tests for two-phase locking and deadlock detection."""

import pytest

from repro import (
    AppendTuple,
    DeleteTuple,
    ExactMatch,
    GammaConfig,
    GammaMachine,
    ModifyTuple,
    Query,
    RangePredicate,
)
from repro.engine.locks import (
    DeadlockError,
    LockManager,
    LockMode,
    LockTimeoutError,
)
from repro.sim import Delay, Simulation
from repro.workloads import generate_tuples


def run_lock_procs(*gens):
    sim = Simulation()
    manager = LockManager(sim)
    procs = [sim.spawn(g(manager), name=f"t{i}") for i, g in enumerate(gens)]
    sim.run()
    return manager, procs


class TestLockManager:
    def test_shared_locks_coexist(self):
        order = []

        def reader(name):
            def proc(manager):
                yield from manager.acquire(name, "frag", LockMode.SHARED)
                order.append(name)
                yield Delay(1.0)
                manager.release_all(name)

            return proc

        manager, _ = run_lock_procs(reader("a"), reader("b"))
        assert sorted(order) == ["a", "b"]
        assert manager.blocks == 0

    def test_exclusive_blocks_shared(self):
        events = []

        def writer(manager):
            yield from manager.acquire("w", "frag", LockMode.EXCLUSIVE)
            events.append(("w-got", 0.0))
            yield Delay(5.0)
            manager.release_all("w")

        def reader(manager):
            yield Delay(1.0)
            yield from manager.acquire("r", "frag", LockMode.SHARED)
            events.append(("r-got", "after"))
            manager.release_all("r")

        manager, procs = run_lock_procs(writer, reader)
        assert events[0][0] == "w-got"
        assert events[1][0] == "r-got"
        assert manager.blocks == 1

    def test_fifo_queue_order(self):
        got = []

        def txn(name, delay):
            def proc(manager):
                yield Delay(delay)
                yield from manager.acquire(name, "frag", LockMode.EXCLUSIVE)
                got.append(name)
                yield Delay(1.0)
                manager.release_all(name)

            return proc

        run_lock_procs(txn("first", 0.0), txn("second", 0.1), txn("third", 0.2))
        assert got == ["first", "second", "third"]

    def test_reacquire_is_idempotent(self):
        def proc(manager):
            yield from manager.acquire("t", "frag", LockMode.SHARED)
            yield from manager.acquire("t", "frag", LockMode.SHARED)
            manager.release_all("t")

        manager, _ = run_lock_procs(proc)
        assert manager.grants == 1

    def test_sole_holder_upgrade(self):
        def proc(manager):
            yield from manager.acquire("t", "frag", LockMode.SHARED)
            yield from manager.acquire("t", "frag", LockMode.EXCLUSIVE)
            assert manager._locks["frag"].holders == {"t": LockMode.EXCLUSIVE}
            manager.release_all("t")

        run_lock_procs(proc)

    def test_deadlock_detected_and_victim_aborted(self):
        outcome = []

        def t1(manager):
            yield from manager.acquire("t1", "A", LockMode.EXCLUSIVE)
            yield Delay(1.0)
            try:
                yield from manager.acquire("t1", "B", LockMode.EXCLUSIVE)
                outcome.append("t1-ok")
            except DeadlockError:
                outcome.append("t1-aborted")
                manager.release_all("t1")

        def t2(manager):
            yield from manager.acquire("t2", "B", LockMode.EXCLUSIVE)
            yield Delay(2.0)
            # t1 is already waiting for B; asking for A closes the cycle.
            try:
                yield from manager.acquire("t2", "A", LockMode.EXCLUSIVE)
                outcome.append("t2-ok")
            except DeadlockError:
                outcome.append("t2-aborted")
                manager.release_all("t2")

        manager, _ = run_lock_procs(t1, t2)
        assert "t2-aborted" in outcome  # the requester closing the cycle
        assert "t1-ok" in outcome       # the survivor proceeds
        assert manager.deadlocks == 1

    def test_release_unblocks_compatible_group(self):
        got = []

        def writer(manager):
            yield from manager.acquire("w", "frag", LockMode.EXCLUSIVE)
            yield Delay(1.0)
            manager.release_all("w")

        def reader(name):
            def proc(manager):
                yield Delay(0.1)
                yield from manager.acquire(name, "frag", LockMode.SHARED)
                got.append(name)
                manager.release_all(name)

            return proc

        run_lock_procs(writer, reader("r1"), reader("r2"))
        assert sorted(got) == ["r1", "r2"]


class TestLockTimeout:
    def test_timed_out_wait_raises_and_withdraws(self):
        events = []

        def holder(manager):
            yield from manager.acquire("h", "frag", LockMode.EXCLUSIVE)
            yield Delay(5.0)
            manager.release_all("h")

        def impatient(manager):
            yield Delay(0.5)
            try:
                yield from manager.acquire(
                    "i", "frag", LockMode.EXCLUSIVE, timeout=1.0
                )
                events.append("i-got")
            except LockTimeoutError:
                events.append("i-timeout")
                manager.release_all("i")

        manager, _ = run_lock_procs(holder, impatient)
        assert events == ["i-timeout"]
        assert manager.timeouts == 1
        # The withdrawn request holds nothing and queues nowhere.
        assert "i" not in manager._locks["frag"].holders
        assert not manager._locks["frag"].queue

    def test_timeout_leaves_no_dangling_waits_for_edge(self):
        # Regression: a timed-out waiter whose waits-for edges survived
        # would make a later blocker look like a deadlock cycle.
        def holder(manager):
            yield from manager.acquire("h", "frag", LockMode.EXCLUSIVE)
            yield Delay(5.0)
            manager.release_all("h")

        def impatient(manager):
            yield Delay(0.5)
            with pytest.raises(LockTimeoutError):
                yield from manager.acquire(
                    "i", "frag", LockMode.EXCLUSIVE, timeout=1.0
                )
            manager.release_all("i")

        got = []

        def patient(manager):
            yield Delay(2.0)
            # Blocks behind the holder; must NOT be misdiagnosed as a
            # deadlock via a stale edge from the departed "i".
            yield from manager.acquire("p", "frag", LockMode.EXCLUSIVE)
            got.append("p")
            manager.release_all("p")

        manager, _ = run_lock_procs(holder, impatient, patient)
        assert got == ["p"]
        assert manager.deadlocks == 0
        assert manager._waits_for == {}

    def test_timeout_withdrawal_unblocks_compatible_waiters(self):
        # An X request queued between two S groups gates the second; its
        # withdrawal must re-dispatch the now-compatible readers.
        got = []

        def reader1(manager):
            yield from manager.acquire("r1", "frag", LockMode.SHARED)
            yield Delay(3.0)
            manager.release_all("r1")

        def writer(manager):
            yield Delay(0.5)
            with pytest.raises(LockTimeoutError):
                yield from manager.acquire(
                    "w", "frag", LockMode.EXCLUSIVE, timeout=1.0
                )
            manager.release_all("w")

        def reader2(manager):
            yield Delay(1.0)
            yield from manager.acquire("r2", "frag", LockMode.SHARED)
            got.append((("r2-got"), manager.sim.now))
            manager.release_all("r2")

        manager, _ = run_lock_procs(reader1, writer, reader2)
        # r2 is granted the moment the writer withdraws (t=1.5), not when
        # r1 finally releases at t=3.
        assert got == [("r2-got", pytest.approx(1.5))]

    def test_granted_wait_under_timeout_is_normal(self):
        events = []

        def holder(manager):
            yield from manager.acquire("h", "frag", LockMode.EXCLUSIVE)
            yield Delay(0.5)
            manager.release_all("h")

        def waiter(manager):
            yield Delay(0.1)
            yield from manager.acquire(
                "w", "frag", LockMode.EXCLUSIVE, timeout=10.0
            )
            events.append("w-got")
            manager.release_all("w")

        manager, _ = run_lock_procs(holder, waiter)
        assert events == ["w-got"]
        assert manager.timeouts == 0


class TestEngineLocking:
    def _machine(self):
        m = GammaMachine(GammaConfig(n_disk_sites=4, n_diskless=4))
        m.load_wisconsin("r", 2_000, seed=81, clustered_on="unique1")
        return m

    def test_concurrent_writers_serialise(self):
        # Two concurrent modifies of the SAME tuple: the lock manager must
        # serialise them — both apply, one after the other.
        m = self._machine()
        r1, r2 = m.run_concurrent([
            ModifyTuple("r", ExactMatch("unique1", 50), "odd100", 111),
            ModifyTuple("r", ExactMatch("unique1", 50), "odd100", 222),
        ])
        assert r1.result_count == 1
        assert r2.result_count == 1
        assert r1.response_time != r2.response_time  # one waited
        final = m.run(Query.select("r", ExactMatch("unique1", 50)))
        pos = m.catalog.lookup("r").schema.position("odd100")
        assert final.tuples[0][pos] in (111, 222)

    def test_reader_and_writer_both_complete_concurrently(self):
        m = self._machine()
        fresh = (90_000, 90_000) + next(iter(generate_tuples(1, seed=1)))[2:]
        query = Query.select("r", RangePredicate("unique1", 0, 499),
                             into="out")
        sel, upd = m.run_concurrent([query, AppendTuple("r", fresh)])
        assert sel.result_count == 500
        assert upd.result_count == 1
        # The appended tuple is durable afterwards.
        check = m.run(Query.select("r", ExactMatch("unique1", 90_000)))
        assert check.result_count == 1

    def test_concurrent_update_blocks_behind_reader(self):
        # An X request on a fragment S-locked by a long scan must wait.
        m = self._machine()
        fresh = (91_000, 91_000) + next(iter(generate_tuples(1, seed=2)))[2:]
        solo = self._machine().update(AppendTuple("r", fresh))
        query = Query.select("r", RangePredicate("unique2", 0, 1999),
                             into="out")
        _sel, upd = m.run_concurrent([query, AppendTuple("r", fresh)])
        assert upd.response_time > solo.response_time

    def test_single_user_lock_stats(self):
        m = self._machine()
        m.run(Query.select("r", RangePredicate("unique1", 0, 9), into="o"))
        # Locks are taken (one per scanned fragment) but never block.
        r = m.update(DeleteTuple("r", ExactMatch("unique1", 5)))
        assert r.result_count == 1
