"""Tests for the type-keyed effect dispatch table and the run() fast paths.

The kernel dispatches effects through ``_HANDLERS`` (a dict keyed on the
effect class) and runs zero-delay wake-ups through a FIFO ready deque that
shares the heap's sequence counter.  These tests pin the contract: every
effect type round-trips, unknown effects fail loudly, deadlock diagnostics
still name the blocking resource, and an ``until`` cutoff leaves the queue
resumable.  A yielded ``None`` is the one non-effect the kernel accepts:
"nothing to wait for", resumed within the same step.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    Acquire,
    Delay,
    Get,
    Join,
    Put,
    Release,
    Server,
    Simulation,
    Store,
    Use,
    UseRun,
    WaitAll,
)
from repro.sim.kernel import _HANDLERS
import repro.sim.events as events_module


class TestDispatchTable:
    def test_handlers_cover_every_effect_type(self):
        effect_types = {
            obj for name, obj in vars(events_module).items()
            if isinstance(obj, type)
            and obj.__module__ == events_module.__name__
        }
        assert set(_HANDLERS) == effect_types

    def test_every_effect_round_trips(self):
        """One scenario exercising all nine effects, with exact timings."""
        sim = Simulation()
        server = Server("cpu")
        store = Store("mail")
        log = []

        def producer():
            yield Delay(1.0)                    # t=1
            yield Use(server, 0.5)              # t=1.5
            yield UseRun(server, [1.0, 0.5])    # t=3
            yield Put(store, "page")            # immediate (unbounded)
            log.append(("produced", sim.now))
            return "done-producing"

        def consumer():
            item = yield Get(store)             # blocks until t=3
            log.append((item, sim.now))
            yield Acquire(server)
            yield Delay(0.5)                    # holding the slot
            yield Release(server)
            return "done-consuming"

        p1 = sim.spawn(producer(), name="producer")
        p2 = sim.spawn(consumer(), name="consumer")

        def watcher():
            value = yield Join(p1)
            log.append(("joined", value, sim.now))
            both = yield WaitAll((p1, p2))
            log.append(("waited", both, sim.now))

        sim.spawn(watcher(), name="watcher")
        end = sim.run()
        assert end == 3.5
        # The Put hands the item straight to the blocked getter, so the
        # consumer logs before the producer resumes.
        assert log == [
            ("page", 3.0),
            ("produced", 3.0),
            ("joined", "done-producing", 3.0),
            ("waited", ["done-producing", "done-consuming"], 3.5),
        ]

    def test_unknown_effect_raises_simulation_error(self):
        sim = Simulation()

        def confused():
            yield object()

        sim.spawn(confused(), name="confused")
        with pytest.raises(SimulationError, match="unknown effect"):
            sim.run()

    def test_falsy_yield_that_is_not_none_is_still_unknown(self):
        """The kernel's rule is ``is None``, not falsiness."""
        sim = Simulation()

        def confused():
            yield 0

        sim.spawn(confused(), name="confused")
        with pytest.raises(SimulationError, match="unknown effect 0"):
            sim.run()


class TestNoneYield:
    """``yield None`` costs no event, no sequence number and no time —
    what ``yield node.work(0)`` and a buffer-pool hit rely on."""

    @staticmethod
    def _run(gen_fn, server):
        sim = Simulation()
        proc = sim.spawn(gen_fn(server), name="p")
        sim.run()
        return sim.now, sim.events_processed, sim._seq, proc

    def test_none_between_two_uses_changes_nothing(self):
        def plain(server):
            yield Use(server, 1.0)
            yield Use(server, 0.5)

        def with_none(server):
            yield None
            yield Use(server, 1.0)
            yield None
            yield None
            yield Use(server, 0.5)

        a = self._run(plain, Server("cpu"))
        b = self._run(with_none, Server("cpu"))
        assert a[:3] == b[:3]
        assert a[0] == 1.5

    def test_none_as_last_yield_finishes_and_wakes_waiters(self):
        sim = Simulation()
        server = Server("cpu")
        log = []

        def worker(tag):
            yield Use(server, 1.0)
            yield None
            return tag

        def joiner(proc):
            log.append(("join", (yield Join(proc)), sim.now))

        def waiter(procs):
            log.append(("all", (yield WaitAll(procs)), sim.now))

        first = sim.spawn(worker("a"), name="a")
        second = sim.spawn(worker("b"), name="b")
        sim.spawn(joiner(first), name="joiner")
        sim.spawn(waiter([first, second]), name="waiter")
        sim.run()
        assert first.finished and first.value == "a"
        assert second.finished and second.value == "b"
        assert log == [("join", "a", 1.0), ("all", ["a", "b"], 2.0)]

    @pytest.mark.parametrize("private", [False, True])
    def test_none_straight_after_a_runs_last_hop(self, private):
        """The hop after the last hands the process back to its generator
        in the same step; a ``None`` there must reach that generator, not
        the spent run."""

        def plain(server):
            yield UseRun(server, [1.0, 0.5])
            yield Use(server, 0.25)
            return "end"

        def with_none(server):
            yield UseRun(server, [1.0, 0.5])
            yield None
            yield Use(server, 0.25)
            yield UseRun(server, [])
            yield None
            return "end"

        a = self._run(plain, Server("disk", private=private))
        b = self._run(with_none, Server("disk", private=private))
        assert b[0] == a[0] == 1.75
        assert b[3].finished and b[3].value == "end"
        # The empty second run costs nothing either, so the counts match.
        assert a[1:3] == b[1:3]


class TestDeadlockDiagnostics:
    def test_names_blocking_store(self):
        sim = Simulation()
        store = Store("starved-mailbox")

        def consumer():
            yield Get(store)

        sim.spawn(consumer(), name="consumer")
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "deadlock" in message
        assert "'consumer'" in message
        assert "starved-mailbox" in message

    def test_names_blocking_server(self):
        sim = Simulation()
        server = Server("held-cpu")

        def holder():
            yield Acquire(server)
            # Finishes without releasing: the waiter is stuck forever.

        def waiter():
            yield Acquire(server)

        sim.spawn(holder(), name="holder")
        sim.spawn(waiter(), name="waiter")
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "'waiter'" in message
        assert "held-cpu" in message

    def test_names_the_server_and_progress_of_a_blocked_run(self):
        sim = Simulation()
        server = Server("held-drive")

        def holder():
            yield Delay(0.5)
            yield Acquire(server)  # granted when the first hop ends

        def runner():
            yield UseRun(server, [1.0, 1.0, 1.0])

        sim.spawn(holder(), name="holder")
        sim.spawn(runner(), name="runner")
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        assert (
            "'runner' blocked on UseRun(Server 'held-drive', 1 hop(s) served)"
            in str(excinfo.value)
        )


class TestRunUntilCutoff:
    def test_cutoff_mid_queue_preserves_remaining_events(self):
        """Stopping between two events must not drop the later one."""
        sim = Simulation()
        fired = []

        def ticker(at):
            yield Delay(at)
            fired.append(at)

        for at in (1.0, 2.0, 3.0):
            sim.spawn(ticker(at), name=f"tick-{at}")
        assert sim.run(until=1.5) == 1.5
        assert fired == [1.0]
        # The t=2 and t=3 events survived the cutoff intact.
        assert sim.run() == 3.0
        assert fired == [1.0, 2.0, 3.0]

    def test_cutoff_exactly_on_event_time_includes_it(self):
        sim = Simulation()
        fired = []

        def ticker(at):
            yield Delay(at)
            fired.append(at)

        for at in (1.0, 2.0):
            sim.spawn(ticker(at), name=f"tick-{at}")
        sim.run(until=2.0)
        assert fired == [1.0, 2.0]

    def test_repeated_runs_accumulate_events_processed(self):
        sim = Simulation()

        def ticker(at):
            yield Delay(at)

        for at in (1.0, 2.0):
            sim.spawn(ticker(at), name=f"tick-{at}")
        sim.run(until=1.0)
        first = sim.events_processed
        assert first > 0
        sim.run()
        assert sim.events_processed > first


class TestZeroDelayFastPath:
    def test_zero_delay_keeps_global_seq_order_with_due_heap_events(self):
        """A due heap event scheduled before a zero-delay one fires first."""
        sim = Simulation()
        order = []

        def at_one():
            # 1.0 + 1e-20 == 1.0: two heap events due now, drawn around
            # a ready one.
            sim.call_after(1e-20, lambda: order.append("heap-first"))
            sim.call_after(0.0, lambda: order.append("ready-second"))
            sim.call_after(1e-20, lambda: order.append("heap-third"))

        sim.call_after(1.0, at_one)
        sim.run()
        assert order == ["heap-first", "ready-second", "heap-third"]

    def test_zero_delay_chain_does_not_advance_clock(self):
        sim = Simulation()

        def hopper():
            for _ in range(100):
                yield Delay(0.0)

        sim.spawn(hopper(), name="hopper")
        assert sim.run() == 0.0
