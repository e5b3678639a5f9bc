"""Unit tests for Server/Store accounting and kernel termination.

These pin the interval-accurate accounting semantics: busy time integrates
at every state change (and pro-rates in-flight service when sampled
mid-run), Acquire/Release intervals count as service, Stores are FIFO with
back-pressure, and a drained event queue with blocked processes is a
deadlock error — never a silent fast completion.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import (
    Acquire,
    Delay,
    Get,
    IntervalStats,
    Put,
    Release,
    Server,
    Simulation,
    Store,
    Use,
    UseRun,
)


class TestIntervalStats:
    def test_empty_stats(self):
        stats = IntervalStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.max == 0.0

    def test_moments_and_bins(self):
        stats = IntervalStats()
        for value in (0.0, 0.005, 0.5, 50.0):
            stats.record(value)
        assert stats.count == 4
        assert stats.total == pytest.approx(50.505)
        assert stats.mean == pytest.approx(50.505 / 4)
        assert stats.max == 50.0
        # 0.0 -> bin 0 (< 1e-5), 0.005 -> bin 3 [1e-3, 1e-2),
        # 0.5 -> bin 5 [0.1, 1), 50 -> open bin past the last edge.
        assert stats.bins[0] == 1
        assert stats.bins[3] == 1
        assert stats.bins[5] == 1
        assert stats.bins[-1] == 1
        assert sum(stats.bins) == 4

    def test_as_dict_round_trip(self):
        stats = IntervalStats()
        stats.record(0.25)
        d = stats.as_dict()
        assert d["count"] == 1
        assert d["mean"] == pytest.approx(0.25)
        assert len(d["bins"]) == len(IntervalStats.BIN_EDGES) + 1


class TestServerAccounting:
    def test_sequential_service_accrues_slot_seconds(self):
        server = Server("disk")
        sim = Simulation()

        def proc():
            yield Use(server, 5.0)
            yield Use(server, 5.0)

        sim.spawn(proc())
        assert sim.run() == pytest.approx(10.0)
        assert server.busy_time == pytest.approx(10.0)
        assert server.utilisation(sim.now) == pytest.approx(1.0)
        assert server.requests == 2

    def test_midrun_sample_prorates_in_flight_service(self):
        # The old accounting credited service only at completion, so a
        # sample taken mid-interval under-reported utilisation.
        server = Server("disk")
        sim = Simulation()
        sampled = {}

        def worker():
            yield Use(server, 10.0)

        def sampler():
            yield Delay(4.0)
            sampled["util"] = server.utilisation(sim.now)
            sampled["mean"] = server.mean_utilisation(sim.now)

        sim.spawn(worker())
        sim.spawn(sampler())
        sim.run()
        assert sampled["util"] == pytest.approx(1.0)
        assert sampled["mean"] == pytest.approx(1.0)

    def test_idle_gap_lowers_utilisation(self):
        server = Server("disk")
        sim = Simulation()

        def proc():
            yield Use(server, 2.0)
            yield Delay(6.0)
            yield Use(server, 2.0)

        sim.spawn(proc())
        assert sim.run() == pytest.approx(10.0)
        assert server.busy_time == pytest.approx(4.0)
        assert server.utilisation(sim.now) == pytest.approx(0.4)

    def test_any_slot_vs_mean_slot_utilisation(self):
        # Two slots, one busy the whole run: "some slot busy" is 1.0,
        # the mean across slots is 0.5.
        server = Server("cpu", capacity=2)
        sim = Simulation()

        def proc():
            yield Use(server, 8.0)

        sim.spawn(proc())
        sim.run()
        assert server.utilisation(sim.now) == pytest.approx(1.0)
        assert server.mean_utilisation(sim.now) == pytest.approx(0.5)

    def test_wait_stats_and_mean_queue_length(self):
        server = Server("disk")
        sim = Simulation()

        def proc():
            yield Use(server, 5.0)

        sim.spawn(proc())
        sim.spawn(proc())
        sim.run()
        # Second request queues for 5s; queue holds 1 entry for 5 of 10s.
        assert server.wait_stats.count == 2
        assert server.wait_stats.max == pytest.approx(5.0)
        assert server.wait_stats.mean == pytest.approx(2.5)
        assert server.mean_queue_length(sim.now) == pytest.approx(0.5)

    def test_acquire_release_interval_accrues_busy_time(self):
        # Acquire/Release bracketed work must count as service; the old
        # accounting only credited Use intervals.
        server = Server("lock")
        sim = Simulation()

        def proc():
            yield Acquire(server)
            yield Delay(3.0)
            yield Release(server)
            yield Delay(1.0)

        sim.spawn(proc())
        assert sim.run() == pytest.approx(4.0)
        assert server.busy_time == pytest.approx(3.0)
        assert server.utilisation(sim.now) == pytest.approx(0.75)

    def test_utilisation_clamped_to_one(self):
        server = Server("disk")
        sim = Simulation()

        def proc():
            yield Use(server, 5.0)

        sim.spawn(proc())
        sim.run()
        assert server.utilisation(2.5) <= 1.0
        assert server.mean_utilisation(2.5) <= 1.0

    def test_zero_now_is_zero_utilisation(self):
        server = Server("disk")
        assert server.utilisation(0.0) == 0.0
        assert server.mean_utilisation(0.0) == 0.0
        assert server.mean_queue_length(0.0) == 0.0

    def test_observer_sees_service_intervals(self):
        server = Server("disk")
        seen = []
        server.hooks = (
            lambda srv, proc, start, dur: seen.append((srv.name, start, dur)),
        )
        sim = Simulation()

        def proc():
            yield Use(server, 2.0)
            yield Use(server, 3.0)

        sim.spawn(proc())
        sim.run()
        assert seen == [("disk", 0.0, 2.0), ("disk", 2.0, 3.0)]


class TestStore:
    def test_put_get_is_fifo(self):
        store = Store("mbox")
        sim = Simulation()
        got = []

        def producer():
            for item in ("a", "b", "c"):
                yield Put(store, item)

        def consumer():
            for _ in range(3):
                item = yield Get(store)
                got.append(item)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert got == ["a", "b", "c"]

    def test_bounded_store_back_pressures_producer(self):
        store = Store("mbox", capacity=1)
        sim = Simulation()
        put_times = []
        got = []

        def producer():
            for item in ("a", "b", "c"):
                yield Put(store, item)
                put_times.append(sim.now)

        def consumer():
            for _ in range(3):
                yield Delay(2.0)
                item = yield Get(store)
                got.append(item)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert got == ["a", "b", "c"]
        # First put lands immediately; the rest wait for a slot freed by
        # the consumer at t=2 and t=4.
        assert put_times[0] == pytest.approx(0.0)
        assert put_times[1] == pytest.approx(2.0)
        assert put_times[2] == pytest.approx(4.0)

    @pytest.mark.parametrize("waiting", [True, False])
    def test_deliver_is_a_put_without_the_senders_wake_up(self, waiting):
        """``_deliver`` hands items over as ``_put`` does — also into a
        full store, where the item waits for a slot — but posts no
        wake-up for the sender: one event and one sequence draw fewer
        per item, the consumer's timeline unchanged."""

        def run(deliver):
            store = Store("mbox", capacity=1)
            sim = Simulation()
            got = []

            def consumer():
                if not waiting:
                    yield Delay(1.0)
                for _ in range(3):
                    item = yield Get(store)
                    got.append((sim.now, item))
                    yield Delay(0.5)

            def send(item):
                if deliver:
                    store._deliver(sim, item)
                else:
                    store._put(sim, item, lambda *_: None)

            sim.spawn(consumer())
            sim.call_after(0.25, lambda: [send(i) for i in "abc"])
            sim.run()
            return got, sim.now, sim.events_processed, sim._seq

        got, now, events, seq = run(deliver=True)
        ref_got, ref_now, ref_events, ref_seq = run(deliver=False)
        assert (got, now) == (ref_got, ref_now)
        assert [item for _, item in got] == ["a", "b", "c"]
        assert (events, seq) == (ref_events - 3, ref_seq - 3)

    def test_blocked_counters(self):
        store = Store("mbox", capacity=1)
        sim = Simulation()

        def producer():
            yield Put(store, "a")
            yield Put(store, "b")  # blocks: store full, no consumer yet

        def observer():
            yield Delay(1.0)
            assert len(store._putters) == 1
            assert not store._getters
            yield Get(store)
            yield Get(store)

        sim.spawn(producer())
        sim.spawn(observer())
        sim.run()
        assert not store._putters

    def test_get_from_empty_waits_for_put(self):
        store = Store("mbox")
        sim = Simulation()
        got = []

        def consumer():
            item = yield Get(store)
            got.append((item, sim.now))

        def producer():
            yield Delay(3.0)
            yield Put(store, "late")

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert got == [("late", 3.0)]


class TestTermination:
    def test_two_process_store_deadlock_raises_and_names_parties(self):
        # A classic cycle: each process waits on a store only the other
        # could fill.
        a_to_b = Store("a_to_b")
        b_to_a = Store("b_to_a")
        sim = Simulation()

        def left():
            item = yield Get(b_to_a)
            yield Put(a_to_b, item)

        def right():
            item = yield Get(a_to_b)
            yield Put(b_to_a, item)

        sim.spawn(left(), name="left")
        sim.spawn(right(), name="right")
        with pytest.raises(SimulationError) as exc:
            sim.run()
        message = str(exc.value)
        assert "deadlock" in message
        assert "'left'" in message and "'right'" in message
        assert "'a_to_b'" in message and "'b_to_a'" in message
        assert "empty" in message

    def test_full_store_deadlock_names_put(self):
        store = Store("mbox", capacity=1)
        sim = Simulation()

        def producer():
            yield Put(store, 1)
            yield Put(store, 2)  # nobody will ever drain the store

        sim.spawn(producer(), name="producer")
        with pytest.raises(SimulationError) as exc:
            sim.run()
        assert "Put(Store 'mbox', full)" in str(exc.value)

    def test_server_starvation_names_acquire(self):
        server = Server("lock")
        sim = Simulation()

        def hog():
            yield Acquire(server)
            # Never releases.

        def waiter():
            yield Acquire(server)

        sim.spawn(hog(), name="hog")
        sim.spawn(waiter(), name="waiter")
        with pytest.raises(SimulationError) as exc:
            sim.run()
        message = str(exc.value)
        assert "'waiter'" in message
        assert "Acquire(Server 'lock')" in message

    def test_run_until_advances_clock_on_early_drain(self):
        sim = Simulation()

        def proc():
            yield Delay(2.0)

        sim.spawn(proc())
        assert sim.run(until=10.0) == pytest.approx(10.0)
        assert sim.now == pytest.approx(10.0)

    def test_run_until_before_pending_event_stops_at_until(self):
        sim = Simulation()

        def proc():
            yield Delay(5.0)

        sim.spawn(proc())
        assert sim.run(until=3.0) == pytest.approx(3.0)
        assert sim.now == pytest.approx(3.0)

    def test_empty_run_with_until_reaches_until(self):
        sim = Simulation()
        assert sim.run(until=7.0) == pytest.approx(7.0)


# One instant: the gap since the previous one, then the groups whose
# requests are issued at it, in order (a group may recur, interleaved).
_INSTANTS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.001, 0.004, 0.02]),
        st.lists(st.integers(0, 3), min_size=1, max_size=8),
    ),
    min_size=1, max_size=6,
)


class TestSharedQueueEntries:
    """``Server._use_entry``: many requests, one queue-entry object."""

    @staticmethod
    def _run(capacity, durations, instants, shared_groups):
        sim = Simulation()
        server = Server("nic", capacity=capacity)
        completions = []

        def resume_for(group):
            return lambda _value: completions.append((sim.now, group))

        resumes = [resume_for(group) for group in range(len(durations))]

        def issuer():
            for gap, groups in instants:
                yield Delay(gap)
                entries = {
                    group: (durations[group], resumes[group], sim.now, None)
                    for group in shared_groups
                }
                for group in groups:
                    if group in entries:
                        server._use_entry(sim, entries[group])
                    else:
                        server._use(
                            sim, durations[group], resumes[group], None
                        )

        sim.spawn(issuer())
        sim.run()
        return (
            completions, sim.now, sim.events_processed, sim._seq,
            server.requests, server.busy_time, server.wait_stats.as_dict(),
            server.mean_queue_length(sim.now), server.utilisation(sim.now),
            server.mean_utilisation(sim.now),
        )

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 3),
        durations=st.lists(
            st.sampled_from([0.0, 0.0005, 0.003, 0.0101]),
            min_size=4, max_size=4,
        ),
        instants=_INSTANTS,
        shared_groups=st.sets(st.integers(0, 3)),
    )
    def test_any_mix_of_fresh_and_shared_entries_matches_all_fresh(
        self, capacity, durations, instants, shared_groups
    ):
        assert self._run(
            capacity, durations, instants, shared_groups
        ) == self._run(capacity, durations, instants, frozenset())

    def test_waiting_requests_of_one_burst_are_one_object(self):
        sim, server = Simulation(), Server("nic")
        entry = (0.002, lambda _value: None, sim.now, None)
        for _ in range(5):
            server._use_entry(sim, entry)
        assert server._in_service == 1 and server.queue_length == 4
        assert {id(queued) for queued in server._queue} == {id(entry)}
        sim.run()
        assert sim.now == pytest.approx(0.010)
        assert server.wait_stats.count == 5

    def test_negative_duration_rejected_idle_or_busy(self):
        sim, server = Simulation(), Server("nic")
        bad = (-1.0, lambda _value: None, sim.now, None)
        with pytest.raises(SimulationError):
            server._use_entry(sim, bad)
        server._use(sim, 1.0, lambda _value: None, None)
        with pytest.raises(SimulationError):
            server._use_entry(sim, bad)


_DURATIONS = st.sampled_from([0.0, 0.0005, 0.003, 0.0101, 0.25])

#: A rival: (delay before its first request, service times, what each of
#: its completions adds to the state the runner's lazy hops read).
_RIVALS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.001, 0.0035, 0.0101, 0.02, 0.6]),
        st.lists(_DURATIONS, min_size=1, max_size=4),
        st.sampled_from([0.0, 0.0005, 0.002]),
    ),
    max_size=4,
)


class TestServiceRuns:
    """``UseRun(server, hops)`` against ``for d in hops: yield Use(...)``."""

    @staticmethod
    def _scenario(as_run, server, start, hops, rivals=(), tail=None):
        """One runner serving ``hops`` (twice: a run follows a run) and
        any number of rivals on ``server``; everything observable."""
        sim = Simulation()
        state = {"extra": 0.0, "drawn": 0}
        resumed = []

        def lazy_hops():
            for duration in hops:
                state["drawn"] += 1
                # A negative hop stays negative; the rest see the rivals.
                yield duration + state["extra"] if duration >= 0 else duration
                resumed.append(("hop-done", sim.now))

        def serve():
            if as_run:
                yield UseRun(server, lazy_hops())
            else:
                for duration in lazy_hops():
                    yield Use(server, duration)

        def runner():
            yield Delay(start)
            yield from serve()
            resumed.append(("runner", sim.now, state["drawn"]))
            yield from serve()
            resumed.append(("runner-again", sim.now, state["drawn"]))
            if tail is not None:
                yield Use(server, tail)
                resumed.append(("runner-tail", sim.now))

        def rival(index, delay, durations, bump):
            yield Delay(delay)
            for duration in durations:
                yield Use(server, duration)
                state["extra"] += bump
                resumed.append((index, sim.now))

        sim.spawn(runner(), name="runner")
        for index, (delay, durations, bump) in enumerate(rivals):
            sim.spawn(rival(index, delay, durations, bump), name=f"rival{index}")
        try:
            sim.run()
            error = None
        except SimulationError as exc:
            error = str(exc)
        # The private form draws every hop when the run starts and wakes
        # the runner once, so neither the clock a hop iterator would read
        # nor the order of wake-ups at one instant is its contract; when
        # each process resumes is.
        return {
            "resumed": sorted(
                (line for line in resumed if line[0] != "hop-done"), key=repr
            ),
            "error": error,
            "now": sim.now,
            "requests": server.requests,
            "busy_time": server.busy_time,
            "busy_any": server._busy_accrued,
            "wait_stats": server.wait_stats.as_dict(),
            "utilisation": server.utilisation(sim.now),
            "mean_utilisation": server.mean_utilisation(sim.now),
            "mean_queue_length": server.mean_queue_length(sim.now),
            "last_change": server._last_change,
        }, (resumed, sim.events_processed, sim._seq)

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(1, 3),
        start=st.sampled_from([0.0, 0.001, 0.0101, 0.3]),
        hops=st.lists(_DURATIONS, max_size=6),
        rivals=_RIVALS,
        negative_at=st.none() | st.integers(0, 5),
    )
    def test_run_on_a_shared_server_is_the_use_loop(
        self, capacity, start, hops, rivals, negative_at
    ):
        if negative_at is not None and negative_at < len(hops):
            hops = hops[:negative_at] + [-0.001] + hops[negative_at + 1:]
        loop, run = (
            self._scenario(
                as_run, Server("srv", capacity), start, hops, rivals
            )
            for as_run in (False, True)
        )
        # Same machine, same log line order, same events, same last seq.
        assert run == loop
        if any(duration < 0 for duration in hops):
            assert run[0]["error"] == "negative service time on 'srv'"

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 3),
        start=st.sampled_from([0.0, 0.001, 0.3]),
        hops=st.lists(_DURATIONS, max_size=8),
        tail=st.none() | _DURATIONS,
    )
    def test_run_on_a_private_server_costs_one_event(
        self, capacity, start, hops, tail
    ):
        (loop, (_, loop_events, _)), (run, (_, run_events, _)) = (
            self._scenario(
                as_run, Server("srv", capacity, private=as_run), start,
                hops, tail=tail,
            )
            for as_run in (False, True)
        )
        assert run == loop
        # Each of the two runs saves every completion but its last.
        assert run_events == loop_events - 2 * max(0, len(hops) - 1)

    def test_negative_hop_on_a_private_server(self):
        sim, server = Simulation(), Server("srv", private=True)

        def runner():
            yield UseRun(server, [0.5, -1.0])

        sim.spawn(runner())
        with pytest.raises(
            SimulationError, match="negative service time on 'srv'"
        ):
            sim.run()

    @staticmethod
    def _two_requesters(second, second_at, first=None):
        sim, server = Simulation(), Server("amp0.d0.srv", private=True)

        def owner():
            yield first if first else UseRun(server, [1.0, 1.0, 1.0])

        def intruder():
            yield Delay(second_at)
            yield second(server)

        sim.spawn(owner(), name="sel.0")
        sim.spawn(intruder(), name="store.0")
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        return str(excinfo.value), server

    def test_private_server_refuses_a_second_run(self):
        message, _ = self._two_requesters(
            lambda server: UseRun(server, [0.1]), 1.5
        )
        assert "private server 'amp0.d0.srv'" in message
        assert "'sel.0'" in message and "'store.0'" in message

    def test_private_server_refuses_a_use_during_a_run(self):
        message, _ = self._two_requesters(
            lambda server: Use(server, 0.1), 0.5
        )
        assert "private server 'amp0.d0.srv'" in message
        assert "'sel.0'" in message and "'store.0'" in message

    def test_private_server_refuses_a_run_during_a_use(self):
        sim, server = Simulation(), Server("amp0.d0.srv", private=True)

        def owner():
            yield Use(server, 2.0)

        def intruder():
            yield Delay(1.0)
            yield UseRun(server, [0.1])

        sim.spawn(owner(), name="sel.0")
        sim.spawn(intruder(), name="store.0")
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "private server 'amp0.d0.srv'" in message
        assert "'sel.0'" in message and "'store.0'" in message

    def test_private_server_serves_requesters_one_after_another(self):
        sim, server = Simulation(), Server("srv", private=True)

        def first():
            yield UseRun(server, [0.25, 0.25])

        def second():
            yield Delay(0.5)
            yield UseRun(server, [0.25])
            yield Use(server, 0.25)

        sim.spawn(first())
        sim.spawn(second())
        assert sim.run() == 1.0
        assert server.requests == 4 and server.busy_time == 1.0

    @pytest.mark.parametrize("watch", ["server hook", "sample hook"])
    def test_watched_private_server_serves_hop_by_hop(self, watch):
        """A run collapses only when nothing observes it: with a server
        or a sample hook every hop is its own event, timed as a loop."""
        sim, server = Simulation(), Server("srv", private=True)
        seen = []
        if watch == "server hook":
            server.hooks = (lambda srv, proc, start, dur: seen.append(start),)
        else:
            sim.set_sample_hook(lambda limit: limit + 1.0, 0.25)

        def runner():
            yield UseRun(server, [0.5, 0.25, 0.125])

        sim.spawn(runner())
        assert sim.run() == 0.875
        assert sim.events_processed == 4  # spawn + one per hop
        assert server.requests == 3 and server.busy_time == 0.875
        if watch == "server hook":
            assert seen == [0.0, 0.5, 0.75]

    def test_hooks_see_every_hop_and_its_process(self):
        sim, server = Simulation(), Server("srv")
        seen = []
        server.hooks = (
            lambda srv, proc, start, dur: seen.append((start, dur)),
            lambda srv, proc, start, dur: seen.append((proc.name, start)),
        )

        def runner():
            yield UseRun(server, [0.5, 0.25])

        sim.spawn(runner(), name="sel.3")
        sim.run()
        assert seen == [
            (0.0, 0.5), ("sel.3", 0.0), (0.5, 0.25), ("sel.3", 0.5),
        ]
