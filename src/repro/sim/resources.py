"""Queueing resources for the simulation kernel.

Two primitives cover everything the Gamma model needs:

* :class:`Server` — a FIFO service centre with fixed capacity.  CPUs, disk
  drives, network interfaces and the token ring are all ``Server``\\ s; the
  contention they create is what produces every bottleneck in the paper.
* :class:`Store` — a bounded FIFO buffer of items.  Prefetch pipelines and
  wake-up channels are ``Store``\\ s; bounded capacity gives natural
  back-pressure, which is how the dataflow engine self-schedules.  An
  operator input port is a :class:`Mailbox`, a ``Store`` that also counts
  its senders' closing marks.

Accounting is *interval-accurate*: every state change integrates the time
since the previous change, so utilisation queried mid-run pro-rates
in-flight service to ``now`` instead of crediting whole service intervals
at their start.  All statistics are passive — they never schedule events —
so enabling or inspecting them cannot perturb the simulated timeline.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from ..errors import SimulationError
from .kernel import _NO_VALUE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Process, Simulation

Resume = Callable[..., None]

#: A ``Server.hooks`` entry: called (server, process, start, duration)
#: at the start of every service interval.  The process is the one whose
#: ``Use`` is being serviced; a process-less requester (a
#: :class:`~repro.sim.Chain` or a close burst) resolves to its ``owner``
#: — the process that yielded or dispatched it — and to None when it has
#: none.  The trace draws the interval on the server's lane; the profiler
#: attributes it to an operator by walking ``process.parent``.
ServiceHook = Callable[["Server", Optional["Process"], float, float], None]


class IntervalStats:
    """Online summary of a stream of durations (wait times, service times).

    Keeps count/total/max plus a fixed logarithmic histogram so memory stays
    O(1) regardless of how many requests a run serves.
    """

    #: Upper edges (seconds) of the histogram bins; the last bin is open.
    BIN_EDGES = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

    __slots__ = ("count", "total", "max", "bins")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.bins = [0] * (len(self.BIN_EDGES) + 1)

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        self.bins[bisect_right(self.BIN_EDGES, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "max": self.max,
            "bins": list(self.bins),
        }

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"<IntervalStats n={self.count} mean={self.mean:.6f}"
            f" max={self.max:.6f}>"
        )


class Server:
    """A FIFO service centre with ``capacity`` parallel slots.

    Processes either ``yield Use(server, duration)`` for a self-contained
    service interval (``UseRun`` for a run of them), or bracket work with
    ``Acquire``/``Release``.

    ``private=True`` declares that the server never has two requesters at
    once (an AMP's own drive in a standalone DBC/1012 request).  It
    behaves as any server does, except that a ``UseRun`` nothing observes
    costs it one kernel event instead of one per hop (:meth:`_run_private`)
    and that a second concurrent requester during such a run is an error,
    not a queue.

    ``hooks`` is the one instrumentation slot: a tuple of
    :data:`ServiceHook` callables, empty when nothing watches.

    Statistics kept for utilisation reports (all interval-accurate):

    * ``busy_time`` — slot-seconds of completed service so far (in-flight
      service is pro-rated by :meth:`utilisation`/:meth:`mean_utilisation`
      rather than credited up front).
    * ``requests`` — total service requests (``Use`` and ``Acquire``).
    * ``wait_stats`` — histogram of time spent queued before service.
    * time-weighted queue length via :meth:`mean_queue_length`.
    """

    __slots__ = (
        "name",
        "capacity",
        "_in_service",
        "_queue",
        "requests",
        "_last_change",
        "_busy_accrued",
        "_slot_accrued",
        "_qlen_accrued",
        "wait_stats",
        "hooks",
        "_sim",
        "_complete_cb",
        "_complete_proc_cb",
        "private",
    )

    def __init__(
        self, name: str, capacity: int = 1, private: bool = False
    ) -> None:
        if capacity < 1:
            raise SimulationError(f"server {name!r} needs capacity >= 1")
        self.name = name
        self.capacity = capacity
        self.private = private
        self._in_service = 0
        # Queue entries: (duration | None, resume, enqueue_time, process).
        self._queue: deque[
            tuple[Optional[float], Resume, float, Optional["Process"]]
        ] = deque()
        self.requests = 0
        self._last_change = 0.0
        self._busy_accrued = 0.0  # seconds with >= 1 slot busy
        self._slot_accrued = 0.0  # slot-seconds of service
        self._qlen_accrued = 0.0  # queue-length-seconds
        self.wait_stats = IntervalStats()
        self.hooks: tuple[ServiceHook, ...] = ()
        # The owning simulation, captured at first service: lets service
        # completion run as a bound method + resume argument on the event
        # heap instead of a per-interval closure.  Process-owned Use
        # effects complete through _complete_proc, which steps the process
        # directly (skipping its resume-closure frame); resumes without a
        # process (chains, bursts, Acquire grants) go through _complete.
        self._sim: Optional["Simulation"] = None
        self._complete_cb = self._complete
        self._complete_proc_cb = self._complete_proc

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<Server {self.name} {self._in_service}/{self.capacity}>"

    @property
    def queue_length(self) -> int:
        """Number of waiting (not yet serviced) requests."""
        return len(self._queue)

    @property
    def busy_time(self) -> float:
        """Slot-seconds of service accrued so far (in-flight not included)."""
        return self._slot_accrued

    # -- accounting -------------------------------------------------------
    def _advance(self, now: float) -> None:
        """Integrate busy/queue time up to ``now`` (call before any change)."""
        dt = now - self._last_change
        if dt > 0.0:
            if self._in_service > 0:
                self._busy_accrued += dt
            self._slot_accrued += self._in_service * dt
            self._qlen_accrued += len(self._queue) * dt
            self._last_change = now

    def _prorated(self, now: float) -> tuple[float, float, float]:
        """(any-busy seconds, slot-seconds, queue-length-seconds) at ``now``."""
        dt = max(0.0, now - self._last_change)
        busy = self._busy_accrued + (dt if self._in_service > 0 else 0.0)
        slots = self._slot_accrued + self._in_service * dt
        qlen = self._qlen_accrued + len(self._queue) * dt
        return busy, slots, qlen

    def utilisation(self, now: float) -> float:
        """Fraction of time at least one slot was busy, up to ``now``."""
        if now <= 0:
            return 0.0
        busy, _, _ = self._prorated(now)
        return min(1.0, busy / now)

    def mean_utilisation(self, now: float) -> float:
        """Average per-slot utilisation up to ``now``.

        Equal to :meth:`utilisation` when ``capacity == 1``; strictly the
        mean fraction of busy slots otherwise.
        """
        if now <= 0:
            return 0.0
        _, slots, _ = self._prorated(now)
        return min(1.0, slots / (now * self.capacity))

    def mean_queue_length(self, now: float) -> float:
        """Time-weighted mean number of waiting requests up to ``now``."""
        if now <= 0:
            return 0.0
        _, _, qlen = self._prorated(now)
        return qlen / now

    # -- kernel-facing API ------------------------------------------------
    def _use(
        self,
        sim: "Simulation",
        duration: float,
        resume: Resume,
        proc: Optional["Process"] = None,
    ) -> None:
        if duration < 0:
            raise SimulationError(f"negative service time on {self.name!r}")
        self.requests += 1
        now = sim._now
        n = self._in_service
        # _advance(now), inlined for the hottest call site.  Skipping the
        # idle/empty-queue accruals is exact: ``+= 0.0`` never changes an
        # accrued total.
        dt = now - self._last_change
        if dt > 0.0:
            if n > 0:
                self._busy_accrued += dt
                self._slot_accrued += n * dt
            queued = len(self._queue)
            if queued:
                self._qlen_accrued += queued * dt
            self._last_change = now
        if n < self.capacity:
            # Inlined wait_stats.record(0.0): total/max are unchanged by a
            # zero and a zero always lands in the first histogram bin.
            ws = self.wait_stats
            ws.count += 1
            ws.bins[0] += 1
            self._in_service = n + 1
            self._sim = sim
            if self.hooks:
                who = getattr(resume, "owner", None) if proc is None else proc
                for hook in self.hooks:
                    hook(self, who, now, duration)
            if proc is not None:
                cb: Callable[..., None] = self._complete_proc_cb
                arg: Any = proc
            else:
                cb = self._complete_cb
                arg = resume
            sim._seq += 1
            if duration == 0.0:
                sim._ready.append((sim._seq, cb, arg))
            else:
                _heappush(
                    sim._heap, (now + duration, sim._seq, cb, arg)
                )
        else:
            self._queue.append((duration, resume, now, proc))

    def _use_entry(
        self,
        sim: "Simulation",
        entry: tuple[float, Resume, float, Optional["Process"]],
    ) -> None:
        """:meth:`_use` with a caller-built queue entry.

        ``entry`` is ``(duration, resume, sim.now, proc)`` — what
        :meth:`_use` would append if the request has to wait.  A caller
        issuing many equal requests in one instant (a port close) passes
        the same tuple each time, so a long queue holds one object rather
        than one per request; accounting and service order are those of
        :meth:`_use`.
        """
        if self._in_service < self.capacity:
            self._use(sim, entry[0], entry[1], entry[3])
            return
        if entry[0] < 0:
            raise SimulationError(f"negative service time on {self.name!r}")
        self.requests += 1
        now = sim._now
        if now > self._last_change:
            self._advance(now)
        self._queue.append(entry)

    def _acquire(self, sim: "Simulation", resume: Resume) -> None:
        self.requests += 1
        self._advance(sim.now)
        if self._in_service < self.capacity:
            ws = self.wait_stats
            ws.count += 1
            ws.bins[0] += 1
            self._in_service += 1
            sim._schedule_now(resume)
        else:
            self._queue.append((None, resume, sim.now, None))

    def _release(self, sim: "Simulation") -> None:
        if self._in_service <= 0:
            raise SimulationError(f"release of idle server {self.name!r}")
        self._advance(sim.now)
        self._in_service -= 1
        self._dispatch(sim)

    def _complete(self, resume: Resume) -> None:
        """One service interval finished: free the slot and hand it on.

        On a one-slot server the hand-off is :meth:`_dispatch`'s loop
        body written out (same statements, same order): this is how a
        chain or a close burst leaves a busy sender interface or ring,
        the hottest completion of a close storm.
        """
        sim = self._sim
        now = sim._now
        queue = self._queue
        # _advance(now), inlined: at least one slot (ours) is busy here.
        dt = now - self._last_change
        if dt > 0.0:
            self._busy_accrued += dt
            self._slot_accrued += self._in_service * dt
            queued = len(queue)
            if queued:
                self._qlen_accrued += queued * dt
            self._last_change = now
        if not queue:
            self._in_service -= 1
        elif self.capacity > 1:
            self._in_service -= 1
            self._dispatch(sim)
        else:
            # The slot passes straight to the oldest request.
            duration, nxt, enqueued, proc = queue.popleft()
            waited = now - enqueued
            ws = self.wait_stats
            ws.count += 1
            ws.total += waited
            if waited > ws.max:
                ws.max = waited
            ws.bins[bisect_right(IntervalStats.BIN_EDGES, waited)] += 1
            if duration is None:
                sim._seq += 1
                sim._ready.append((sim._seq, nxt, _NO_VALUE))
            else:
                if self.hooks:
                    who = getattr(nxt, "owner", None) if proc is None else proc
                    for hook in self.hooks:
                        hook(self, who, now, duration)
                if proc is not None:
                    cb: Callable[..., None] = self._complete_proc_cb
                    arg: Any = proc
                else:
                    cb = self._complete_cb
                    arg = nxt
                sim._seq += 1
                if duration == 0.0:
                    sim._ready.append((sim._seq, cb, arg))
                else:
                    _heappush(sim._heap, (now + duration, sim._seq, cb, arg))
        resume(None)

    def _complete_proc(self, proc: "Process") -> None:
        """:meth:`_complete` for a process-owned Use: step it directly.

        ``proc._resume(None)`` and ``sim._step(proc, None)`` are the same
        call (the resume closure is a one-line trampoline); going straight
        to ``_step`` drops one interpreter frame from every service
        completion on the operator hot path.
        """
        sim = self._sim
        now = sim._now
        dt = now - self._last_change
        if dt > 0.0:
            self._busy_accrued += dt
            self._slot_accrued += self._in_service * dt
            queued = len(self._queue)
            if queued:
                self._qlen_accrued += queued * dt
            self._last_change = now
        self._in_service -= 1
        if self._queue:
            self._dispatch(sim)
        sim._step(proc, None)

    def _run_private(
        self, sim: "Simulation", proc: "Process", hops: Iterable[float]
    ) -> None:
        """Serve a whole ``UseRun`` for ``proc`` in one kernel event.

        With a single requester every hop finds the server idle, so the
        wake-ups between hops decide nothing: replay what hop-by-hop
        service would have accounted and post the last completion only.
        The replay makes the same float operations in the same order as
        :meth:`_use` and :meth:`_complete_proc` make per hop
        (``end = t + d``, ``dt = end - t``, ``+= dt`` — never a sum or a
        product), so every accrued total and the finish time are the
        hop-by-hop ones to the bit.  All slots are held while the run
        lasts: a rival's request queues and :meth:`_run_done` refuses it.
        """
        if self._in_service or self._queue:
            raise SimulationError(
                f"private server {self.name!r} has two requesters:"
                f" {proc.name!r} asks for a run while {self._holder(sim)}"
                " is in service"
            )
        start = t = sim._now
        busy = self._busy_accrued
        slots = self._slot_accrued
        served = 0
        for duration in hops:
            if duration < 0:
                raise SimulationError(
                    f"negative service time on {self.name!r}"
                )
            served += 1
            end = t + duration
            dt = end - t
            if dt > 0.0:
                busy += dt
                slots += dt
            t = end
        if not served:
            sim._step(proc, None)
            return
        self.requests += served
        self.wait_stats.count += served
        self.wait_stats.bins[0] += served
        self._busy_accrued = busy
        self._slot_accrued = slots
        self._last_change = t
        self._in_service = self.capacity
        self._sim = sim
        sim._seq += 1
        if t == start:
            sim._ready.append((sim._seq, self._run_done, proc))
        else:
            _heappush(sim._heap, (t, sim._seq, self._run_done, proc))

    def _run_done(self, proc: "Process") -> None:
        self._in_service = 0
        if self._queue:
            rival = self._queue[0][3]
            raise SimulationError(
                f"private server {self.name!r} has two requesters:"
                f" {rival.name if rival else 'a courier'!r} asked for"
                f" service during a run of {proc.name!r}"
            )
        self._sim._step(proc, None)

    def _holder(self, sim: "Simulation") -> str:
        """Who is in service right now (error messages only)."""
        mine = (self._complete_proc_cb, self._run_done)
        for entry in (*sim._heap, *sim._ready):
            if entry[-2] in mine:
                return repr(entry[-1].name)
        return "another requester"

    def _dispatch(self, sim: "Simulation") -> None:
        """Hand free slots to queued requests, oldest first.

        A hand-off makes the statements :meth:`IntervalStats.record` and
        a request that finds a free slot (:meth:`_use`) make, in the same
        order — the wait record, the hooks, then the completion or an
        Acquire's grant — written out so that it costs no further call.
        :meth:`_complete` writes out the one-slot case once more.
        """
        # _advance(sim.now) has already run on every path into here.
        queue = self._queue
        now = sim._now
        ws = self.wait_stats
        while queue and self._in_service < self.capacity:
            duration, resume, enqueued, proc = queue.popleft()
            waited = now - enqueued
            ws.count += 1
            ws.total += waited
            if waited > ws.max:
                ws.max = waited
            ws.bins[bisect_right(IntervalStats.BIN_EDGES, waited)] += 1
            self._in_service += 1
            if duration is None:
                sim._seq += 1
                sim._ready.append((sim._seq, resume, _NO_VALUE))
                continue
            self._sim = sim
            if self.hooks:
                who = getattr(resume, "owner", None) if proc is None else proc
                for hook in self.hooks:
                    hook(self, who, now, duration)
            if proc is not None:
                cb: Callable[..., None] = self._complete_proc_cb
                arg: Any = proc
            else:
                cb = self._complete_cb
                arg = resume
            sim._seq += 1
            if duration == 0.0:
                sim._ready.append((sim._seq, cb, arg))
            else:
                _heappush(sim._heap, (now + duration, sim._seq, cb, arg))


class Store:
    """A bounded FIFO buffer connecting producer and consumer processes.

    ``capacity=None`` means unbounded.  ``Put`` blocks when full, ``Get``
    blocks when empty.  Items are arbitrary Python objects (tuple packets,
    control messages, disk pages).
    """

    __slots__ = ("name", "capacity", "_items", "_getters", "_putters")

    def __init__(self, name: str, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store {name!r} needs capacity >= 1")
        self.name = name
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[Resume] = deque()
        # A None resume is a delivered item's: nobody waits for the slot.
        self._putters: deque[tuple[Any, Optional[Resume]]] = deque()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<Store {self.name} items={len(self._items)}>"

    def __len__(self) -> int:
        return len(self._items)

    # -- kernel-facing API ------------------------------------------------
    # _schedule_now is inlined below (seq bump + ready append): a store
    # hand-off schedules two wake-ups, and the call overhead is measurable
    # on the packet path.  _NO_VALUE entries mean "call fn()".

    def _put(self, sim: "Simulation", item: Any, resume: Resume) -> None:
        if self._getters:
            # Hand the item straight to the longest-waiting consumer.
            getter = self._getters.popleft()
            sim._seq += 1
            sim._ready.append((sim._seq, getter, item))
            sim._seq += 1
            sim._ready.append((sim._seq, resume, _NO_VALUE))
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            sim._seq += 1
            sim._ready.append((sim._seq, resume, _NO_VALUE))
        else:
            self._putters.append((item, resume))

    def _deliver(self, sim: "Simulation", item: Any) -> None:
        """:meth:`_put` from a sender that resumes nothing afterwards.

        A message chain's last hop and a lock or admission grant hand
        over ``item`` and are done; the wake-up :meth:`_put` would post for
        them only draws a sequence number, so it is not posted.  Dropping a
        ready entry whose only effect is a sequence draw keeps the relative
        (time, seq) order of every other entry, so timelines are unchanged.
        """
        if self._getters:
            sim._seq += 1
            sim._ready.append((sim._seq, self._getters.popleft(), item))
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._putters.append((item, None))

    def _get(self, sim: "Simulation", resume: Resume) -> None:
        if self._items:
            item = self._items.popleft()
            if self._putters:
                pending, putter = self._putters.popleft()
                self._items.append(pending)
                if putter is not None:
                    sim._seq += 1
                    sim._ready.append((sim._seq, putter, _NO_VALUE))
            sim._seq += 1
            sim._ready.append((sim._seq, resume, item))
        elif self._putters:
            pending, putter = self._putters.popleft()
            if putter is not None:
                sim._seq += 1
                sim._ready.append((sim._seq, putter, _NO_VALUE))
            sim._seq += 1
            sim._ready.append((sim._seq, resume, pending))
        else:
            self._getters.append(resume)


class Mailbox(Store):
    """An unbounded store that absorbs every closing mark but the last.

    Each of ``expected`` senders ends its stream with one item of type
    ``mark``; the consumer ``Get``\\ s until it receives a mark.  Only the
    ``expected``-th mark handed over wakes it: for an earlier one the
    wake-up still fires, at the (time, seq) the hand-off drew, but runs
    :meth:`_absorb` — the consumer's next ``Get``, made on its behalf —
    instead of stepping a generator that would count the mark and ask
    again.  The event stays because another item may reach the mailbox
    in the same instant, after the mark was handed over and before that
    ``Get``: it must find the consumer not waiting, as it did.

    ``marks`` counts the marks handed over; the k-th handed is the k-th
    the consumer would have counted, as hand-offs are FIFO.  Senders
    must all be registered (``expected``) before the first delivers.
    Any other item's ``Get``, ``Put`` or delivery makes no Python call
    that a plain :class:`Store`'s does not.
    """

    __slots__ = ("mark", "expected", "marks", "_sim", "_absorb_cb")

    def __init__(self, name: str, mark: type) -> None:
        super().__init__(name)
        self.mark = mark
        self.expected = 0
        self.marks = 0
        # Set when the first mark is absorbed, before _absorb can run.
        self._sim: "Simulation" = None  # type: ignore[assignment]
        self._absorb_cb = self._absorb

    def _wake(self, sim: "Simulation", resume: Resume, mark: Any) -> None:
        """Post the wake-up that hands ``mark`` to the consumer."""
        self.marks += 1
        sim._seq += 1
        if self.marks == self.expected:
            sim._ready.append((sim._seq, resume, mark))
        else:
            self._sim = sim
            sim._ready.append((sim._seq, self._absorb_cb, resume))

    def _absorb(self, resume: Resume) -> None:
        """A non-final mark's wake-up: the consumer's next ``Get``
        (:meth:`_get`, written out)."""
        sim = self._sim
        if self._items:
            item = self._items.popleft()
            if type(item) is self.mark:
                self._wake(sim, resume, item)
            else:
                sim._seq += 1
                sim._ready.append((sim._seq, resume, item))
        else:
            self._getters.append(resume)

    # Store._put / _deliver / _get of an unbounded store, with the mark
    # test inlined.
    def _put(self, sim: "Simulation", item: Any, resume: Resume) -> None:
        if self._getters:
            getter = self._getters.popleft()
            if type(item) is self.mark:
                self._wake(sim, getter, item)
            else:
                sim._seq += 1
                sim._ready.append((sim._seq, getter, item))
        else:
            self._items.append(item)
        sim._seq += 1
        sim._ready.append((sim._seq, resume, _NO_VALUE))

    def _deliver(self, sim: "Simulation", item: Any) -> None:
        # A chain's delivery: _wake is written out for the marks too,
        # as nearly every mark of a close storm arrives this way.
        if self._getters:
            getter = self._getters.popleft()
            sim._seq += 1
            if type(item) is not self.mark:
                sim._ready.append((sim._seq, getter, item))
                return
            self.marks += 1
            if self.marks == self.expected:
                sim._ready.append((sim._seq, getter, item))
            else:
                self._sim = sim
                sim._ready.append((sim._seq, self._absorb_cb, getter))
        else:
            self._items.append(item)

    def _get(self, sim: "Simulation", resume: Resume) -> None:
        if self._items:
            item = self._items.popleft()
            if type(item) is self.mark:
                self._wake(sim, resume, item)
            else:
                sim._seq += 1
                sim._ready.append((sim._seq, resume, item))
        else:
            self._getters.append(resume)
