"""Generator-based discrete-event simulation kernel.

This is the NOSE substitute: the paper's operating system provides
lightweight processes with cheap message passing; here a
:class:`Simulation` owns a priority queue of timestamped wake-ups and a set
of :class:`Process` objects (plain Python generators).  Processes yield
effect objects from :mod:`repro.sim.events`; the kernel performs the effect
and resumes the generator when it completes.  A yielded ``None`` means
"nothing to wait for": the kernel resumes the generator within the same
step — no event, no sequence number, no clock movement.

The kernel is deterministic: simultaneous events fire in the order they were
scheduled (FIFO tie-break on a sequence counter), so a given workload always
produces exactly the same simulated timeline.

Hot-path design (the kernel dominates a simulation's wall-clock cost):

* Effects dispatch through a type-keyed table (``_HANDLERS``) instead of an
  ``isinstance`` ladder.
* Each :class:`Process` carries one preallocated ``_resume`` closure; the
  kernel never allocates a fresh callback per step.
* The simulation keeps live processes only.  A process that finishes (or
  fails) leaves ``_procs`` and drops its resume closure and its last
  effect, the two references that tie it into cycles, so refcounting
  frees it, and its generator, at once.
* Zero-delay wake-ups (``call_after(0.0, …)`` — mailbox hand-offs, slot
  grants, spawns) skip the heap entirely and go through a FIFO *ready*
  deque.  Ready entries and heap events share the global sequence counter,
  so the execution order is exactly the (time, seq) total order the simple
  heap-only kernel produced: timelines are bit-identical.

Telemetry (:meth:`Simulation.set_sample_hook`) is *pulled*, never
scheduled: the kernel invokes the hook when the clock is about to cross
the next sample boundary, instead of the sampler posting wake-up events.
A sampler therefore consumes no sequence numbers, never appears in the
heap, and cannot move the final clock — the timeline is bit-identical
with sampling on or off, by construction rather than by discipline.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import SimulationError
from .events import (
    Acquire,
    Delay,
    Get,
    Join,
    Put,
    Release,
    Use,
    UseRun,
    WaitAll,
)

ProcessGen = Generator[Any, Any, Any]

#: Sentinel distinguishing "call fn()" from "call fn(value)" ready entries.
_NO_VALUE = object()


class Process:
    """A running simulation process wrapping a generator.

    Attributes:
        name: Diagnostic label used in error messages.
        finished: True once the generator has returned or raised.
        value: The generator's return value (valid when ``finished``).
        blocked_on: The effect this process is currently suspended on
            (diagnostics; ``None`` once finished).
        parent: The process that was running when this one was spawned
            (``None`` for externally spawned roots).  Attribution metadata
            only — helper processes (page feeders) resolve to the
            operator that created them by walking this chain.
    """

    __slots__ = (
        "_gen", "name", "finished", "value", "failure", "_waiters",
        "blocked_on", "_resume", "parent",
    )

    def __init__(self, gen: ProcessGen, name: str = "proc") -> None:
        self._gen = gen
        self.name = name
        self.finished = False
        self.value: Any = None
        self.failure: Optional[BaseException] = None
        self._waiters: list[Callable[[Any], None]] = []
        self.blocked_on: Any = None
        self._resume: Callable[..., None] = _not_running
        self.parent: Optional["Process"] = None

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = "done" if self.finished else "running"
        return f"<Process {self.name} {state}>"

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        if self.finished:
            resume(self.value)
        else:
            self._waiters.append(resume)


def _not_running(value: Any = None) -> None:  # pragma: no cover - guard only
    raise SimulationError("process resumed before its spawn or after its end")


class Simulation:
    """Discrete-event simulation with generator processes.

    Typical usage::

        sim = Simulation()
        sim.spawn(my_process(sim), name="scan")
        sim.run()
        print(sim.now)
    """

    __slots__ = (
        "_now", "_seq", "_heap", "_ready", "_procs",
        "events_processed", "_current", "_sample_hook", "_sample_due",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        # Heap entries carry an optional resume argument so resources can
        # schedule a bound method + arg instead of allocating a closure
        # per service interval; ``_NO_VALUE`` means "call fn()".
        self._heap: list[tuple[float, int, Callable[..., None], Any]] = []
        self._ready: deque[tuple[int, Callable[..., None], Any]] = deque()
        # The live processes, in spawn order (the deadlock report's).
        self._procs: dict[Process, None] = {}
        self.events_processed = 0
        #: The process whose generator is currently executing (None between
        #: runs).  Purely observational: profilers read it to attribute
        #: resource usage; spawn() reads it to record parentage.
        self._current: Optional[Process] = None
        # Pulled telemetry (see set_sample_hook).  The hook is invoked by
        # run() when the clock is about to advance to or past _sample_due;
        # float("inf") disables the check with one dead comparison per
        # heap pop.
        self._sample_hook: Optional[Callable[[float], float]] = None
        self._sample_due = float("inf")

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if delay == 0.0:
            self._seq += 1
            self._ready.append((self._seq, fn, _NO_VALUE))
            return
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, fn, _NO_VALUE))

    def _schedule_now(self, fn: Callable[..., None], value: Any = _NO_VALUE) -> None:
        """Zero-delay schedule without allocating a closure for ``value``."""
        self._seq += 1
        self._ready.append((self._seq, fn, value))

    # ------------------------------------------------------------------
    # pulled telemetry
    # ------------------------------------------------------------------
    def set_sample_hook(
        self, hook: Optional[Callable[[float], float]], first_due: float
    ) -> None:
        """Install a passive sampling hook (or remove it with ``None``).

        ``hook(limit)`` is called when the clock is about to advance to a
        heap event at ``time >= first_due``; it must observe whatever
        state it wants (resources pro-rate their accounting to any
        timestamp) for every sample boundary ``<= limit`` and return the
        next due time.  The hook runs *before* the events at ``limit``
        fire, so a sample at boundary ``t`` sees the state produced by
        all events strictly before ``t``'s crossing — a deterministic
        cut.  The kernel never schedules anything on the hook's behalf:
        no sequence numbers are consumed and the final clock is
        untouched, so timelines are bit-identical with sampling on/off.
        """
        self._sample_hook = hook
        self._sample_due = float("inf") if hook is None else first_due

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def spawn(self, gen: ProcessGen, name: str = "proc") -> Process:
        """Start a new process immediately (at the current time)."""
        proc = Process(gen, name)
        proc.parent = self._current
        step = self._step

        def resume(value: Any = None, _proc: Process = proc) -> None:
            step(_proc, value)

        proc._resume = resume
        self._procs[proc] = None
        self._schedule_now(resume)
        return proc

    def _step(self, proc: Process, value: Any) -> None:
        """Resume ``proc`` with ``value`` and perform its next effect."""
        # blocked_on is not cleared here: it is overwritten below on every
        # yield, and _release clears it once the process ends.
        self._current = proc
        try:
            gen = proc._gen
            effect = gen.send(value)
            while effect is None:
                # Nothing to wait for: go on within this step.
                effect = gen.send(None)
        except StopIteration as stop:
            self._finish(proc, stop.value)
            return
        except BaseException as exc:
            proc.finished = True
            proc.failure = exc
            self._release(proc)
            raise SimulationError(
                f"process {proc.name!r} failed at t={self._now:.6f}"
            ) from exc
        proc.blocked_on = effect
        # The four hot effects dispatch inline (one type check each, no
        # handler-table lookup and no _do_* frame); everything else falls
        # through to the table.
        cls = effect.__class__
        if cls is Use:
            effect.server._use(self, effect.duration, proc._resume, proc)
            return
        if cls is Get:
            effect.store._get(self, proc._resume)
            return
        if cls is Put:
            effect.store._put(self, effect.item, proc._resume)
            return
        if cls is Delay:
            duration = effect.duration
            if duration < 0:
                raise SimulationError(
                    f"process {proc.name!r} yielded negative delay"
                )
            self._seq += 1
            if duration == 0.0:
                self._ready.append((self._seq, proc._resume, _NO_VALUE))
            else:
                heapq.heappush(
                    self._heap,
                    (self._now + duration, self._seq, proc._resume, _NO_VALUE),
                )
            return
        handler = _HANDLERS.get(cls)
        if handler is None:
            raise SimulationError(
                f"process {proc.name!r} yielded unknown effect {effect!r}"
            )
        handler(self, proc, effect)

    def _finish(self, proc: Process, value: Any) -> None:
        proc.finished = True
        proc.value = value
        self._release(proc)
        waiters, proc._waiters = proc._waiters, []
        for resume in waiters:
            resume(value)

    def _release(self, proc: Process) -> None:
        """Forget a process that has ended.  The resume closure and the
        last effect (a chain names its owner) each close a reference
        cycle through ``proc``; without them refcounting frees it as soon
        as nothing else holds it."""
        del self._procs[proc]
        proc._resume = _not_running
        proc.blocked_on = None

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains (or simulated ``until``).

        Returns the final simulated time.  The cutoff and early-drain
        paths are consistent: with ``until`` given, the clock always
        advances to ``until`` even when the queue drains first.  A cutoff
        leaves every not-yet-due event in the queue, so a subsequent
        ``run()`` resumes exactly where this one stopped.

        Raises:
            SimulationError: if the event queue drains while unfinished
                processes remain blocked — a deadlocked dataflow must not
                masquerade as a fast completion.  The error names every
                stuck process and the Store/Server it blocks on.
        """
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        pop_ready = ready.popleft
        no_cutoff = until is None
        events = 0
        # Local mirror of self._now: only heap pops advance the clock, so
        # the hot ready-vs-heap comparison can read a local.  sample_due
        # mirrors self._sample_due the same way (inf when no hook).
        now = self._now
        sample_due = self._sample_due
        try:
            while heap or ready:
                # Ready entries fire at the current timestamp; heap events
                # already due at `now` with a smaller sequence number fire
                # first, preserving the global (time, seq) order.
                if ready and (
                    not heap
                    or heap[0][0] > now
                    or heap[0][1] > ready[0][0]
                ):
                    _seq, fn, value = pop_ready()
                    events += 1
                    if value is _NO_VALUE:
                        fn()
                    else:
                        fn(value)
                    continue
                event = heappop(heap)
                time = event[0]
                if not no_cutoff and time > until:
                    heapq.heappush(heap, event)
                    if until >= sample_due:
                        self._sample_due = self._sample_hook(until)
                    self._now = until
                    return self._now
                if time >= sample_due:
                    # Sample every boundary the clock is about to cross,
                    # before the events at `time` fire.
                    sample_due = self._sample_due = self._sample_hook(time)
                self._now = now = time
                events += 1
                arg = event[3]
                if arg is _NO_VALUE:
                    event[2]()
                else:
                    event[2](arg)
        finally:
            self.events_processed += events
            # Between runs no process is executing (nor held alive here).
            self._current = None
        if self._procs:
            raise SimulationError(self._deadlock_message())
        if until is not None and until > self._now:
            if until >= self._sample_due:
                self._sample_due = self._sample_hook(until)
            self._now = until
        return self._now

    def _deadlock_message(self) -> str:
        stuck = list(self._procs)
        lines = [
            f"deadlock at t={self._now:.6f}:"
            f" {len(stuck)} process(es) blocked with no pending events"
        ]
        for proc in stuck:
            lines.append(
                f"  - {proc.name!r} blocked on "
                + _describe_block(proc.blocked_on)
            )
        return "\n".join(lines)


class Chain:
    """Hops served one after another, then a hand-off: one message's
    path across the interconnect, or one service run on a shared server.

    ``hops`` is one flat tuple ``(server, seconds, server, seconds, …)``,
    indexed as the chain goes: a message is the chain and its tuple, two
    objects however many hops it makes.  A hop on a server is
    ``server._use(sim, seconds, self, None)`` — the chain is the request's
    ``resume``, and ``Server.hooks`` see its ``owner`` — and a hop on
    ``None`` is a plain delay (a same-node message's short-circuit).
    After the last hop a chain *yielded as an effect* steps its owner, the
    yielding process: ``for server, d in hops: yield Use(server, d)``
    without the generator frames and the ``Use`` per hop.  A chain
    *started* with ``sim._schedule_now`` (``sim``, ``owner``, ``store``
    and ``item`` given) delivers ``item`` into ``store`` with
    ``Store._deliver``: a courier process's hops and ``Put`` without the
    process and without the resume after the ``Put``, which only drew a
    sequence number.  The (time, seq) order of every hop is the loop's:
    ``Server._complete`` passes the slot on and then calls the chain in
    the same event, with the same draws, as ``_complete_proc`` stepping a
    process.  ``served`` counts finished hops for the deadlock report.
    """

    __slots__ = ("hops", "sim", "owner", "store", "item", "server", "served")

    def __init__(
        self,
        hops: Any,
        sim: Optional[Simulation] = None,
        owner: Optional[Process] = None,
        store: Any = None,
        item: Any = None,
    ) -> None:
        self.hops = hops
        self.sim = sim
        self.owner = owner
        self.store = store
        self.item = item
        self.server: Any = None
        self.served = -1  # hops finished; the first call finishes none

    def __call__(self, _value: Any = None) -> None:
        self.served = served = self.served + 1
        hops = self.hops
        k = served + served
        if k < len(hops):
            self.server = server = hops[k]
            if server is None:
                self.sim.call_after(hops[k + 1], self)
            else:
                server._use(self.sim, hops[k + 1], self, None)
            return
        if self.store is None:
            self.sim._step(self.owner, None)
        else:
            self.store._deliver(self.sim, self.item)


class _Run(Chain):
    """A ``UseRun`` on a shared server: a chain whose every hop is on
    ``server`` and whose durations are drawn lazily — each only once the
    hop before it has finished (a write run's buffer-pool entries land
    between hops)."""

    __slots__ = ()

    def __init__(self, server: Any, durations: Iterable[float]) -> None:
        super().__init__(iter(durations))
        self.server = server

    def __call__(self, _value: Any = None) -> None:
        self.served += 1
        # One pass at most: the loop draws the next hop without a call.
        for seconds in self.hops:
            self.server._use(self.sim, seconds, self, None)
            return
        self.sim._step(self.owner, None)


# ---------------------------------------------------------------------------
# effect handlers (type-keyed dispatch)
# ---------------------------------------------------------------------------


def _do_delay(sim: Simulation, proc: Process, effect: Delay) -> None:
    duration = effect.duration
    if duration < 0:
        raise SimulationError(
            f"process {proc.name!r} yielded negative delay"
        )
    if duration == 0.0:
        sim._schedule_now(proc._resume)
    else:
        sim._seq += 1
        heapq.heappush(
            sim._heap, (sim._now + duration, sim._seq, proc._resume, _NO_VALUE)
        )


def _do_use(sim: Simulation, proc: Process, effect: Use) -> None:
    effect.server._use(sim, effect.duration, proc._resume, proc)


def _do_use_run(sim: Simulation, proc: Process, effect: UseRun) -> None:
    server = effect.server
    # The one place a run may collapse into one event: on a private
    # server nothing observes.  A server hook needs every hop, and a
    # sample hook reads the accruals at boundaries inside the run.
    if server.private and not server.hooks and sim._sample_hook is None:
        server._run_private(sim, proc, effect.hops)
    else:
        chain = _Run(server, effect.hops)
        proc.blocked_on = chain
        _do_chain(sim, proc, chain)


def _do_chain(sim: Simulation, proc: Process, chain: Chain) -> None:
    chain.sim = sim
    chain.owner = proc
    chain()


def _do_acquire(sim: Simulation, proc: Process, effect: Acquire) -> None:
    effect.server._acquire(sim, proc._resume)


def _do_release(sim: Simulation, proc: Process, effect: Release) -> None:
    effect.server._release(sim)
    sim._schedule_now(proc._resume)


def _do_put(sim: Simulation, proc: Process, effect: Put) -> None:
    effect.store._put(sim, effect.item, proc._resume)


def _do_get(sim: Simulation, proc: Process, effect: Get) -> None:
    effect.store._get(sim, proc._resume)


def _do_join(sim: Simulation, proc: Process, effect: Join) -> None:
    effect.process._add_waiter(proc._resume)


def _do_wait_all(sim: Simulation, proc: Process, effect: WaitAll) -> None:
    _wait_all(list(effect.processes), proc._resume)


_HANDLERS: dict[type, Callable[[Simulation, Process, Any], None]] = {
    Delay: _do_delay,
    Use: _do_use,
    UseRun: _do_use_run,
    Chain: _do_chain,
    Acquire: _do_acquire,
    Release: _do_release,
    Put: _do_put,
    Get: _do_get,
    Join: _do_join,
    WaitAll: _do_wait_all,
}


def _describe_block(effect: Any) -> str:
    """Human-readable description of the effect a stuck process waits on."""
    if isinstance(effect, Get):
        return f"Get(Store {effect.store.name!r}, empty)"
    if isinstance(effect, Put):
        return f"Put(Store {effect.store.name!r}, full)"
    if isinstance(effect, Acquire):
        return f"Acquire(Server {effect.server.name!r})"
    if isinstance(effect, Use):
        return f"Use(Server {effect.server.name!r})"
    if isinstance(effect, Chain):
        return (
            f"UseRun(Server {effect.server.name!r},"
            f" {effect.served} hop(s) served)"
        )
    if isinstance(effect, Join):
        return f"Join(process {effect.process.name!r})"
    if isinstance(effect, WaitAll):
        pending = [p.name for p in effect.processes if not p.finished]
        return f"WaitAll(pending: {', '.join(pending) or 'none'})"
    if effect is None:
        return "nothing (never scheduled)"
    return repr(effect)


def _wait_all(procs: list[Process], resume: Callable[[Any], None]) -> None:
    """Resume once every process in ``procs`` finished, with their values."""
    remaining = len(procs)
    results: list[Any] = [None] * len(procs)
    if remaining == 0:
        resume(results)
        return

    state = {"left": remaining}

    def make_waiter(index: int) -> Callable[[Any], None]:
        def waiter(value: Any) -> None:
            results[index] = value
            state["left"] -= 1
            if state["left"] == 0:
                resume(results)

        return waiter

    for i, proc in enumerate(procs):
        proc._add_waiter(make_waiter(i))


def run_to_completion(gens: Iterable[ProcessGen]) -> float:
    """Convenience: run a fresh simulation over ``gens`` and return end time."""
    sim = Simulation()
    for i, gen in enumerate(gens):
        sim.spawn(gen, name=f"proc-{i}")
    return sim.run()
