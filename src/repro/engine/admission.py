"""Admission control for multiuser workloads.

The paper evaluates Gamma single-user and defers the multiuser question
("The validity of this expectation will be determined in future multiuser
benchmarks").  Opening that experiment needs a throttle in front of the
drivers: without one, every terminal's query lands on the machine at once
and the interesting regime — a bounded multiprogramming level with an
admission queue in front of it — never appears.

:class:`AdmissionController` is that throttle.  It lives inside one
simulation (all waiting is simulated time, driven by kernel events) and is
machine-agnostic — the Gamma and Teradata workload sessions share it:

* a configurable **multiprogramming level** (MPL): at most ``mpl``
  requests execute concurrently, the rest queue;
* **FIFO or priority** queueing (lower priority value = served first,
  FIFO within a priority class);
* an optional per-request **timeout** on the queue wait: an expired
  entry is withdrawn from the queue and its ``admit()`` raises
  :class:`AdmissionTimeout` in the requesting process, so the client can
  record the failure and move on instead of wedging the run.

All bookkeeping (grants, timeouts, peak queue depth, queue-wait
histogram) is passive — the controller only schedules the wake-ups the
admission protocol itself requires.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Generator, Hashable, Optional

from ..errors import ExecutionError
from ..sim import Get, IntervalStats, Simulation, Store


class AdmissionError(ExecutionError):
    """Raised for admission-control protocol misuse (e.g. double release)."""


class AdmissionTimeout(AdmissionError):
    """Raised inside a requester whose queue wait exceeded the timeout."""


#: Sentinel delivered through a waiter's wakeup store when its queue wait
#: expires (a normal grant delivers ``None``).
_TIMED_OUT = object()

_POLICIES = ("fifo", "priority")


class _Entry:
    """One queued admission request, ordered by (priority, seq)."""

    __slots__ = ("priority", "seq", "token", "wakeup", "enqueued")

    def __init__(
        self,
        priority: int,
        seq: int,
        token: Hashable,
        wakeup: Store,
        enqueued: float,
    ) -> None:
        self.priority = priority
        self.seq = seq
        self.token = token
        self.wakeup = wakeup
        self.enqueued = enqueued

    def __lt__(self, other: "_Entry") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)


class AdmissionController:
    """Bounds the number of concurrently executing requests to ``mpl``.

    Usage inside a simulation process::

        yield from controller.admit(token)
        try:
            ...execute the query...
        finally:
            controller.release(token)

    ``policy="fifo"`` ignores priorities; ``policy="priority"`` serves
    lower priority values first (FIFO within a class).  ``timeout`` (in
    simulated seconds) bounds the queue wait only — once admitted, a
    request runs to completion (the drivers' own lock timeout covers
    lock waits).
    """

    def __init__(
        self,
        sim: Simulation,
        mpl: int = 4,
        policy: str = "fifo",
        timeout: Optional[float] = None,
    ) -> None:
        if mpl < 1:
            raise AdmissionError(f"multiprogramming level {mpl} < 1")
        if policy not in _POLICIES:
            raise AdmissionError(
                f"unknown admission policy {policy!r}; expected one of"
                f" {_POLICIES}"
            )
        if timeout is not None and timeout <= 0:
            raise AdmissionError(f"non-positive admission timeout {timeout}")
        self.sim = sim
        self.mpl = mpl
        self.policy = policy
        self.timeout = timeout
        self._running: set[Hashable] = set()
        self._queue: list[_Entry] = []
        self._seq = 0
        self.admitted = 0
        self.timeouts = 0
        self.peak_running = 0
        self.peak_queue = 0
        self.queue_wait = IntervalStats()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"<AdmissionController mpl={self.mpl} policy={self.policy}"
            f" running={len(self._running)} queued={len(self._queue)}>"
        )

    @property
    def running(self) -> int:
        """Requests currently admitted and executing."""
        return len(self._running)

    @property
    def queue_length(self) -> int:
        """Requests waiting for an execution slot."""
        return len(self._queue)

    # ------------------------------------------------------------------
    def admit(
        self, token: Hashable, priority: int = 0
    ) -> Generator[Any, Any, None]:
        """Block until ``token`` holds one of the ``mpl`` slots.

        Raises:
            AdmissionTimeout: when the queue wait exceeds ``timeout``.
        """
        if token in self._running:
            raise AdmissionError(f"request {token!r} already admitted")
        if len(self._running) < self.mpl and not self._queue:
            self._grant(token, 0.0)
            return
        self._seq += 1
        entry = _Entry(
            priority if self.policy == "priority" else 0,
            self._seq, token, Store(f"admit.{token}"), self.sim.now,
        )
        insort(self._queue, entry)
        if len(self._queue) > self.peak_queue:
            self.peak_queue = len(self._queue)
        if self.timeout is not None:
            self.sim.call_after(self.timeout, lambda: self._expire(entry))
        got = yield Get(entry.wakeup)
        if got is _TIMED_OUT:
            raise AdmissionTimeout(
                f"request {token!r} timed out after {self.timeout}s in the"
                f" admission queue (mpl={self.mpl},"
                f" {len(self._queue)} still queued)"
            )

    def release(self, token: Hashable) -> None:
        """Free ``token``'s slot and dispatch the next queued request."""
        try:
            self._running.remove(token)
        except KeyError:
            raise AdmissionError(
                f"release of unadmitted request {token!r}"
            ) from None
        self._dispatch()

    # ------------------------------------------------------------------
    def _grant(self, token: Hashable, waited: float) -> None:
        self._running.add(token)
        self.admitted += 1
        if len(self._running) > self.peak_running:
            self.peak_running = len(self._running)
        self.queue_wait.record(waited)

    def _dispatch(self) -> None:
        while self._queue and len(self._running) < self.mpl:
            entry = self._queue.pop(0)
            self._grant(entry.token, self.sim.now - entry.enqueued)
            entry.wakeup._deliver(self.sim, None)

    def _expire(self, entry: _Entry) -> None:
        """Withdraw a still-queued request whose timer fired (no-op when
        it was granted at the same timestamp)."""
        try:
            self._queue.remove(entry)
        except ValueError:
            return
        self.timeouts += 1
        entry.wakeup._deliver(self.sim, _TIMED_OUT)

    def as_dict(self) -> dict[str, Any]:
        """Serialisable end-of-run summary for workload reports."""
        return {
            "mpl": self.mpl,
            "policy": self.policy,
            "timeout": self.timeout,
            "admitted": self.admitted,
            "timeouts": self.timeouts,
            "peak_running": self.peak_running,
            "peak_queue": self.peak_queue,
            "queue_wait": self.queue_wait.as_dict(),
        }
