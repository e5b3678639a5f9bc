"""Two-phase locking with deadlock detection.

The paper's tests ran "with full concurrency control" on both machines;
Gamma's scheduler processor also performs "global deadlock detection"
(Section 2).  This module provides both:

* a fragment-granularity lock manager — shared locks for scans, exclusive
  locks for updates, strict two-phase (all locks released at end of
  transaction);
* a waits-for-graph deadlock detector that runs whenever a request blocks,
  aborting the requester when it would close a cycle.

The engine acquires each transaction's locks in a canonical sorted order,
so its own workloads cannot deadlock — the detector guards ad-hoc users of
the public API.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Any, Generator, Hashable, Optional

from ..errors import ExecutionError
from ..sim import Get, Simulation, Store


class DeadlockError(ExecutionError):
    """Raised inside the requesting process chosen as the deadlock victim."""


class LockTimeoutError(ExecutionError):
    """Raised inside a requester whose lock wait exceeded its timeout."""


#: Sentinel delivered through a waiter's wakeup store when its wait expires
#: (a normal grant delivers ``None``).
_TIMED_OUT = object()


class LockMode(Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


def _compatible(held: set[LockMode], want: LockMode) -> bool:
    if not held:
        return True
    return want is LockMode.SHARED and held == {LockMode.SHARED}


class _LockState:
    __slots__ = ("holders", "queue")

    def __init__(self) -> None:
        self.holders: dict[Hashable, LockMode] = {}
        self.queue: deque[tuple[Hashable, LockMode, Store]] = deque()

    def held_modes(self) -> set[LockMode]:
        return set(self.holders.values())


class LockManager:
    """Strict 2PL over arbitrary hashable lock names."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self._locks: dict[Hashable, _LockState] = {}
        # Lock names per txn in acquisition order (dict, not set: release
        # order feeds _dispatch scheduling, and set iteration over names
        # containing strings varies with the per-process hash salt).
        self._held_by_txn: dict[Hashable, dict[Hashable, None]] = {}
        self._waits_for: dict[Hashable, set[Hashable]] = {}
        self.grants = 0
        self.blocks = 0
        self.deadlocks = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    def acquire(
        self,
        txn: Hashable,
        name: Hashable,
        mode: LockMode,
        timeout: Optional[float] = None,
    ) -> Generator[Any, Any, None]:
        """Block until ``txn`` holds ``name`` in ``mode``.

        ``timeout`` bounds the wait: when it expires the request is
        withdrawn — the queue entry is removed, the requester's waits-for
        edges are dropped (so the deadlock detector never sees a stale
        edge from a departed transaction), and waiters behind it are
        re-examined for grants.

        Raises:
            DeadlockError: if waiting would close a waits-for cycle (the
                requester is the victim, per Gamma's global detector).
            LockTimeoutError: if the wait exceeded ``timeout`` seconds.
        """
        state = self._locks.setdefault(name, _LockState())
        current = state.holders.get(txn)
        if current is mode or current is LockMode.EXCLUSIVE:
            return
        if current is LockMode.SHARED and mode is LockMode.EXCLUSIVE:
            # Upgrade: allowed only when we are the sole holder.
            if set(state.holders) == {txn} and not state.queue:
                state.holders[txn] = LockMode.EXCLUSIVE
                return
        elif _compatible(state.held_modes(), mode) and not state.queue:
            self._grant(txn, name, mode, state)
            return
        # Must wait: record the waits-for edges and check for a cycle.
        self.blocks += 1
        blockers = {t for t in state.holders if t != txn}
        blockers |= {t for t, _m, _s in state.queue if t != txn}
        self._waits_for[txn] = blockers
        if self._closes_cycle(txn):
            del self._waits_for[txn]
            self.deadlocks += 1
            raise DeadlockError(
                f"transaction {txn!r} would deadlock waiting for {name!r}"
            )
        wakeup = Store(f"lock.{name}.{txn}")
        entry = (txn, mode, wakeup)
        state.queue.append(entry)
        if timeout is not None:
            self.sim.call_after(
                timeout, lambda: self._expire(name, state, entry)
            )
        got = yield Get(wakeup)
        self._waits_for.pop(txn, None)
        if got is _TIMED_OUT:
            raise LockTimeoutError(
                f"transaction {txn!r} timed out after {timeout}s"
                f" waiting for {name!r}"
            )

    def release_all(self, txn: Hashable) -> None:
        """End of transaction: drop every lock ``txn`` holds (strict 2PL)."""
        for name in self._held_by_txn.pop(txn, ()):
            state = self._locks.get(name)
            if state is None:
                continue
            state.holders.pop(txn, None)
            self._dispatch(name, state)
        self._waits_for.pop(txn, None)

    # ------------------------------------------------------------------
    def _grant(
        self, txn: Hashable, name: Hashable, mode: LockMode, state: _LockState
    ) -> None:
        state.holders[txn] = mode
        self._held_by_txn.setdefault(txn, {})[name] = None
        self.grants += 1

    def _dispatch(self, name: Hashable, state: _LockState) -> None:
        while state.queue:
            txn, mode, wakeup = state.queue[0]
            upgrade_ok = (
                state.holders.get(txn) is LockMode.SHARED
                and mode is LockMode.EXCLUSIVE
                and set(state.holders) == {txn}
            )
            if upgrade_ok:
                state.holders[txn] = LockMode.EXCLUSIVE
            elif _compatible(state.held_modes(), mode):
                self._grant(txn, name, mode, state)
            else:
                break
            state.queue.popleft()
            self.sim.call_after(
                0.0, lambda w=wakeup: w._deliver(self.sim, None)
            )

    def _expire(
        self,
        name: Hashable,
        state: _LockState,
        entry: tuple[Hashable, LockMode, Store],
    ) -> None:
        """Withdraw a still-queued request whose wait timer fired.

        A no-op when the request was granted (dispatch removed it from the
        queue) before the timer fired at the same timestamp.
        """
        try:
            state.queue.remove(entry)
        except ValueError:
            return
        txn, _mode, wakeup = entry
        self._waits_for.pop(txn, None)
        self.timeouts += 1
        # The withdrawn entry may have been gating grantable waiters.
        self._dispatch(name, state)
        wakeup._deliver(self.sim, _TIMED_OUT)

    def _closes_cycle(self, start: Hashable) -> bool:
        """DFS over the waits-for graph looking for a path back to start."""
        stack = list(self._waits_for.get(start, ()))
        seen: set[Hashable] = set()
        while stack:
            txn = stack.pop()
            if txn == start:
                return True
            if txn in seen:
                continue
            seen.add(txn)
            stack.extend(self._waits_for.get(txn, ()))
        return False
