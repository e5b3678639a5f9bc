"""Effect objects yielded by simulation processes.

A simulation process is a Python generator.  Instead of blocking, it yields
one of the effect objects defined here; the kernel performs the effect and
resumes the generator (``gen.send(result)``) when the effect completes.

Effects are deliberately tiny descriptions — all behaviour lives in
:mod:`repro.sim.kernel` and :mod:`repro.sim.resources`.  The kernel reads
an effect's fields once, at the yield (it keeps the object only to name
it in a deadlock report), so a hot caller may own one ``Use``/``Put`` and
rewrite it per yield — nodes and page feeders do — rather than allocate one
each time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .kernel import Process
    from .resources import Server, Store


class Delay:
    """Suspend the process for ``duration`` simulated seconds.

    The four hot effects (Delay/Use/Put/Get) are hand-written slotted
    classes rather than frozen dataclasses: a frozen dataclass pays an
    ``object.__setattr__`` per field on construction, and these are
    allocated once per yield on the kernel's hottest paths.
    """

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Delay(duration={self.duration!r})"


@dataclass(frozen=True, slots=True)
class Acquire:
    """Enter the FIFO queue of ``server``; resume once a slot is granted.

    The process owns the slot until it yields a matching :class:`Release`.
    """

    server: "Server"


@dataclass(frozen=True, slots=True)
class Release:
    """Give back a slot previously obtained with :class:`Acquire`."""

    server: "Server"


class Use:
    """Acquire ``server``, hold it for ``duration``, then release it.

    Equivalent to ``Acquire`` + ``Delay`` + ``Release`` but cheaper and
    impossible to leak.
    """

    __slots__ = ("server", "duration")

    def __init__(self, server: "Server", duration: float) -> None:
        self.server = server
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Use(server={self.server!r}, duration={self.duration!r})"


class UseRun:
    """Serve ``hops`` on ``server`` back to back: a *service run*.

    ``hops`` yields one service duration per hop and is drawn lazily —
    each hop's duration only once the hop before it has finished — so
    state an iterator keeps or mutates (a drive's head position, an LRU)
    evolves as it does under ``for d in hops: yield Use(server, d)``,
    which a run is equivalent to.  On a server declared private that
    nothing observes the whole run costs one kernel event
    (:meth:`Server._run_private`).
    """

    __slots__ = ("server", "hops")

    def __init__(self, server: "Server", hops: Iterable[float]) -> None:
        self.server = server
        self.hops = hops

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"UseRun(server={self.server!r})"


class Put:
    """Append ``item`` to ``store``; resume when capacity allows."""

    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any) -> None:
        self.store = store
        self.item = item

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Put(store={self.store!r}, item={self.item!r})"


class Get:
    """Resume with the next item from ``store`` (FIFO order)."""

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        self.store = store

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Get(store={self.store!r})"


@dataclass(frozen=True, slots=True)
class Join:
    """Resume (with the process return value) once ``process`` finishes."""

    process: "Process"


@dataclass(frozen=True, slots=True)
class WaitAll:
    """Resume once every process in ``processes`` has finished.

    The result is a list of the processes' return values, in order.
    """

    processes: Sequence["Process"] = field(default_factory=tuple)


Effect = (
    Delay | Acquire | Release | Use | UseRun | Put | Get | Join | WaitAll
)
