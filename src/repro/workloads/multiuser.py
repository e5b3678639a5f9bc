"""Multiuser workload generation: terminals, arrivals, and query mixes.

Section 6.2.1 defers Gamma's most interesting question: "The validity of
this expectation will be determined in future multiuser benchmarks of the
Gamma database machine."  This module opens that experiment.  It provides

* **closed-loop clients** — N simulated terminals that think (a seeded
  exponential think time, advanced purely by kernel events — there is no
  wall clock anywhere), submit a query drawn from a mix, wait for the
  answer, and think again;
* **open-loop arrivals** — a Poisson stream of submissions at a fixed
  rate, independent of completions (the overload-facing regime);
* **query mixes** — weighted mixtures over the paper's Wisconsin query
  suite (selection / join / update flavours per Tables 1-3), pluggable
  via :class:`MixEntry` builders;
* the machine-agnostic **runner** :func:`drive_workload`, which both
  :meth:`~repro.engine.machine.GammaMachine.run_workload` and
  :meth:`~repro.teradata.machine.TeradataMachine.run_workload` drive
  through a small session adapter.

Determinism: every random draw comes from a ``random.Random`` seeded
from :class:`WorkloadSpec.seed` (per-client streams are seeded
independently, so a client's behaviour does not depend on interleaving),
and all waiting is simulated time.  The same spec on the same machine
therefore reproduces the same timeline — and the same latency
percentiles — bit for bit.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Generator, Optional, Union

from ..engine.admission import AdmissionController, AdmissionTimeout
from ..engine.plan import (
    AppendTuple,
    DeleteTuple,
    ExactMatch,
    JoinMode,
    ModifyTuple,
    Query,
    RangePredicate,
    ScanNode,
    UpdateRequest,
)
from ..errors import ConfigError, ReproError
from ..metrics import QueryRecord, WorkloadResult
from ..sim import Delay
from .wisconsin import generate_tuples, selection_range

Request = Union[Query, UpdateRequest]
RequestBuilder = Callable[[random.Random], Request]

#: A large offset keeping workload-appended keys clear of any loaded
#: Wisconsin relation's unique1 range.
_APPEND_KEY_BASE = 10_000_000


@dataclass(frozen=True)
class MixEntry:
    """One weighted arm of a query mix.

    ``make`` builds a fresh request from the caller's seeded RNG (so a
    mix can vary predicates per submission); ``priority`` feeds the
    admission controller's ``priority`` policy (lower = served first —
    the classic short-query-first trick is giving updates priority 0 and
    joins priority 2).
    """

    weight: float
    kind: str
    make: RequestBuilder
    priority: int = 0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigError(
                f"mix entry {self.kind!r} needs a positive weight"
            )


class QueryMix:
    """A weighted mixture of request builders."""

    def __init__(self, name: str, entries: list[MixEntry]) -> None:
        if not entries:
            raise ConfigError(f"mix {name!r} has no entries")
        self.name = name
        self.entries = list(entries)
        self._total = sum(e.weight for e in self.entries)

    def draw(self, rng: random.Random) -> tuple[MixEntry, Request]:
        """One weighted draw: the chosen entry and a freshly built
        request."""
        point = rng.random() * self._total
        acc = 0.0
        entry = self.entries[-1]
        for candidate in self.entries:
            acc += candidate.weight
            if point < acc:
                entry = candidate
                break
        return entry, entry.make(rng)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        kinds = ", ".join(e.kind for e in self.entries)
        return f"<QueryMix {self.name}: {kinds}>"


# ---------------------------------------------------------------------------
# canonical mixes over the paper's workload
# ---------------------------------------------------------------------------


def _range_select(relation: str, n: int, selectivity: float) -> RequestBuilder:
    base = selection_range(n, selectivity)
    span = base.high - base.low

    def make(rng: random.Random) -> Request:
        # Slide the window uniformly over the attribute domain so
        # repeated submissions touch different (but same-sized) slices.
        low = rng.randrange(max(1, n - span))
        return Query.select(
            relation, RangePredicate(base.attr, low, low + span)
        )

    return make


def _exact_select(relation: str, n: int) -> RequestBuilder:
    def make(rng: random.Random) -> Request:
        return Query.select(
            relation, ExactMatch("unique1", rng.randrange(n))
        )

    return make


def _join_abprime(
    a_relation: str, bprime_relation: str, mode: JoinMode
) -> RequestBuilder:
    def make(_rng: random.Random) -> Request:
        return Query.join(
            ScanNode(bprime_relation), ScanNode(a_relation),
            on=("unique2", "unique2"), mode=mode,
        )

    return make


def _modify_nonindexed(relation: str, n: int) -> RequestBuilder:
    def make(rng: random.Random) -> Request:
        return ModifyTuple(
            relation, ExactMatch("unique1", rng.randrange(n)),
            "odd100", rng.randrange(100),
        )

    return make


def _append_fresh(relation: str, seed: int = 77) -> RequestBuilder:
    base = next(iter(generate_tuples(1, seed=seed)))

    def make(rng: random.Random) -> Request:
        key = _APPEND_KEY_BASE + rng.randrange(10**9)
        return AppendTuple(relation, (key, key) + base[2:])

    return make


def _delete_existing(relation: str, n: int) -> RequestBuilder:
    def make(rng: random.Random) -> Request:
        # A repeat draw of an already-deleted key simply affects 0 rows.
        return DeleteTuple(relation, ExactMatch("unique1", rng.randrange(n)))

    return make


def selection_mix(relation: str, n: int) -> QueryMix:
    """Table 1 flavours: exact-match, 1% and 10% range selections."""
    return QueryMix("selections", [
        MixEntry(4.0, "single-tuple select", _exact_select(relation, n)),
        MixEntry(4.0, "1% selection", _range_select(relation, n, 0.01)),
        MixEntry(2.0, "10% selection", _range_select(relation, n, 0.10)),
    ])


def update_mix(relation: str, n: int) -> QueryMix:
    """Table 3 flavours: append, delete, non-indexed modify."""
    return QueryMix("updates", [
        MixEntry(3.0, "modify non-indexed", _modify_nonindexed(relation, n)),
        MixEntry(2.0, "append", _append_fresh(relation)),
        MixEntry(1.0, "delete", _delete_existing(relation, n)),
    ])


def mixed_mix(
    a_relation: str,
    bprime_relation: str,
    n: int,
    mode: JoinMode = JoinMode.REMOTE,
) -> QueryMix:
    """The multiuser mix the paper's Section 6.2.1 argument is about:
    mostly selections, some single-tuple updates, an occasional
    joinABprime whose placement decides how much selection capacity the
    disk sites keep."""
    return QueryMix("mixed", [
        MixEntry(5.0, "single-tuple select", _exact_select(a_relation, n),
                 priority=0),
        MixEntry(4.0, "1% selection", _range_select(a_relation, n, 0.01),
                 priority=1),
        MixEntry(2.0, "10% selection", _range_select(a_relation, n, 0.10),
                 priority=1),
        MixEntry(2.0, "modify non-indexed",
                 _modify_nonindexed(a_relation, n), priority=0),
        MixEntry(1.0, "joinABprime",
                 _join_abprime(a_relation, bprime_relation, mode),
                 priority=2),
    ])


# ---------------------------------------------------------------------------
# the workload specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """How a multiuser run is shaped (all times in simulated seconds).

    Attributes:
        queries: Total requests submitted over the run.
        clients: Closed-loop terminals (ignored by open-loop arrivals).
        arrival: ``"closed"`` (terminals with think time) or ``"open"``
            (Poisson arrivals at ``arrival_rate``).
        think_time: Mean exponential think time per terminal.
        arrival_rate: Open-loop mean arrival rate (requests/second).
        mpl: Admission multiprogramming level (defaults to ``clients``
            for closed loop, 4 for open loop).
        policy: Admission queueing — ``"fifo"`` or ``"priority"``.
        timeout: Per-query bound on the admission-queue wait and on any
            single lock wait; ``None`` waits forever.
        seed: Master seed for every random draw in the run.
    """

    queries: int = 32
    clients: int = 4
    arrival: str = "closed"
    think_time: float = 0.5
    arrival_rate: float = 2.0
    mpl: Optional[int] = None
    policy: str = "fifo"
    timeout: Optional[float] = None
    seed: int = 1988

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise ConfigError(f"workload needs >= 1 query, got {self.queries}")
        if self.clients < 1:
            raise ConfigError(f"workload needs >= 1 client, got {self.clients}")
        if self.arrival not in ("closed", "open"):
            raise ConfigError(
                f"unknown arrival process {self.arrival!r};"
                " expected 'closed' or 'open'"
            )
        if self.think_time < 0:
            raise ConfigError(f"negative think time {self.think_time}")
        if self.arrival == "open" and self.arrival_rate <= 0:
            raise ConfigError(
                f"open-loop arrivals need a positive rate,"
                f" got {self.arrival_rate}"
            )

    @property
    def resolved_mpl(self) -> int:
        if self.mpl is not None:
            return self.mpl
        return self.clients if self.arrival == "closed" else 4

    def with_mpl(self, mpl: int) -> "WorkloadSpec":
        """A copy of this spec at a different multiprogramming level."""
        return replace(self, mpl=mpl)

    def client_rng(self, client: int) -> random.Random:
        """The independent random stream for one client (or the arrival
        process, ``client=-1``): seeded from (seed, client) only, so a
        client's draws never depend on scheduling interleavings."""
        return random.Random(self.seed * 1_000_003 + client + 1)


# ---------------------------------------------------------------------------
# the machine-agnostic runner
# ---------------------------------------------------------------------------


def drive_workload(
    session: Any,
    spec: WorkloadSpec,
    mix: QueryMix,
    telemetry: Optional[Any] = None,
) -> WorkloadResult:
    """Run one workload against a machine session.

    ``session`` adapts a machine to the runner; it must expose

    * ``sim`` — the shared :class:`~repro.sim.Simulation` every arrival
      is scheduled into,
    * ``label`` — the machine name for the result, and
    * ``execute(index, request)`` — a generator that plans and runs one
      request to completion inside the shared simulation, raising on
      per-request failure (deadlock victim, lock timeout, ...).

    ``telemetry`` (an already-attached
    :class:`~repro.metrics.telemetry.TelemetrySampler`) additionally
    watches the admission controller and is fed every completion for
    sliding-window SLO tracking; it is passive, so results are
    bit-identical with or without it.

    Returns the :class:`~repro.metrics.WorkloadResult` with every
    request's :class:`~repro.metrics.QueryRecord`.
    """
    sim = session.sim
    admission = AdmissionController(
        sim, mpl=spec.resolved_mpl, policy=spec.policy, timeout=spec.timeout,
    )
    if telemetry is not None:
        telemetry.watch_admission(admission)
    records: list[QueryRecord] = []
    indexes = itertools.count()

    def perform(
        client: int, entry: MixEntry, request: Request
    ) -> Generator[Any, Any, None]:
        index = next(indexes)
        token = f"q{index}"
        submitted = sim.now
        try:
            yield from admission.admit(token, priority=entry.priority)
        except AdmissionTimeout as exc:
            record = QueryRecord(
                index, client, entry.kind, submitted,
                admitted=None, finished=sim.now,
                error=f"{type(exc).__name__}: {exc}",
            )
            records.append(record)
            if telemetry is not None:
                telemetry.observe_completion(record)
            return
        admitted = sim.now
        error: Optional[str] = None
        try:
            yield from session.execute(index, request)
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            admission.release(token)
        record = QueryRecord(
            index, client, entry.kind, submitted,
            admitted=admitted, finished=sim.now, error=error,
        )
        records.append(record)
        if telemetry is not None:
            telemetry.observe_completion(record)

    if spec.arrival == "closed":
        counts = [
            spec.queries // spec.clients
            + (1 if i < spec.queries % spec.clients else 0)
            for i in range(spec.clients)
        ]

        def terminal(client: int, budget: int
                     ) -> Generator[Any, Any, None]:
            rng = spec.client_rng(client)
            for _ in range(budget):
                if spec.think_time > 0:
                    yield Delay(rng.expovariate(1.0 / spec.think_time))
                entry, request = mix.draw(rng)
                yield from perform(client, entry, request)

        for client, budget in enumerate(counts):
            if budget > 0:
                sim.spawn(terminal(client, budget), name=f"term{client}")
    else:

        def arrivals() -> Generator[Any, Any, None]:
            rng = spec.client_rng(-1)
            for _ in range(spec.queries):
                yield Delay(rng.expovariate(spec.arrival_rate))
                entry, request = mix.draw(rng)
                sim.spawn(
                    perform(-1, entry, request), name="arrival"
                )

        sim.spawn(arrivals(), name="arrivals")

    elapsed = sim.run()
    records.sort(key=lambda r: r.index)
    return WorkloadResult(
        machine=session.label,
        mix=mix.name,
        arrival=spec.arrival,
        clients=spec.clients,
        mpl=spec.resolved_mpl,
        policy=spec.policy,
        seed=spec.seed,
        elapsed=elapsed,
        records=records,
        admission=admission.as_dict(),
    )
