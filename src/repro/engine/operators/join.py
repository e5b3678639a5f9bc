"""Distributed hash join [DEWI85, KITS83] with four overflow policies.

Phase one builds main-memory hash tables from the (smaller) building
relation; phase two probes them with the larger relation; a resolve phase
joins whatever was spooled; a close phase ends each node's output stream.
:class:`HashJoinDriver` runs that one skeleton under every policy, with the
same ports, bit filters, insert and probe kernels and hash-table counter.
``GammaConfig.join_overflow`` names the :class:`OverflowPolicy` (read
once, in :data:`POLICIES`) whose hooks make the decisions the skeleton
leaves open — the design space of "Design Trade-offs for a Robust Dynamic
Hybrid Hash Join": the key-space layout that routes a key, the reaction to
a full table, the spools flushed after a phase, the probe distribution
switch and the resolve.

* ``simple`` — the paper's measured algorithm.  The node shrinks the
  fraction of the key space it keeps resident, evicts everything else to
  spool files, and the overflow tuples are redistributed across **all**
  joining processors with a *different* hash function ("This change in
  hash functions is necessary in order to ensure that all joining
  processors are used in the case when only a subset of sites
  overflow").  Spooled build/probe pairs are joined one round per
  overflow generation, which is what makes the algorithm "deteriorate
  exponentially with multiple overflows" (Figure 13) and why Local joins
  lose their short-circuit advantage after the first overflow.
* ``static`` / ``demote`` / ``dynamic`` — the parallel Hybrid hash join
  the Conclusions announce as the replacement.  Each node *plans* its
  memory from the optimizer's estimate (:class:`PartitionPlan`):
  partition 0 is built at once, partitions 1..k-1 are spooled locally on
  both sides and joined one at a time afterwards, each tuple written and
  read once.  The three differ only in how they meet an estimate that
  was wrong (:class:`Static`, :class:`Demote`, :class:`Dynamic`).

Every policy charges a build batch of ``n`` records ``n *
(hash_table_insert + bitfilter_set)`` (spilled ones included; no
``bitfilter_set`` without filters) plus ``simple``'s eviction rehash, and
a probe batch ``n * hash_table_probe`` plus ``join_result_tuple`` per
match.  Each bulk multiply equals the per-record float sum to the bit
because every ``GammaCosts`` constant is integer-valued.  All cuts are
pure functions of the key hash, so every policy is deterministic.
"""

from __future__ import annotations

from collections import defaultdict, deque
from math import ceil, inf
from typing import Any, Callable, Generator, Iterable, Optional

from ...catalog.partitioning import stable_hash
from ...errors import ExecutionError
from ...sim import WaitAll
from ..bitfilter import BitVectorFilter
from ..node import ExecutionContext, Node
from ..ports import EndOfStream, InputPort, OutputPort
from ..split_table import Destination
from .base import DestSpec, SpoolFile, operator_done

#: ``simple``: resolution rounds before the join gives up.  A build side
#: whose keys all collide never fits however the key space is cut.
MAX_OVERFLOW_ROUNDS = 100

#: ``dynamic``: depth bound for recursive re-partitioning of a spooled
#: pair; beyond it the resolve sweep falls back to chunk-and-rescan.
MAX_RECURSION = 3

#: Hybrid overflow reactions trigger past ``capacity * OVERFLOW_SLACK``,
#: not the instant capacity is crossed: the plan sizes partition 0 at 0.95
#: of capacity precisely to absorb per-node distribution variance of the
#: hash split, so single-digit overruns are expected noise.  Genuine
#: estimate error overshoots by integer factors and blows past the slack.
OVERFLOW_SLACK = 1.10

_M64 = 0xFFFFFFFFFFFFFFFF


def _h2(value: Any, seed: int) -> float:
    """The overflow subpartitioning hash family: uniform in [0, 1).

    Independent of :func:`repro.catalog.partitioning.gamma_hash`, so the
    first overflow really does "switch hash functions".  A splitmix64
    finalizer makes different seeds mutually independent (Python's tuple
    hash is *not*, and correlated families would skew the overflow
    exchange).  Built on :func:`stable_hash` so string join keys route
    identically regardless of ``PYTHONHASHSEED``.
    """
    h = (stable_hash(value) ^ (seed * 0x9E3779B97F4A7C15)) & _M64
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _M64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _M64
    h ^= h >> 31
    return (h >> 11) / float(1 << 53)


def _route_h(value: Any, seed: int) -> float:
    """The hash that picks which node owns a spooled tuple (``simple``).

    It must be independent of :func:`_h2`: every spooled tuple has
    ``_h2(key) >= kept`` by construction, so routing by the same value
    would crowd all overflow work onto the top slice of the joining
    processors.  An independent family keeps every processor busy during
    overflow resolution — the paper's stated reason for switching hash
    functions.
    """
    return _h2(value, seed + 1_000_003)


# ---------------------------------------------------------------------------
# the skeleton: per-node state, build, probe, close
# ---------------------------------------------------------------------------


class JoinState:
    """Per-node state of one distributed hash join, under any policy.

    ``route(key)`` is the policy's ``plan.partition_of``: 0 = resident,
    ``p > 0`` = ``build_spools``/``probe_spools[p - 1]`` (a bound method
    of the plan, not of the state, so the state stays free of reference
    cycles and its table is freed at once).  A table past ``evict_at``
    makes the insert kernel call ``policy.evict`` mid-batch; one past
    ``trigger_bytes`` after a batch calls ``policy.destage``.  A policy
    that never reacts at one of them leaves it infinite.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        node: Node,
        index: int,
        policy: OverflowPolicy,
        positions: tuple[int, int],
        record_bytes: tuple[int, int],
        capacity_bytes: int,
        expected_build_tuples: float,
        output: OutputPort,
        bit_filter: Optional[BitVectorFilter],
        ports: tuple[InputPort, InputPort],
    ) -> None:
        self.ctx = ctx
        self.node = node
        self.index = index
        self.policy = policy
        self.build_pos, self.probe_pos = positions
        self.build_record_bytes, self.probe_record_bytes = record_bytes
        self.capacity_bytes = capacity_bytes
        self.expected_build_tuples = expected_build_tuples
        self.output = output
        self.bit_filter = bit_filter
        self.build_port, self.probe_port = ports
        self.entry_bytes = (
            self.build_record_bytes * ctx.config.hash_table_overhead
        )
        self.table: dict[Any, list[tuple]] = defaultdict(list)
        self.bytes_used = 0.0
        self.matches = 0
        #: Actual overflow reactions (Simple evictions; Hybrid static
        #: activation, demotions, re-partitionings and extra resolve
        #: chunks) — what ``QueryResult.overflows_per_node`` reports.
        self.overflows = 0
        #: True while every key stays resident, so the consumers skip the
        #: per-record hash; cleared by the first overflow reaction.
        self.all_in_memory = True
        self.evict_at = self.trigger_bytes = inf
        #: The policy's key-space layout; ``route`` is its
        #: ``partition_of``.
        self.plan: Any
        self.route: Callable[[Any], int]
        self.build_spools: list[SpoolFile] = []
        self.probe_spools: list[SpoolFile] = []
        self.overflow_build: Optional[SpoolFile] = None
        self.overflow_probe: Optional[SpoolFile] = None
        policy.open(self)

    def spool(self, label: str, probe: bool = False) -> SpoolFile:
        """A spool file of this node's build (or probe) records."""
        return SpoolFile(self.ctx, self.node, label, self.probe_record_bytes
                         if probe else self.build_record_bytes)

    def overflowed(self) -> None:
        """Count one overflow reaction, per node and in the query's
        ``hash_overflows``."""
        self.overflows += 1
        self.ctx.metrics.record_overflow_chunk(self.node.name)


def _table_counter(state: JoinState) -> None:
    """Passive hash-table telemetry: metrics sample + Perfetto counter."""
    ctx = state.ctx
    ctx.metrics.record_hash_table_bytes(state.node.name, state.bytes_used)
    if ctx.trace is not None:
        args = {"bytes": float(state.bytes_used),
                "overflows": float(state.overflows)}
        partitions = state.plan.n_partitions
        if partitions is not None:
            args["partitions"] = float(partitions)
        ctx.trace.counter(state.node.name, "hash-table", ctx.sim.now, args)


def _evict_above(
    state: JoinState, seed: int, cut: float
) -> list[tuple[Any, list[tuple]]]:
    """Pop the buckets with ``_h2(key, seed) >= cut`` in insertion order."""
    table = state.table
    doomed = [key for key in table if _h2(key, seed) >= cut]
    return [(key, table.pop(key)) for key in doomed]


def _insert(
    state: JoinState, records: list[tuple], spill: dict[int, list[tuple]]
) -> tuple[float, Optional[list[tuple]]]:
    """Insert one build batch; returns its CPU charge and the records for
    the static overflow spool (``None`` while that spool is closed).

    Resident records go into the table, the rest to ``spill[p]``.  While
    every key is resident the route is skipped; crossing ``evict_at``
    calls the policy's ``evict``, which adds its rehash to the charge and
    re-enables the route mid-batch.  A spilled record sets its bit too:
    the merged filter screens the whole probe stream, spooled partitions
    included.
    """
    costs = state.node.config.costs
    bf = state.bit_filter
    bf_add = bf.add if bf is not None else None
    per_record = costs.hash_table_insert
    if bf is not None:
        per_record += costs.bitfilter_set
    cpu = per_record * len(records)
    pos = state.build_pos
    entry_bytes = state.entry_bytes
    evict_at = state.evict_at
    table = state.table
    bytes_used = state.bytes_used
    route = state.route
    overflow: Optional[list[tuple]] = (
        None if state.overflow_build is None else []
    )
    fast = state.all_in_memory
    for record in records:
        key = record[pos]
        if bf_add is not None:
            bf_add(key)
        if not fast:
            p = route(key)
            if p:
                spill[p].append(record)
                continue
            if overflow is not None:
                overflow.append(record)
                continue
        table[key].append(record)
        bytes_used += entry_bytes
        if bytes_used > evict_at:
            state.bytes_used = bytes_used
            cpu += state.policy.evict(state, spill)
            bytes_used = state.bytes_used
            fast = False
    state.bytes_used = bytes_used
    return cpu, overflow


def _build_batch(
    state: JoinState, records: list[tuple]
) -> Generator[Any, Any, None]:
    """Insert one batch, pay for it, spool what it spilled, then let the
    policy react if the table passed its trigger."""
    spill: dict[int, list[tuple]] = defaultdict(list)
    cpu, overflow = _insert(state, records, spill)
    _table_counter(state)
    yield state.node.work(cpu)
    for p, batch in spill.items():
        yield from state.build_spools[p - 1].add_batch(
            batch, sender=state.node
        )
    if overflow:
        assert state.overflow_build is not None
        yield from state.overflow_build.add_batch(overflow)
    if state.bytes_used > state.trigger_bytes:
        yield from state.policy.destage(state)


def build_consumer(
    ctx: ExecutionContext, state: JoinState
) -> Generator[Any, Any, None]:
    """Drain the build port into the hash table (phase one).

    The receive loop is :meth:`InputPort.next_packet` written inline —
    one Get yield per data packet, then ``receive_effect`` and, on an
    observed port, ``observe``; the mailbox keeps every EndOfStream but
    the last — so receiving makes no generator.
    """
    port = state.build_port
    get_effect = port._get_effect
    receive = port.receive_effect
    observed = port.observed
    while True:
        message = yield get_effect
        if type(message) is EndOfStream:
            break
        yield receive(message)
        if observed:
            port.observe(message)
        yield from _build_batch(state, message.records)
    policy = state.policy
    for spool in policy.flushed(state.build_spools, state.overflow_build):
        yield from spool.flush()


def _probe(
    records: list[tuple], pos: int, table_get: Any, res_append: Any,
    cpu: float, result_cost: float,
) -> float:
    """The probe kernel: append every match of ``records``; returns
    ``cpu`` plus the result charge of the matches."""
    for record in records:
        bucket = table_get(record[pos])
        if bucket:
            cpu += result_cost * len(bucket)
            for build_record in bucket:
                res_append(build_record + record)
    return cpu


def _probe_batch(
    state: JoinState, records: list[tuple]
) -> Generator[Any, Any, None]:
    """Probe with a batch, spooling tuples aimed at spooled partitions.

    Under an active static-policy overflow, resident-region probes are
    *dual-routed*: probed against the memory-resident table now, and
    spooled for the resolve sweep against the overflowed build tuples —
    each build tuple lives in exactly one place, so no duplicates.
    """
    costs = state.node.config.costs
    # Hits, misses and spills all pay the probe charge.
    cpu = costs.hash_table_probe * len(records)
    spill: dict[int, list[tuple]] = {}
    if state.all_in_memory:
        resident = records
    else:
        resident = []
        spill = defaultdict(list)
        route = state.route
        pos = state.probe_pos
        for record in records:
            p = route(record[pos])
            if p:
                spill[p].append(record)
            else:
                resident.append(record)
    results: list[tuple] = []
    cpu = _probe(resident, state.probe_pos, state.table.get, results.append,
                 cpu, costs.join_result_tuple)
    state.matches += len(results)
    yield state.node.work(cpu)
    if results:
        yield from state.output.emit_many(results)
    for p, batch in spill.items():
        yield from state.probe_spools[p - 1].add_batch(
            batch, sender=state.node
        )
    if state.overflow_probe is not None and resident:
        yield from state.overflow_probe.add_batch(resident)


def probe_consumer(
    ctx: ExecutionContext, state: JoinState
) -> Generator[Any, Any, None]:
    """Drain the probe port through the hash table (phase two).

    Same inline receive loop as :func:`build_consumer`.
    """
    port = state.probe_port
    get_effect = port._get_effect
    receive = port.receive_effect
    observed = port.observed
    while True:
        message = yield get_effect
        if type(message) is EndOfStream:
            break
        yield receive(message)
        if observed:
            port.observe(message)
        yield from _probe_batch(state, message.records)
    policy = state.policy
    for spool in policy.flushed(state.probe_spools, state.overflow_probe):
        yield from spool.flush()


def close_output(
    ctx: ExecutionContext, state: JoinState
) -> Generator[Any, Any, None]:
    """Flush/close the node's output stream and report completion."""
    yield from state.output.close()
    yield from operator_done(ctx, state.node)


#: ``spawn(body, label)``: one ``body(ctx, state)`` process per joining
#: node in the join's overflow phase, joined as one effect.
Spawn = Callable[[Any, str], WaitAll]


class OverflowPolicy:
    """What a node does when its hash table outgrows its memory.

    One instance serves one join.  Each policy overrides the decisions it
    makes; the defaults are the do-nothing choices.
    """

    def open(self, state: JoinState) -> None:
        """Lay out one node's key space as the node joins."""

    def start(self, ctx: ExecutionContext, states: list[JoinState]) -> None:
        """Lay out the key space once every joining node exists."""

    def evict(self, state: JoinState, spill: dict[int, list[tuple]]) -> float:
        """Make room mid-batch, past ``evict_at``; returns the CPU charge."""
        raise NotImplementedError

    def destage(self, state: JoinState) -> Iterable[Any]:
        """React after a batch, past ``trigger_bytes``; returns the
        reaction's effects."""
        return ()

    def flushed(
        self, spools: list[SpoolFile], overflow: Optional[SpoolFile]
    ) -> list[SpoolFile]:
        """The spools a node flushes at the end of the build or probe."""
        return []

    def switch_probe(
        self, ctx: ExecutionContext, states: list[JoinState]
    ) -> Optional[tuple[list[Generator[Any, Any, None]], Callable]]:
        """``None`` keeps the planned probe distribution; otherwise the
        per-node redistribution charges and the new probe route."""
        return None

    def resolve(
        self, ctx: ExecutionContext, states: list[JoinState], spawn: Spawn
    ) -> Generator[Any, Any, None]:
        """Join the spooled pairs."""
        raise NotImplementedError

    def planned(self, states: list[JoinState]) -> list[int]:
        """Spool partitions each node planned (none: it reacts instead)."""
        return []


# ---------------------------------------------------------------------------
# simple: evict a key-space slice, switch the hash, resolve in generations
# ---------------------------------------------------------------------------


class KeptFraction:
    """``simple``: one node's key-space cut in overflow generation ``seed``.

    Keys with ``_h2(key, seed) < kept`` stay resident; the rest spool to
    the node owning their ``_route_h`` slice.  Like
    :class:`PartitionPlan` it is free of simulator state; it plans no
    partitions (the spools belong to the shared exchange).
    """

    __slots__ = ("nodes", "seed", "kept")

    n_partitions = None

    def __init__(self, nodes: int) -> None:
        self.nodes = nodes
        self.seed = 0
        self.kept = 1.0

    def owner(self, key: Any) -> int:
        """The joining node whose spool receives ``key``."""
        return min(self.nodes - 1, int(_route_h(key, self.seed) * self.nodes))

    def partition_of(self, key: Any) -> int:
        """0 below the kept fraction; else 1 + the owning node's index."""
        if _h2(key, self.seed) < self.kept:
            return 0
        return 1 + self.owner(key)


class OverflowExchange:
    """``simple``: one generation of cross-node overflow spool files.

    Tuples spooled during round ``seed`` are routed to the join node that
    owns their ``_route_h(key, seed)`` slice, so the next round's work is
    spread over every joining processor.
    """

    def __init__(self, states: list[JoinState], seed: int) -> None:
        self.build_spools = [s.spool(f"jb{seed}") for s in states]
        self.probe_spools = [s.spool(f"jp{seed}", probe=True) for s in states]
        for state in states:
            state.build_spools = self.build_spools
            state.probe_spools = self.probe_spools

    def spooled(self) -> int:
        return sum(len(s) for s in [*self.build_spools, *self.probe_spools])

    def flush(self) -> Generator[Any, Any, None]:
        for spool in [*self.build_spools, *self.probe_spools]:
            yield from spool.flush()


def redistribute_tables_after_overflow(
    ctx: ExecutionContext, states: list[JoinState], exchange: OverflowExchange
) -> list[Generator[Any, Any, None]]:
    """Re-home every kept build tuple under the switched hash function.

    All nodes also adopt the *global minimum* kept fraction, evicting any
    entry above it into the owner's spool — otherwise a probe tuple could
    be spooled at a node whose partner build tuple is still resident (or
    vice versa) and matches would be lost.  If a receiving node would
    exceed its memory, the global fraction halves again.

    The functional exchange happens immediately; the returned per-node
    generators charge CPU and network when the scheduler runs them.
    """
    n = len(states)
    route = KeptFraction(n).owner
    kept_global = min(state.plan.kept for state in states)
    spool_moves: list[list[tuple]] = [[] for _ in range(n)]
    spool_from: list[int] = [0] * n
    moved_out: list[int] = [0] * n
    moved_in: list[int] = [0] * n
    transfers: dict[tuple[int, int], int] = defaultdict(int)

    def evict_to_global() -> None:
        for state in states:
            for key, bucket in _evict_above(state, 0, kept_global):
                state.bytes_used -= state.entry_bytes * len(bucket)
                spool_moves[route(key)].extend(bucket)
                spool_from[state.index] += len(bucket)

    evict_to_global()
    # Move surviving entries to their route-hash owner.
    incoming: list[list[tuple[Any, list[tuple]]]] = [[] for _ in range(n)]
    for state in states:
        for key in list(state.table):
            target = route(key)
            if target == state.index:
                continue
            bucket = state.table.pop(key)
            state.bytes_used -= state.entry_bytes * len(bucket)
            moved_out[state.index] += len(bucket)
            transfers[(state.index, target)] += len(bucket)
            incoming[target].append((key, bucket))
    for target, entries in enumerate(incoming):
        state = states[target]
        for key, bucket in entries:
            state.table[key].extend(bucket)
            state.bytes_used += state.entry_bytes * len(bucket)
            moved_in[target] += len(bucket)
    # Receiving nodes must still fit: shrink the global fraction until
    # every node does (counts as another detected overflow there).
    while any(s.bytes_used > s.capacity_bytes for s in states):
        for state in states:
            if state.bytes_used > state.capacity_bytes:
                state.overflowed()
        kept_global /= 2.0
        evict_to_global()
    for state in states:
        state.plan.kept = kept_global
        state.all_in_memory = False

    def charge(state: JoinState) -> Generator[Any, Any, None]:
        i = state.index
        costs = state.node.config.costs
        resident = sum(map(len, state.table.values()))
        yield state.node.work(
            costs.split_hash * (resident + moved_out[i])
            + costs.result_tuple * (moved_out[i] + spool_from[i])
            + costs.hash_table_insert * moved_in[i]
        )
        packet = ctx.config.packet_size
        for (src, dst), count in transfers.items():
            if src != i:
                continue
            nbytes = count * state.build_record_bytes
            for _ in range(max(1, nbytes // packet)):
                yield from ctx.net.transfer(
                    states[src].node.name, states[dst].node.name, packet
                )
        if spool_moves[i]:
            yield from exchange.build_spools[i].add_batch(
                spool_moves[i], sender=state.node
            )
        ctx.metrics.add("overflow_redistributed_tuples", moved_out[i])

    return [charge(state) for state in states]


def resolve_round(
    ctx: ExecutionContext,
    state: JoinState,
    build_spool: SpoolFile,
    probe_spool: SpoolFile,
    seed: int,
) -> Generator[Any, Any, None]:
    """Join one node's spooled partition pair from the previous round
    through the build/probe batches of the next generation ``seed``."""
    state.table = defaultdict(list)
    state.bytes_used = 0.0
    state.all_in_memory = True
    state.plan.seed = seed
    state.plan.kept = 1.0
    # The node's own spool size is known exactly, so the round's
    # subpartition fraction is well chosen.
    state.expected_build_tuples = float(len(build_spool))
    for page_no, records in build_spool.read_pages():
        yield from build_spool.read_page_io(page_no)
        yield from _build_batch(state, records)
    for page_no, records in probe_spool.read_pages():
        yield from probe_spool.read_page_io(page_no)
        yield from _probe_batch(state, records)


class Simple(OverflowPolicy):
    """``simple``: evict mid-batch, switch the hash before the probe, and
    resolve one overflow generation at a time (Section 6.1)."""

    def start(self, ctx: ExecutionContext, states: list[JoinState]) -> None:
        for state in states:
            state.plan = KeptFraction(len(states))
            state.route = state.plan.partition_of
            state.evict_at = state.capacity_bytes
        self.exchange = OverflowExchange(states, seed=1)

    def evict(self, state: JoinState, spill: dict[int, list[tuple]]) -> float:
        """Shrink the kept fraction, evict the rest to its owners' spill
        batches; returns the table rehash charge.

        The kept fraction is sized from the optimizer's estimate to make
        the remainder fit — "the optimizer can be off by a factor of two
        ... without significantly affecting the response time" (Section
        6.2.2).  Below that target already, the estimate is off: shrink
        conservatively so progress is guaranteed.
        """
        state.overflowed()
        plan = state.plan
        expected_bytes = state.expected_build_tuples * state.entry_bytes
        if expected_bytes <= 0:
            plan.kept /= 2.0
        else:
            target = state.capacity_bytes / (expected_bytes * 1.05)
            # Shave at least 10% so marginal overflows make progress.
            plan.kept = (min(target, plan.kept * 0.9) if target < plan.kept
                         else plan.kept * 0.75)
        state.all_in_memory = False
        cpu = state.node.config.costs.hash_table_insert * len(state.table)
        evicted = _evict_above(state, plan.seed, plan.kept)
        for key, bucket in evicted:
            state.bytes_used -= state.entry_bytes * len(bucket)
            spill[1 + plan.owner(key)].extend(bucket)
        if not evicted and plan.kept < 2 ** -40:
            raise ExecutionError(
                "hash-table overflow cannot make progress (all keys collide)"
            )
        return cpu

    def switch_probe(
        self, ctx: ExecutionContext, states: list[JoinState]
    ) -> Optional[tuple[list[Generator[Any, Any, None]], Callable]]:
        """Once any node overflowed, switch the *entire* distribution — kept
        tables and probe stream — to the new hash (Section 6.2.2): "If the
        same function was used to distribute both overflow tuples and the
        original tuples, the same sets of tuples would continuously re-map
        to the same processors".  A Local join loses its short-circuit:
        Figure 13's Local/Remote crossover."""
        if not any(s.overflows for s in states):
            return None
        charges = redistribute_tables_after_overflow(
            ctx, states, self.exchange
        )
        return charges, KeptFraction(len(states)).owner

    def resolve(
        self, ctx: ExecutionContext, states: list[JoinState], spawn: Spawn
    ) -> Generator[Any, Any, None]:
        """One overflow generation at a time, all nodes in parallel, until
        no partition spilled."""
        round_no = 1
        yield from self.exchange.flush()
        while self.exchange.spooled():
            round_no += 1
            if round_no > MAX_OVERFLOW_ROUNDS:
                raise ExecutionError("join overflow did not converge")
            spooled = self.exchange
            self.exchange = OverflowExchange(states, seed=round_no)
            yield spawn(
                lambda ctx, s: resolve_round(
                    ctx, s, spooled.build_spools[s.index],
                    spooled.probe_spools[s.index], round_no,
                ),
                f"ovfl.{round_no}",
            )
            yield from self.exchange.flush()


# ---------------------------------------------------------------------------
# hybrid: plan the partitions, destage on estimate error, sweep the spools
# ---------------------------------------------------------------------------


class PartitionPlan:
    """Pure key-space layout of one node's Hybrid join.

    The unit interval of ``_h2(key, 0)`` is cut into regions:

    * ``[0, fraction0)`` — memory-resident (partition 0);
    * ``[static_cut, 1.0)`` — the statically planned spool partitions
      ``1..n_static-1``, equal slices;
    * ``[fraction0, static_cut)`` — demoted slices, one per
      :meth:`demote` call, newest (lowest) last in ``cuts``.

    With no demotions ``fraction0 == static_cut`` and routing is exactly
    the planned Hybrid layout.  Kept free of simulator state so tests can
    exercise the routing arithmetic directly.
    """

    __slots__ = ("n_static", "fraction0", "static_cut", "cuts")

    def __init__(
        self, expected_bytes: float, capacity_bytes: int,
        optimistic: bool = False,
    ) -> None:
        expected_bytes = max(1.0, expected_bytes)
        if optimistic:
            # Dynamic policy: assume memory suffices, demote on demand.
            n, fraction0 = 1, 1.0
        else:
            n = max(1, ceil(expected_bytes * 1.05 / capacity_bytes))
            fraction0 = min(1.0, capacity_bytes * 0.95 / expected_bytes)
        self.n_static = n
        self.fraction0 = fraction0
        self.static_cut = fraction0
        self.cuts: list[float] = []

    @property
    def n_partitions(self) -> int:
        """Planned partitions plus demoted slices."""
        return self.n_static + len(self.cuts)

    def partition_of(self, key: Any) -> int:
        """0 = memory-resident; 1..k-1 = spooled partitions."""
        h = _h2(key, 0)
        if h < self.fraction0:
            return 0
        if h >= self.static_cut and self.n_static > 1:
            rest = (h - self.static_cut) / max(1e-12, 1.0 - self.static_cut)
            return 1 + min(self.n_static - 2, int(rest * (self.n_static - 1)))
        for i, cut in enumerate(self.cuts):
            if h >= cut:
                return self.n_static + i
        return 0

    def demote(self) -> float:
        """Halve the resident key region; returns the new lower cut.

        The evicted slice ``[cut, old fraction0)`` becomes spooled
        partition ``n_static + len(cuts) - 1``.  Once the region is
        vanishingly small the cut snaps to 0.0 (everything spools) so
        pathological skew cannot demote forever.
        """
        cut = self.fraction0 / 2.0
        if cut < 1e-9:
            cut = 0.0
        self.fraction0 = cut
        self.cuts.append(cut)
        return cut


def _repartition_pair(
    ctx: ExecutionContext,
    state: JoinState,
    build_spool: SpoolFile,
    probe_spool: SpoolFile,
    depth: int,
    pairs: deque,
) -> Generator[Any, Any, None]:
    """Recursively split an oversized spooled pair (``dynamic`` policy).

    Both spools are read once and re-spooled into ``k`` sub-pairs under a
    depth-specific hash seed (the parent partition is a *slice* of seed
    0's unit interval, so re-cutting it needs an independent hash).  The
    sub-pairs go to the front of the worklist: depth-first keeps at most
    one lineage of sub-spools alive.
    """
    k = min(
        64,
        max(2, ceil(
            len(build_spool.records) * state.entry_bytes * 1.05
            / state.capacity_bytes
        )),
    )
    seed = depth + 1
    sub_build = [state.spool(f"hr{depth}.{i}.b") for i in range(k)]
    sub_probe = [state.spool(f"hr{depth}.{i}.p", probe=True) for i in range(k)]
    for spool, subs, pos in (
        (build_spool, sub_build, state.build_pos),
        (probe_spool, sub_probe, state.probe_pos),
    ):
        for page_no, records in spool.read_pages():
            yield from spool.read_page_io(page_no)
            batches: list[list[tuple]] = [[] for _ in range(k)]
            for record in records:
                h = _h2(record[pos], seed)
                batches[min(k - 1, int(h * k))].append(record)
            for sub, batch in zip(subs, batches):
                if batch:
                    yield from sub.add_batch(batch)
        for sub in subs:
            yield from sub.flush()
    state.overflowed()
    ctx.metrics.add("hybrid_repartitions")
    pairs.extendleft(
        reversed([(b, p, depth + 1) for b, p in zip(sub_build, sub_probe)])
    )


class _Hybrid(OverflowPolicy):
    """The Hybrid policies' shared choices: plan from the estimate, spool
    locally, sweep the spooled pairs per node."""

    #: Plan as if memory sufficed (``dynamic``) instead of from the
    #: estimate.
    optimistic = False

    def open(self, state: JoinState) -> None:
        """Partition 0 fills memory; the rest are sized to fit memory one
        at a time during the resolve sweep."""
        state.trigger_bytes = state.capacity_bytes * OVERFLOW_SLACK
        plan = state.plan = PartitionPlan(
            max(state.entry_bytes,
                state.expected_build_tuples * state.entry_bytes),
            state.capacity_bytes, optimistic=self.optimistic,
        )
        state.route = plan.partition_of
        state.all_in_memory = plan.n_static == 1 or plan.fraction0 >= 1.0
        parts = range(1, plan.n_static)
        state.build_spools = [state.spool(f"hb{p}") for p in parts]
        state.probe_spools = [state.spool(f"hp{p}", probe=True) for p in parts]

    def flushed(
        self, spools: list[SpoolFile], overflow: Optional[SpoolFile]
    ) -> list[SpoolFile]:
        return spools if overflow is None else [*spools, overflow]

    def splits(self, state: JoinState, build_spool: SpoolFile,
               depth: int) -> bool:
        """Re-partition this spooled pair instead of chunking it?"""
        return False

    def resolve(
        self, ctx: ExecutionContext, states: list[JoinState], spawn: Spawn
    ) -> Generator[Any, Any, None]:
        yield spawn(self.sweep, "resolve")

    def sweep(
        self, ctx: ExecutionContext, state: JoinState
    ) -> Generator[Any, Any, None]:
        """Join the spooled partition pairs, one partition at a time.

        A partition whose build side unexpectedly exceeds memory (estimate
        error) is processed in memory-sized chunks, re-scanning its probe
        spool per chunk — bounded, never recursive — unless :meth:`splits`
        says otherwise: ``dynamic`` re-partitions the pair recursively
        (bounded by :data:`MAX_RECURSION`) so each side is read and written
        once per level instead of re-scanning the probe spool per chunk.
        """
        costs = ctx.config.costs
        pairs: deque = deque(
            (b, p, 0) for b, p in zip(state.build_spools, state.probe_spools)
        )
        if state.overflow_build is not None:
            pairs.append((state.overflow_build, state.overflow_probe, 0))
        while pairs:
            build_spool, probe_spool, depth = pairs.popleft()
            build_pages = list(build_spool.read_pages())
            if not build_pages:
                # No build tuples landed in this partition: its probe spool
                # can produce no matches and is skipped entirely.
                continue
            if self.splits(state, build_spool, depth):
                yield from _repartition_pair(
                    ctx, state, build_spool, probe_spool, depth, pairs
                )
                continue
            start = 0
            while start < len(build_pages):
                state.table = defaultdict(list)
                state.bytes_used = 0.0
                consumed = inserted = 0
                for page_no, records in build_pages[start:]:
                    if (
                        state.bytes_used + len(records) * state.entry_bytes
                        > state.capacity_bytes
                        and state.bytes_used > 0
                    ):
                        break
                    yield from build_spool.read_page_io(page_no)
                    for record in records:
                        state.table[record[state.build_pos]].append(record)
                        state.bytes_used += state.entry_bytes
                    inserted += len(records)
                    consumed += 1
                yield state.node.work(costs.hash_table_insert * inserted)
                if start > 0 or consumed < len(build_pages) - start:
                    state.overflowed()
                _table_counter(state)
                start += consumed
                results: list[tuple] = []
                cpu = 0.0
                for page_no, records in probe_spool.read_pages():
                    yield from probe_spool.read_page_io(page_no)
                    cpu = _probe(
                        records, state.probe_pos, state.table.get,
                        results.append,
                        cpu + costs.hash_table_probe * len(records),
                        costs.join_result_tuple,
                    )
                state.matches += len(results)
                yield state.node.work(cpu)
                if results:
                    yield from state.output.emit_many(results)
            state.table = defaultdict(list)
            state.bytes_used = 0.0

    def planned(self, states: list[JoinState]) -> list[int]:
        """Planned partitions, reported apart from actual overflows."""
        return [s.plan.n_static for s in states]


class Static(_Hybrid):
    """``static``: trust the plan; past the trigger, open the overflow
    spool pair once — later resident-region build tuples spool instead of
    growing the table, and resident-region probes are dual-routed."""

    def destage(self, state: JoinState) -> tuple:
        if state.overflow_build is None:
            state.overflow_build = state.spool("hov.b")
            state.overflow_probe = state.spool("hov.p", probe=True)
            state.all_in_memory = False
            state.overflowed()
            _table_counter(state)
        return ()


class Demote(_Hybrid):
    """``demote``: past the trigger, halve the resident key region and
    evict its buckets into a fresh spooled partition (paying the spool
    writes) until the table fits.  Eviction walks the insertion-ordered
    table, so the reaction is deterministic and independent of hash
    salts."""

    def destage(self, state: JoinState) -> Generator[Any, Any, None]:
        ctx = state.ctx
        plan = state.plan
        # Demote back below *capacity*, not just the trigger: the gap is
        # the hysteresis that keeps one demotion per estimate-error
        # magnitude.
        while state.bytes_used > state.capacity_bytes and plan.fraction0 > 0:
            cut = plan.demote()
            evicted = [
                record for _, bucket in _evict_above(state, 0, cut)
                for record in bucket
            ]
            state.bytes_used -= len(evicted) * state.entry_bytes
            slice_no = len(plan.cuts) - 1
            build_spool = state.spool(f"hd{slice_no}.b")
            probe_spool = state.spool(f"hd{slice_no}.p", probe=True)
            state.build_spools.append(build_spool)
            state.probe_spools.append(probe_spool)
            state.all_in_memory = False
            state.overflowed()
            ctx.metrics.add("hash_demotions")
            if evicted:
                yield from build_spool.add_batch(evicted)
            _table_counter(state)


class Dynamic(Demote):
    """``dynamic``: start all-in-memory, demote on demand, and in the
    resolve sweep re-partition a spooled pair whose build side still
    exceeds memory (to depth :data:`MAX_RECURSION`, then chunk-and-rescan).
    """

    optimistic = True

    def splits(self, state: JoinState, build_spool: SpoolFile,
               depth: int) -> bool:
        return (
            depth < MAX_RECURSION
            and len(build_spool.records) * state.entry_bytes
            > state.trigger_bytes
        )


#: ``GammaConfig.join_overflow`` → its policy: the one reader of that
#: field.
POLICIES: dict[str, type[OverflowPolicy]] = {
    "simple": Simple, "static": Static, "demote": Demote, "dynamic": Dynamic,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


class HashJoinDriver:
    """Drives one hash join: build, probe, resolve, close.

    The policy decides whether the probe distribution switches (Simple's
    overflowed build) and how the spooled pairs are resolved (Simple's
    overflow generations, Section 6.1, or each Hybrid node's sweep over
    its own spooled partitions).
    """

    def run(self, sched: Any, join: Any, dest: Any) -> Generator[Any, Any, None]:
        ctx = sched.ctx
        config = ctx.config
        policy = POLICIES[config.join_overflow]()
        build = join.build_input
        nodes = ctx.placement_nodes(join.placement)
        capacity = config.join_memory_total // len(nodes)
        positions = (
            build.schema.position(build.attr),
            join.source.schema.position(join.attr),
        )
        record_bytes = (
            build.schema.tuple_bytes, join.source.schema.tuple_bytes
        )
        # The optimizer's building-relation estimate sizes the Simple
        # overflow fraction (Section 6.2.2's robustness claim) and the
        # Hybrid partition plan.
        expected = (
            build.estimated_rows / len(nodes) * config.join_estimate_factor
        )
        states: list[JoinState] = []
        build_ports: list[Destination] = []
        probe_ports: list[Destination] = []
        for idx, node in enumerate(nodes):
            build_port = InputPort(ctx, f"{join.op_id}.b.{idx}", node)
            probe_port = InputPort(ctx, f"{join.op_id}.p.{idx}", node)
            build_ports.append(Destination(node.name, build_port))
            probe_ports.append(Destination(node.name, probe_port))
            output = sched._make_output(node, dest, join.schema)
            bit_filter = (
                BitVectorFilter() if config.use_bit_filters else None
            )
            # A join is logically two operators (build and probe): two
            # activations' worth of scheduling messages per node.
            yield from sched._initiate(node)
            yield from sched._initiate(node)
            states.append(JoinState(
                ctx, node, idx, policy, positions, record_bytes, capacity,
                expected, output, bit_filter, (build_port, probe_port),
            ))
        policy.start(ctx, states)

        def spawn_all(
            body: Any, label: str, op_id: str = join.op_id,
            phase: str = "overflow",
        ) -> WaitAll:
            """One ``body(ctx, state)`` process per node, joined as one."""
            return WaitAll([
                sched._spawn(s.node, body(ctx, s),
                             f"{join.op_id}.{label}.{s.index}",
                             op_id=op_id, phase=phase)
                for s in states
            ])

        # Phase one: build.
        building = spawn_all(build_consumer, "build", build.op_id, "build")
        yield from sched.run_op(
            build.source, sched.lower_exchange(build.exchange, build_ports)
        )
        yield building

        # Bit-vector filters: collected from the joining nodes, merged, and
        # installed in the probe-side split tables before probing starts.
        probe_filter: Optional[BitVectorFilter] = None
        if config.use_bit_filters:
            probe_filter = BitVectorFilter()
            for state in states:
                assert state.bit_filter is not None
                yield from ctx.net.transfer(
                    state.node.name, ctx.scheduler_node.name,
                    state.bit_filter.size_bytes,
                )
                probe_filter.union(state.bit_filter)

        switch = policy.switch_probe(ctx, states)
        if switch is None:
            probe_dest = sched.lower_exchange(
                join.exchange, probe_ports, bit_filter=probe_filter
            )
        else:
            charges, route = switch
            yield spawn_all(lambda ctx, s: charges[s.index], "redist")
            probe_dest = DestSpec.by_value(
                probe_ports, join.attr,
                lambda records, pos: [route(r[pos]) for r in records],
                config.costs, bit_filter=probe_filter,
            )

        # Phase two: probe.
        probing = spawn_all(probe_consumer, "probe", phase="probe")
        yield from sched.run_op(join.source, probe_dest)
        yield probing

        yield from policy.resolve(ctx, states, spawn_all)
        yield spawn_all(close_output, "close", phase="probe")
        sched.overflows_per_node = [s.overflows for s in states]
        sched.partitions_per_node = policy.planned(states)
