"""Distributed hash join [DEWI85, KITS83] with four overflow policies.

Phase one builds main-memory hash tables from the (smaller) building
relation; phase two probes them with the larger relation; a resolve phase
joins whatever was spooled; a close phase ends each node's output stream.
Every policy runs that one pipeline, with the same ports, bit filters,
probe kernel and hash-table counter.  They differ only in what a node does
when its table outgrows its memory (``GammaConfig.join_overflow``):

* ``simple`` — the paper's measured algorithm.  The node halves the
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
  read once.  The three differ in how they handle an estimate that was
  wrong ("Design Trade-offs for a Robust Dynamic Hybrid Hash Join"):
  ``static`` trusts the plan and spools the excess build tuples, dual-
  routing resident-region probes to memory and disk; ``demote`` halves
  the resident key region into a fresh spooled partition until the table
  fits; ``dynamic`` starts all-in-memory, demotes on demand and re-
  partitions oversized spooled pairs during the resolve sweep (bounded by
  :data:`MAX_RECURSION`, then chunk-and-rescan).

Each policy keeps its own build charge order (floats do not add
associatively): Simple charges ``hash_table_insert * n`` plus
``bitfilter_set`` per record plus the eviction rehash; the
Hybrid policies fold ``(insert, bitset)`` per record through
:func:`_repeat_charge`.  All cuts are pure functions of the key hash, so
every policy is deterministic.
"""

from __future__ import annotations

from collections import defaultdict, deque
from math import ceil
from typing import Any, Generator, Optional

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

#: Cache of sequential per-record charge folds, keyed by
#: (per-record cost components, record count).  Bounded: long matrix
#: sweeps in one process would otherwise accumulate one entry per
#: distinct packet size forever.
_charge_cache: dict[tuple[tuple[float, ...], int], float] = {}
_CHARGE_CACHE_MAX = 4096

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
    ``_h2(key) >= kept_fraction`` by construction, so routing by the same
    value would crowd all overflow work onto the top slice of the joining
    processors.  An independent family keeps every processor busy during
    overflow resolution — the paper's stated reason for switching hash
    functions.
    """
    return _h2(value, seed + 1_000_003)


def _repeat_charge(parts: tuple[float, ...], n: int) -> float:
    """The sequential float fold of charging ``parts`` once per record.

    Replaying the exact per-record addition order once per distinct
    ``(parts, n)`` — instead of on every packet — keeps accumulated packet
    charges bit-identical to the original inner loop: float addition is
    not associative, so ``n * sum(parts)`` would drift.
    """
    key = (parts, n)
    total = _charge_cache.get(key)
    if total is None:
        total = 0.0
        for _ in range(n):
            for part in parts:
                total += part
        if len(_charge_cache) >= _CHARGE_CACHE_MAX:
            # Evicting the oldest entry is safe: recomputation is
            # bit-identical, the cache is purely a wall-clock win.
            del _charge_cache[next(iter(_charge_cache))]
        _charge_cache[key] = total
    return total


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


class JoinState:
    """Per-node state of one distributed hash join, under any policy.

    ``route(key)`` is a key's partition: 0 = resident, ``p > 0`` =
    ``build_spools``/``probe_spools[p - 1]``.  Under ``simple`` those are
    the current :class:`OverflowExchange`'s lists (one spool per joining
    node, shared by every state); under the Hybrid policies the node's own
    planned and demoted partitions, and the instance's ``route`` is the
    plan's lookup (a bound method of the plan, not of the state, so the
    state stays free of reference cycles and its table is freed at once).
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        node: Node,
        index: int,
        policy: str,
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
        self.build_spools: list[SpoolFile] = []
        self.probe_spools: list[SpoolFile] = []
        self.overflow_build: Optional[SpoolFile] = None
        self.overflow_probe: Optional[SpoolFile] = None
        if policy == "simple":
            self.kept_fraction = 1.0
            self.seed = 0
            self.build_tuples = 0
            return
        self.trigger_bytes = capacity_bytes * OVERFLOW_SLACK
        # Partition 0 fills memory; the rest are sized to fit memory one
        # at a time during the resolve sweep.
        self.plan = PartitionPlan(
            max(self.entry_bytes,
                expected_build_tuples * self.entry_bytes),
            capacity_bytes, optimistic=policy == "dynamic",
        )
        self.route = self.plan.partition_of
        self.all_in_memory = (
            self.plan.n_static == 1 or self.plan.fraction0 >= 1.0
        )
        self.build_spools = [
            SpoolFile(ctx, node, f"hb{p}", self.build_record_bytes)
            for p in range(1, self.plan.n_static)
        ]
        self.probe_spools = [
            SpoolFile(ctx, node, f"hp{p}", self.probe_record_bytes)
            for p in range(1, self.plan.n_static)
        ]

    def route(self, key: Any) -> int:
        """``simple``: 0 below the kept fraction; else 1 + the owning
        node's index."""
        if _h2(key, self.seed) < self.kept_fraction:
            return 0
        n = len(self.build_spools)
        return 1 + min(n - 1, int(_route_h(key, self.seed) * n))

    def reset_for_round(self, seed: int, expected_build_tuples: float) -> None:
        """``simple``: start the next overflow generation's table."""
        self.table = defaultdict(list)
        self.bytes_used = 0.0
        self.kept_fraction = 1.0
        self.all_in_memory = True
        self.seed = seed
        self.expected_build_tuples = expected_build_tuples

    def target_kept_fraction(self) -> float:
        """``simple``: the kept fraction chosen when an overflow is detected.

        The query scheduler knows the optimizer's estimate of the building
        relation, so the Simple-join subpartition can be sized to make the
        remainder fit — "the optimizer can be off by a factor of two in
        estimating either the amount of memory available or the selectivity
        factor of an operator without significantly affecting the response
        time" (Section 6.2.2).  When the estimate is wrong (we overflowed
        below the target already), fall back to halving so progress is
        guaranteed.
        """
        expected_bytes = self.expected_build_tuples * self.entry_bytes
        if expected_bytes > 0:
            target = self.capacity_bytes / (expected_bytes * 1.05)
            if target < self.kept_fraction:
                # Shave at least 10% so marginal overflows make progress.
                return min(target, self.kept_fraction * 0.9)
            # The estimate claims we fit, yet we overflowed: estimate is
            # off — shrink conservatively.
            return self.kept_fraction * 0.75
        return self.kept_fraction / 2.0


class OverflowExchange:
    """``simple``: one generation of cross-node overflow spool files.

    Tuples spooled during round ``seed`` are routed to the join node that
    owns their ``_route_h(key, seed)`` slice, so the next round's work is
    spread over every joining processor.
    """

    def __init__(
        self, ctx: ExecutionContext, states: list[JoinState], seed: int
    ) -> None:
        self.build_spools = [
            SpoolFile(ctx, s.node, f"jb{seed}", s.build_record_bytes)
            for s in states
        ]
        self.probe_spools = [
            SpoolFile(ctx, s.node, f"jp{seed}", s.probe_record_bytes)
            for s in states
        ]
        for state in states:
            state.build_spools = self.build_spools
            state.probe_spools = self.probe_spools

    def spooled(self) -> int:
        return sum(len(s) for s in [*self.build_spools, *self.probe_spools])

    def flush(self) -> Generator[Any, Any, None]:
        for spool in [*self.build_spools, *self.probe_spools]:
            yield from spool.flush()


def _table_counter(state: JoinState) -> None:
    """Passive hash-table telemetry: metrics sample + Perfetto counter."""
    ctx = state.ctx
    ctx.metrics.record_hash_table_bytes(state.node.name, state.bytes_used)
    if ctx.trace is not None:
        args = {"bytes": float(state.bytes_used),
                "overflows": float(state.overflows)}
        if state.policy != "simple":
            args["partitions"] = float(state.plan.n_partitions)
        ctx.trace.counter(state.node.name, "hash-table", ctx.sim.now, args)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def _insert_simple(
    state: JoinState, records: list[tuple], spill: dict[int, list[tuple]]
) -> float:
    """Insert build records, evicting a key-space slice on overflow.

    Returns the CPU charge: every record pays the insert whether or not
    it spills (integer-valued constants make the bulk multiply exact)
    and, one record at a time, the bit-filter set; evictions add the
    rehash.  A spilled record sets its bit too: the merged filter screens
    the whole probe stream, spooled partitions included.
    """
    costs = state.node.config.costs
    cpu = costs.hash_table_insert * len(records)
    pos = state.build_pos
    bitset_cost = costs.bitfilter_set
    entry_bytes = state.entry_bytes
    capacity = state.capacity_bytes
    table = state.table
    bf = state.bit_filter
    bf_add = bf.add if bf is not None else None
    build_tuples = state.build_tuples
    bytes_used = state.bytes_used
    route = state.route
    # While nothing is evicted every key is resident, so the subpartition
    # hash is skipped; the first eviction re-enables it mid-batch.
    fast = state.all_in_memory
    for record in records:
        key = record[pos]
        if bf_add is not None:
            bf_add(key)
            cpu += bitset_cost
        if not fast:
            p = route(key)
            if p:
                spill[p].append(record)
                continue
        table[key].append(record)
        build_tuples += 1
        bytes_used += entry_bytes
        if bytes_used > capacity:
            state.build_tuples = build_tuples
            state.bytes_used = bytes_used
            cpu += _evict(state, spill, costs)
            build_tuples = state.build_tuples
            bytes_used = state.bytes_used
            fast = False
    state.build_tuples = build_tuples
    state.bytes_used = bytes_used
    return cpu


def _evict(
    state: JoinState, spill: dict[int, list[tuple]], costs: Any
) -> float:
    """Shrink the kept key-space fraction; move evicted entries to spill.

    Returns the CPU instructions spent rehashing the table.
    """
    state.overflows += 1
    state.ctx.metrics.record_overflow_chunk(state.node.name)
    state.kept_fraction = state.target_kept_fraction()
    state.all_in_memory = False
    seed = state.seed
    doomed = [
        key for key in state.table if _h2(key, seed) >= state.kept_fraction
    ]
    cpu = costs.hash_table_insert * len(state.table)
    n = len(state.build_spools)
    for key in doomed:
        bucket = state.table.pop(key)
        state.bytes_used -= state.entry_bytes * len(bucket)
        state.build_tuples -= len(bucket)
        spill[1 + min(n - 1, int(_route_h(key, seed) * n))].extend(bucket)
    if not doomed and state.kept_fraction < 2 ** -40:
        raise ExecutionError(
            "hash-table overflow cannot make progress (all keys collide)"
        )
    return cpu


def _insert_hybrid(
    state: JoinState, records: list[tuple], spill: dict[int, list[tuple]]
) -> tuple[float, Optional[list[tuple]]]:
    """Insert partition-0 records, route the rest to their partitions.

    Returns the CPU charge — spilled records pay the same insert/bitset
    charges as resident ones, so the whole batch folds through
    :func:`_repeat_charge` — and the batch for the static overflow spool.
    """
    costs = state.node.config.costs
    bf = state.bit_filter
    bf_add = bf.add if bf is not None else None
    pos = state.build_pos
    entry_bytes = state.entry_bytes
    table = state.table
    bytes_used = state.bytes_used
    cpu = _repeat_charge(
        (costs.hash_table_insert, costs.bitfilter_set) if bf is not None
        else (costs.hash_table_insert,),
        len(records),
    )
    overflow_batch: Optional[list[tuple]] = None
    if state.all_in_memory and (
        bytes_used + len(records) * entry_bytes <= state.trigger_bytes
    ):
        if bf_add is not None:
            for record in records:
                key = record[pos]
                bf_add(key)
                table[key].append(record)
                bytes_used += entry_bytes
        else:
            for record in records:
                table[record[pos]].append(record)
                bytes_used += entry_bytes
    else:
        partition_of = state.plan.partition_of
        overflow_spool = state.overflow_build
        for record in records:
            key = record[pos]
            if bf_add is not None:
                bf_add(key)
            p = partition_of(key)
            if p:
                spill[p].append(record)
            elif overflow_spool is not None:
                if overflow_batch is None:
                    overflow_batch = []
                overflow_batch.append(record)
            else:
                table[key].append(record)
                bytes_used += entry_bytes
    state.bytes_used = bytes_used
    return cpu, overflow_batch


def _handle_build_overflow(state: JoinState) -> Generator[Any, Any, None]:
    """Hybrid: react to the resident build partition exceeding capacity.

    ``static``: open the overflow spool pair once — later resident-region
    build tuples spool instead of growing the table.  ``demote`` /
    ``dynamic``: halve the resident key region and evict its buckets into
    a fresh spooled partition (paying the spool writes) until the table
    fits.  Eviction walks the insertion-ordered table, so the reaction is
    deterministic and independent of hash salts.
    """
    ctx = state.ctx
    if state.policy == "static":
        if state.overflow_build is None:
            state.overflow_build = SpoolFile(
                ctx, state.node, "hov.b", state.build_record_bytes
            )
            state.overflow_probe = SpoolFile(
                ctx, state.node, "hov.p", state.probe_record_bytes
            )
            state.all_in_memory = False
            state.overflows += 1
            ctx.metrics.record_overflow_chunk(state.node.name)
            _table_counter(state)
        return
    plan = state.plan
    table = state.table
    # Demote back below *capacity*, not just the trigger: the gap is the
    # hysteresis that keeps one demotion per estimate-error magnitude.
    while state.bytes_used > state.capacity_bytes and plan.fraction0 > 0.0:
        cut = plan.demote()
        doomed = [key for key in table if _h2(key, 0) >= cut]
        evicted: list[tuple] = []
        for key in doomed:
            evicted.extend(table.pop(key))
        state.bytes_used -= len(evicted) * state.entry_bytes
        slice_no = len(plan.cuts) - 1
        build_spool = SpoolFile(
            ctx, state.node, f"hd{slice_no}.b", state.build_record_bytes
        )
        probe_spool = SpoolFile(
            ctx, state.node, f"hd{slice_no}.p", state.probe_record_bytes
        )
        state.build_spools.append(build_spool)
        state.probe_spools.append(probe_spool)
        state.all_in_memory = False
        state.overflows += 1
        ctx.metrics.record_overflow_chunk(state.node.name)
        ctx.metrics.add("hash_demotions")
        if evicted:
            yield from build_spool.add_batch(evicted)
        _table_counter(state)


def _build_batch(
    state: JoinState, records: list[tuple]
) -> Generator[Any, Any, None]:
    """Insert one batch under the state's policy, then pay for it."""
    spill: dict[int, list[tuple]] = defaultdict(list)
    overflow_batch = None
    if state.policy == "simple":
        cpu = _insert_simple(state, records, spill)
    else:
        cpu, overflow_batch = _insert_hybrid(state, records, spill)
    _table_counter(state)
    yield state.node.work(cpu)
    for p, batch in spill.items():
        yield from state.build_spools[p - 1].add_batch(
            batch, sender=state.node
        )
    if overflow_batch:
        assert state.overflow_build is not None
        yield from state.overflow_build.add_batch(overflow_batch)
    if state.policy != "simple" and state.bytes_used > state.trigger_bytes:
        yield from _handle_build_overflow(state)


def _flush_local_spools(
    state: JoinState, spools: list[SpoolFile], overflow: Optional[SpoolFile]
) -> Generator[Any, Any, None]:
    """Hybrid: force the node's partial spool pages out after a phase.
    (``simple`` flushes the shared exchange from the scheduler.)"""
    if state.policy == "simple":
        return
    for spool in spools:
        yield from spool.flush()
    if overflow is not None:
        yield from overflow.flush()


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
    yield from _flush_local_spools(
        state, state.build_spools, state.overflow_build
    )


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


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
    # Hits, misses and spills all pay the probe charge; integer-valued
    # constants make the bulk multiply exact.
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
    yield from _flush_local_spools(
        state, state.probe_spools, state.overflow_probe
    )


# ---------------------------------------------------------------------------
# simple: the hash-function switch and the overflow generations
# ---------------------------------------------------------------------------


def overflow_route(states_count: int):
    """Probe-split routing used after the first overflow.

    "If the same function was used to distribute both overflow tuples and
    the original tuples, the same sets of tuples would continuously re-map
    to the same processors" — so once any node overflows, the scheduler
    switches the *entire* distribution (kept tables and the probe stream)
    to the new hash function.  For a Local join on the partitioning
    attribute this destroys the short-circuit advantage, producing the
    Local/Remote crossover of Figure 13.
    """

    def route(value: Any) -> int:
        return min(states_count - 1, int(_route_h(value, 0) * states_count))

    return route


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
    route = overflow_route(n)
    kept_global = min(state.kept_fraction for state in states)

    def evict_to_global() -> None:
        for state in states:
            for key in list(state.table):
                if _h2(key, 0) >= kept_global:
                    bucket = state.table.pop(key)
                    state.bytes_used -= state.entry_bytes * len(bucket)
                    state.build_tuples -= len(bucket)
                    spool_moves[route(key)].extend(bucket)
                    spool_from[state.index] += len(bucket)

    spool_moves: list[list[tuple]] = [[] for _ in range(n)]
    spool_from: list[int] = [0] * n
    moved_out: list[int] = [0] * n
    moved_in: list[int] = [0] * n
    transfers: dict[tuple[int, int], int] = defaultdict(int)

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
            state.build_tuples -= len(bucket)
            moved_out[state.index] += len(bucket)
            transfers[(state.index, target)] += len(bucket)
            incoming[target].append((key, bucket))
    for target, entries in enumerate(incoming):
        state = states[target]
        for key, bucket in entries:
            state.table[key].extend(bucket)
            state.bytes_used += state.entry_bytes * len(bucket)
            state.build_tuples += len(bucket)
            moved_in[target] += len(bucket)
    # Receiving nodes must still fit: shrink the global fraction until
    # every node does (counts as another detected overflow there).
    while any(s.bytes_used > s.capacity_bytes for s in states):
        for state in states:
            if state.bytes_used > state.capacity_bytes:
                state.overflows += 1
                ctx.metrics.record_overflow_chunk(state.node.name)
        kept_global /= 2.0
        evict_to_global()
    for state in states:
        state.kept_fraction = kept_global
        state.all_in_memory = False

    def charge(state: JoinState) -> Generator[Any, Any, None]:
        i = state.index
        costs = state.node.config.costs
        yield state.node.work(
            costs.split_hash * (state.build_tuples + moved_out[i])
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
    # The node's own spool size is known exactly, so the round's
    # subpartition fraction is well chosen.
    state.reset_for_round(seed, float(len(build_spool)))
    for page_no, records in build_spool.read_pages():
        yield from build_spool.read_page_io(page_no)
        yield from _build_batch(state, records)
    for page_no, records in probe_spool.read_pages():
        yield from probe_spool.read_page_io(page_no)
        yield from _probe_batch(state, records)


# ---------------------------------------------------------------------------
# hybrid: the resolve sweep
# ---------------------------------------------------------------------------


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
    node = state.node
    sub_build = [
        SpoolFile(ctx, node, f"hr{depth}.{i}.b", state.build_record_bytes)
        for i in range(k)
    ]
    sub_probe = [
        SpoolFile(ctx, node, f"hr{depth}.{i}.p", state.probe_record_bytes)
        for i in range(k)
    ]
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
    state.overflows += 1
    ctx.metrics.record_overflow_chunk(node.name)
    ctx.metrics.add("hybrid_repartitions")
    pairs.extendleft(
        reversed([(b, p, depth + 1) for b, p in zip(sub_build, sub_probe)])
    )


def hybrid_resolve(
    ctx: ExecutionContext, state: JoinState
) -> Generator[Any, Any, None]:
    """Join the spooled partition pairs, one partition at a time.

    A partition whose build side unexpectedly exceeds memory (estimate
    error) is processed in memory-sized chunks, re-scanning its probe
    spool per chunk — bounded, never recursive — unless the ``dynamic``
    policy is active, which re-partitions the pair recursively (bounded
    by :data:`MAX_RECURSION`) so each side is read and written once per
    level instead of re-scanning the probe spool per chunk.
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
        if (
            state.policy == "dynamic"
            and depth < MAX_RECURSION
            and len(build_spool.records) * state.entry_bytes
            > state.trigger_bytes
        ):
            yield from _repartition_pair(
                ctx, state, build_spool, probe_spool, depth, pairs
            )
            continue
        start = 0
        while start < len(build_pages):
            state.table = defaultdict(list)
            state.bytes_used = 0.0
            consumed = 0
            cpu = 0.0
            for page_no, records in build_pages[start:]:
                if (
                    state.bytes_used + len(records) * state.entry_bytes
                    > state.capacity_bytes
                    and state.bytes_used > 0
                ):
                    break
                yield from build_spool.read_page_io(page_no)
                for record in records:
                    cpu += costs.hash_table_insert
                    state.table[record[state.build_pos]].append(record)
                    state.bytes_used += state.entry_bytes
                consumed += 1
            yield state.node.work(cpu)
            if consumed == 0:
                break
            if start > 0 or consumed < len(build_pages) - start:
                state.overflows += 1
                ctx.metrics.node(state.node.name).overflow_chunks += 1
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


def close_output(
    ctx: ExecutionContext, state: JoinState
) -> Generator[Any, Any, None]:
    """Flush/close the node's output stream and report completion."""
    yield from state.output.close()
    yield from operator_done(ctx, state.node)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


class HashJoinDriver:
    """Drives one hash join: build, probe, resolve, close.

    Under ``simple`` an overflowed build switches hash functions before the
    probe and the resolve phase is the sequence of overflow generations
    (Section 6.1); under the Hybrid policies it is each node's sweep over
    its own spooled partitions.
    """

    def run(self, sched: Any, join: Any, dest: Any) -> Generator[Any, Any, None]:
        ctx = sched.ctx
        config = ctx.config
        policy = config.join_overflow
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
        if policy == "simple":
            exchange = OverflowExchange(ctx, states, seed=1)

        def spawn_all(
            body: Any, label: str, op_id: str, phase: str
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

        # Simple's hash-function switch: if any node overflowed during the
        # build, the scheduler redistributes the kept tables under the new
        # hash and passes the new function to the probing selections'
        # split tables (Section 6.2.2) — Local joins lose their
        # short-circuit.
        if policy == "simple" and any(s.overflows for s in states):
            charges = redistribute_tables_after_overflow(
                ctx, states, exchange
            )
            yield spawn_all(
                lambda ctx, s: charges[s.index], "redist", join.op_id,
                "overflow",
            )
            route = overflow_route(len(states))
            probe_dest = DestSpec.by_value(
                probe_ports, join.attr,
                lambda records, pos: [route(r[pos]) for r in records],
                config.costs, bit_filter=probe_filter,
            )
        else:
            probe_dest = sched.lower_exchange(
                join.exchange, probe_ports, bit_filter=probe_filter
            )

        # Phase two: probe.
        probing = spawn_all(probe_consumer, "probe", join.op_id, "probe")
        yield from sched.run_op(join.source, probe_dest)
        yield probing

        # Resolve.  Simple: one overflow generation at a time, all nodes
        # in parallel, until no partition spilled.
        if policy == "simple":
            round_no = 1
            yield from exchange.flush()
            while exchange.spooled():
                round_no += 1
                if round_no > MAX_OVERFLOW_ROUNDS:
                    raise ExecutionError("join overflow did not converge")
                spooled = exchange
                exchange = OverflowExchange(ctx, states, seed=round_no)
                yield spawn_all(
                    lambda ctx, s: resolve_round(
                        ctx, s, spooled.build_spools[s.index],
                        spooled.probe_spools[s.index], round_no,
                    ),
                    f"ovfl.{round_no}", join.op_id, "overflow",
                )
                yield from exchange.flush()
        else:
            yield spawn_all(hybrid_resolve, "resolve", join.op_id, "overflow")

        yield spawn_all(close_output, "close", join.op_id, "probe")
        sched.overflows_per_node = [s.overflows for s in states]
        if policy != "simple":
            # Planned partitions, reported apart from actual overflows.
            sched.partitions_per_node = [s.plan.n_static for s in states]
