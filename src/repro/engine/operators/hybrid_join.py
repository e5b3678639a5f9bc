"""Parallel Hybrid hash join [DEWI84, DEWI85] — the paper's announced fix.

The Conclusions call the Simple hash join's overflow behaviour one of
Gamma's "most glaring deficiencies" and announce its replacement with "a
parallel version of the Hybrid hash-join algorithm".  This module
implements that replacement (the algorithm later measured in the 1990
Gamma paper) so the repository can quantify the improvement (ablation A2).

The idea: instead of reacting to overflow by evicting and recursing, each
node *plans* its memory use up front from the optimizer's estimate of the
building relation.  The key space is cut into ``k`` partitions — partition
0 sized to fill memory and built immediately; partitions 1..k-1 spooled to
node-local temporary files on both the build and probe sides.  Afterwards
the spooled partition pairs are joined one at a time, each tuple written
and read exactly once: degradation is *linear* in the memory deficit, not
exponential.

That plan is only as good as the estimate, so the join also watches the
bytes it actually observes (the design space of "Design Trade-offs for a
Robust Dynamic Hybrid Hash Join").  Three spill policies, selected by
:class:`~repro.engine.ir.SpillConfig`:

* ``static`` — trust the plan.  When the resident partition still
  exceeds capacity, excess build tuples go to an overflow spool and every
  resident-region probe is routed both to memory and to disk: correct,
  but the probe side pays for the estimate error.
* ``demote`` — on overflow, halve the resident key region and evict its
  buckets to a newly created spooled partition until the table fits.
  Only the demoted fraction of the probe side is spooled.
* ``dynamic`` — start optimistically all-in-memory, demote on demand,
  and recursively re-partition any spooled pair whose build side still
  exceeds memory during the resolution sweep (bounded depth, falling
  back to chunk-and-rescan at the bound).

All three are deterministic: demotion walks the insertion-ordered hash
table, and every cut is a pure function of the key hash.  Under the
default ``static`` policy, a run whose capacity is never exceeded is
bit-identical to the purely planned algorithm.
"""

from __future__ import annotations

from collections import defaultdict, deque
from math import ceil
from typing import Any, Generator, Optional

from ..bitfilter import BitVectorFilter
from ..ir import SpillConfig
from ..node import ExecutionContext, Node
from ..ports import EndOfStream, InputPort, OutputPort
from .base import SpoolFile, operator_done
from .join import _h2

#: Cache of sequential per-record charge folds, keyed by
#: (per-record cost components, record count).  Bounded: long matrix
#: sweeps in one process would otherwise accumulate one entry per
#: distinct packet size forever.
_charge_cache: dict[tuple[tuple[float, ...], int], float] = {}
_CHARGE_CACHE_MAX = 4096

#: Overflow reactions trigger past ``capacity * OVERFLOW_SLACK``, not the
#: instant capacity is crossed: the plan sizes partition 0 at 0.95 of
#: capacity precisely to absorb per-node distribution variance of the
#: hash split, so single-digit overruns are expected noise.  Genuine
#: estimate error (the case the spill policies exist for) overshoots by
#: integer factors and blows far past the slack.
OVERFLOW_SLACK = 1.10


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
    """Pure key-space layout of one node's hybrid join.

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
        self,
        expected_bytes: float,
        capacity_bytes: int,
        forced_partitions: int = 0,
        optimistic: bool = False,
    ) -> None:
        expected_bytes = max(1.0, expected_bytes)
        if forced_partitions > 0:
            n = forced_partitions
        elif optimistic:
            # Dynamic policy: assume memory suffices, demote on demand.
            n = 1
        else:
            n = max(1, ceil(expected_bytes * 1.05 / capacity_bytes))
        if forced_partitions == 1 or (optimistic and forced_partitions <= 0):
            fraction0 = 1.0
        else:
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


class HybridJoinState:
    """Per-node state of one distributed Hybrid hash join."""

    def __init__(
        self,
        ctx: ExecutionContext,
        node: Node,
        index: int,
        build_pos: int,
        probe_pos: int,
        capacity_bytes: int,
        build_record_bytes: int,
        probe_record_bytes: int,
        output: OutputPort,
        bit_filter: Optional[BitVectorFilter],
        build_port: InputPort,
        probe_port: InputPort,
        expected_build_tuples: float,
        spill: Optional[SpillConfig] = None,
    ) -> None:
        self.ctx = ctx
        self.node = node
        self.index = index
        self.build_pos = build_pos
        self.probe_pos = probe_pos
        self.capacity_bytes = capacity_bytes
        self.trigger_bytes = capacity_bytes * OVERFLOW_SLACK
        self.build_record_bytes = build_record_bytes
        self.probe_record_bytes = probe_record_bytes
        self.output = output
        self.bit_filter = bit_filter
        self.build_port = build_port
        self.probe_port = probe_port
        self.entry_bytes = build_record_bytes * ctx.config.hash_table_overhead
        spill = spill or SpillConfig()
        self.policy = spill.policy
        self.max_recursion = spill.max_recursion
        expected_bytes = max(
            self.entry_bytes,
            expected_build_tuples * spill.estimate_factor * self.entry_bytes,
        )
        # Partition plan: partition 0 fills memory; the rest are sized to
        # fit memory one at a time during the resolution sweep.
        self.plan = PartitionPlan(
            expected_bytes, capacity_bytes,
            forced_partitions=spill.partitions,
            optimistic=spill.policy == "dynamic",
        )
        self.planned_partitions = self.plan.n_static
        #: True while partition_of() is constant 0 — every key stays in
        #: memory, so the consumers can skip the per-record hash entirely.
        #: Cleared by the first overflow reaction.
        self.all_in_memory = (
            self.plan.n_static == 1 or self.plan.fraction0 >= 1.0
        )
        self.table: dict[Any, list[tuple]] = defaultdict(list)
        self.bytes_used = 0.0
        self.build_spools = [
            SpoolFile(ctx, node, f"hb{p}", build_record_bytes)
            for p in range(1, self.plan.n_static)
        ]
        self.probe_spools = [
            SpoolFile(ctx, node, f"hp{p}", probe_record_bytes)
            for p in range(1, self.plan.n_static)
        ]
        #: Static-policy overflow pair: build tuples beyond capacity, and
        #: the resident-region probes that must re-join against them.
        self.overflow_build: Optional[SpoolFile] = None
        self.overflow_probe: Optional[SpoolFile] = None
        self.matches = 0
        #: Actual overflow reactions (static activation, demotions,
        #: recursive re-partitionings, extra resolve chunks) — what
        #: ``QueryResult.overflows_per_node`` now reports.
        self.overflow_chunks = 0

    # Kept as a method (delegating to the plan) for the consumers' hot
    # loops and for backwards compatibility.
    def partition_of(self, key: Any) -> int:
        """0 = memory-resident; 1..k-1 = spooled partitions."""
        return self.plan.partition_of(key)

    @property
    def n_partitions(self) -> int:
        return self.plan.n_partitions


def _emit_table_counter(ctx: ExecutionContext, state: HybridJoinState) -> None:
    """Passive hash-table telemetry: metrics sample + Perfetto counter."""
    ctx.metrics.record_hash_table_bytes(state.node.name, state.bytes_used)
    if ctx.trace is not None:
        ctx.trace.counter(
            state.node.name, "hash-table", ctx.sim.now,
            {"bytes": float(state.bytes_used),
             "overflows": float(state.overflow_chunks),
             "partitions": float(state.plan.n_partitions)},
        )


def _handle_build_overflow(
    ctx: ExecutionContext, state: HybridJoinState
) -> Generator[Any, Any, None]:
    """React to the resident build partition exceeding capacity.

    ``static``: open the overflow spool pair once — later resident-region
    build tuples spool instead of growing the table.  ``demote`` /
    ``dynamic``: halve the resident key region and evict its buckets into
    a fresh spooled partition (paying the spool writes) until the table
    fits.  Eviction walks the insertion-ordered table, so the reaction is
    deterministic and independent of hash salts.
    """
    if state.policy == "static":
        if state.overflow_build is None:
            state.overflow_build = SpoolFile(
                ctx, state.node, "hov.b", state.build_record_bytes
            )
            state.overflow_probe = SpoolFile(
                ctx, state.node, "hov.p", state.probe_record_bytes
            )
            state.all_in_memory = False
            state.overflow_chunks += 1
            ctx.metrics.record_overflow_chunk(state.node.name)
            _emit_table_counter(ctx, state)
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
        state.overflow_chunks += 1
        ctx.metrics.record_overflow_chunk(state.node.name)
        ctx.metrics.add("hash_demotions")
        if evicted:
            yield from build_spool.add_batch(evicted)
        _emit_table_counter(ctx, state)


def hybrid_build_consumer(
    ctx: ExecutionContext, state: HybridJoinState
) -> Generator[Any, Any, None]:
    """Phase one: build partition 0 in memory, spool the rest locally."""
    costs = ctx.config.costs
    insert_cost = costs.hash_table_insert
    bitset_cost = costs.bitfilter_set
    bf = state.bit_filter
    bf_add = bf.add if bf is not None else None
    bpos = state.build_pos
    entry_bytes = state.entry_bytes
    trigger = state.trigger_bytes
    partition_of = state.plan.partition_of
    table = state.table
    charge = (
        (insert_cost, bitset_cost) if bf is not None else (insert_cost,)
    )
    port = state.build_port
    get_effect = port._get_effect
    receive = port.receive_effect
    observed = port.observed
    while port.expected_producers == 0 or (
        port._eos_seen < port.expected_producers
    ):
        # Inline receive loop (see join.build_consumer).
        message = yield get_effect
        if type(message) is EndOfStream:
            port._eos_seen += 1
            continue
        yield receive(message)
        if observed:
            port.observe(message)
        records = message.records
        bytes_used = state.bytes_used
        spill: Optional[dict[int, list[tuple]]] = None
        overflow_batch: Optional[list[tuple]] = None
        if state.all_in_memory and (
            bytes_used + len(records) * entry_bytes <= trigger
        ):
            # Every key lands in partition 0: skip the partition hash and
            # fold the constant per-record charges through the cache.
            if bf_add is not None:
                for record in records:
                    key = record[bpos]
                    bf_add(key)
                    table[key].append(record)
                    bytes_used += entry_bytes
            else:
                for record in records:
                    table[record[bpos]].append(record)
                    bytes_used += entry_bytes
            cpu = _repeat_charge(charge, len(records))
        else:
            # Spilled records pay the same insert/bitset charges as
            # resident ones, so the whole batch folds through the cache.
            cpu = _repeat_charge(charge, len(records))
            spill = defaultdict(list)
            overflow_spool = state.overflow_build
            for record in records:
                key = record[bpos]
                if bf_add is not None:
                    bf_add(key)
                p = partition_of(key)
                if p == 0:
                    if overflow_spool is not None:
                        if overflow_batch is None:
                            overflow_batch = []
                        overflow_batch.append(record)
                    else:
                        table[key].append(record)
                        bytes_used += entry_bytes
                else:
                    spill[p].append(record)
        state.bytes_used = bytes_used
        _emit_table_counter(ctx, state)
        yield state.node.work(cpu)
        if spill:
            for p, batch in spill.items():
                yield from state.build_spools[p - 1].add_batch(batch)
        if overflow_batch:
            assert state.overflow_build is not None
            yield from state.overflow_build.add_batch(overflow_batch)
        if bytes_used > trigger:
            yield from _handle_build_overflow(ctx, state)
    for spool in state.build_spools:
        yield from spool.flush()
    if state.overflow_build is not None:
        yield from state.overflow_build.flush()


def hybrid_probe_consumer(
    ctx: ExecutionContext, state: HybridJoinState
) -> Generator[Any, Any, None]:
    """Phase two: probe partition 0, spool probes for partitions 1..k-1.

    Under an active static-policy overflow, resident-region probes are
    *dual-routed*: probed against the memory-resident table now, and
    spooled for the resolution sweep against the overflowed build tuples
    — each build tuple lives in exactly one place, so no duplicates.
    """
    costs = ctx.config.costs
    probe_cost = costs.hash_table_probe
    result_cost = costs.join_result_tuple
    ppos = state.probe_pos
    # The build phase has completed (scheduler barrier), so the layout —
    # and therefore the fast-path choice — is frozen.
    all_mem = state.all_in_memory
    partition_of = state.plan.partition_of
    table_get = state.table.get
    overflow_spool = state.overflow_probe
    work = state.node.work
    port = state.probe_port
    get_effect = port._get_effect
    receive = port.receive_effect
    observed = port.observed
    while port.expected_producers == 0 or (
        port._eos_seen < port.expected_producers
    ):
        message = yield get_effect
        if type(message) is EndOfStream:
            port._eos_seen += 1
            continue
        yield receive(message)
        if observed:
            port.observe(message)
        records = message.records
        # Hits, misses, and spills all pay the probe charge; the bulk
        # multiply over integer-valued constants is exact.
        cpu = probe_cost * len(records)
        spill: Optional[dict[int, list[tuple]]] = None
        overflow_batch: Optional[list[tuple]] = None
        results: list[tuple] = []
        res_append = results.append
        if all_mem:
            for record in records:
                bucket = table_get(record[ppos])
                if bucket:
                    cpu += result_cost * len(bucket)
                    for build_record in bucket:
                        res_append(build_record + record)
        else:
            spill = defaultdict(list)
            for record in records:
                key = record[ppos]
                p = partition_of(key)
                if p != 0:
                    spill[p].append(record)
                    continue
                if overflow_spool is not None:
                    if overflow_batch is None:
                        overflow_batch = []
                    overflow_batch.append(record)
                bucket = table_get(key)
                if bucket:
                    cpu += result_cost * len(bucket)
                    for build_record in bucket:
                        res_append(build_record + record)
        state.matches += len(results)
        yield work(cpu)
        if results:
            yield from state.output.emit_many(results)
        if spill:
            for p, batch in spill.items():
                yield from state.probe_spools[p - 1].add_batch(batch)
        if overflow_batch:
            assert overflow_spool is not None
            yield from overflow_spool.add_batch(overflow_batch)
    for spool in state.probe_spools:
        yield from spool.flush()
    if state.overflow_probe is not None:
        yield from state.overflow_probe.flush()


def _repartition_pair(
    ctx: ExecutionContext,
    state: HybridJoinState,
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
    state.overflow_chunks += 1
    ctx.metrics.record_overflow_chunk(node.name)
    ctx.metrics.add("hybrid_repartitions")
    pairs.extendleft(
        reversed([(b, p, depth + 1) for b, p in zip(sub_build, sub_probe)])
    )


def hybrid_resolve(
    ctx: ExecutionContext, state: HybridJoinState
) -> Generator[Any, Any, None]:
    """Join the spooled partition pairs, one partition at a time.

    A partition whose build side unexpectedly exceeds memory (estimate
    error) is processed in memory-sized chunks, re-scanning its probe
    spool per chunk — bounded, never recursive — unless the ``dynamic``
    policy is active, which re-partitions the pair recursively (bounded
    by ``max_recursion``) so each side is read and written once per
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
            and depth < state.max_recursion
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
                state.overflow_chunks += 1
                ctx.metrics.node(state.node.name).overflow_chunks += 1
            _emit_table_counter(ctx, state)
            start += consumed
            results: list[tuple] = []
            cpu = 0.0
            for page_no, records in probe_spool.read_pages():
                yield from probe_spool.read_page_io(page_no)
                for record in records:
                    cpu += costs.hash_table_probe
                    bucket = state.table.get(record[state.probe_pos])
                    if bucket:
                        cpu += costs.join_result_tuple * len(bucket)
                        for build_record in bucket:
                            results.append(build_record + record)
            state.matches += len(results)
            yield state.node.work(cpu)
            if results:
                yield from state.output.emit_many(results)
        state.table = defaultdict(list)
        state.bytes_used = 0.0


def hybrid_close(
    ctx: ExecutionContext, state: HybridJoinState
) -> Generator[Any, Any, None]:
    """Flush/close the node's output stream and report completion."""
    yield from state.output.close()
    yield from operator_done(ctx, state.node)


class HybridHashJoinDriver:
    """Drives the parallel Hybrid hash join (the paper's announced fix)."""

    def run(self, sched: Any, join: Any, dest: Any) -> Generator[Any, Any, None]:
        from ...sim import WaitAll
        from ..ports import InputPort
        from ..split_table import Destination

        ctx = sched.ctx
        config = ctx.config
        nodes = ctx.placement_nodes(join.placement)
        capacity = config.join_memory_total // len(nodes)
        build_pos = join.build.schema.position(join.build_attr)
        probe_pos = join.probe.schema.position(join.probe_attr)
        est = join.build_input.estimated_rows
        spill = getattr(join, "spill", None) or SpillConfig.from_config(config)
        states: list[HybridJoinState] = []
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
            yield from sched._initiate(node)
            yield from sched._initiate(node)
            states.append(
                HybridJoinState(
                    ctx, node, idx, build_pos, probe_pos, capacity,
                    join.build.schema.tuple_bytes,
                    join.probe.schema.tuple_bytes,
                    output, bit_filter, build_port, probe_port,
                    expected_build_tuples=est / len(nodes),
                    spill=spill,
                )
            )

        build_procs = [
            sched._spawn(s.node, hybrid_build_consumer(ctx, s),
                         f"{join.op_id}.build.{s.index}",
                         op_id=join.build_input.op_id, phase="build")
            for s in states
        ]
        yield from sched.run_op(
            join.build,
            sched.lower_exchange(join.build_input.exchange, build_ports),
        )
        yield WaitAll(build_procs)

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

        probe_procs = [
            sched._spawn(s.node, hybrid_probe_consumer(ctx, s),
                         f"{join.op_id}.probe.{s.index}",
                         op_id=join.op_id, phase="probe")
            for s in states
        ]
        yield from sched.run_op(
            join.probe,
            sched.lower_exchange(
                join.exchange, probe_ports, bit_filter=probe_filter
            ),
        )
        yield WaitAll(probe_procs)

        resolve_procs = [
            sched._spawn(s.node, hybrid_resolve(ctx, s),
                         f"{join.op_id}.resolve.{s.index}",
                         op_id=join.op_id, phase="overflow")
            for s in states
        ]
        yield WaitAll(resolve_procs)
        closers = [
            sched._spawn(s.node, hybrid_close(ctx, s),
                         f"{join.op_id}.close.{s.index}",
                         op_id=join.op_id, phase="probe")
            for s in states
        ]
        yield WaitAll(closers)
        # Actual overflow reactions — not the planned partition count,
        # which is reported separately.
        sched.overflows_per_node = [s.overflow_chunks for s in states]
        sched.partitions_per_node = [s.planned_partitions for s in states]
