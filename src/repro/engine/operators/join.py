"""Distributed Simple hash-partitioned join [DEWI85, KITS83].

Phase one builds main-memory hash tables from the (smaller) building
relation; phase two probes them with the larger relation.  When a node's
hash table exceeds its memory budget the *Simple* overflow algorithm kicks
in: the node halves the fraction of the key space it keeps resident, evicts
everything else to spool files, and — crucially — the overflow tuples are
redistributed across **all** joining processors with a *different* hash
function ("This change in hash functions is necessary in order to ensure
that all joining processors are used in the case when only a subset of
sites overflow").  Spooled build/probe pairs are joined recursively, one
round per overflow generation, which is what makes the algorithm
"deteriorate exponentially with multiple overflows" (Figure 13) and also
why Local joins lose their short-circuit advantage after the first overflow
(the crossover in Figure 13).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Generator, Optional

from ...catalog.partitioning import stable_hash
from ...errors import ExecutionError
from ..bitfilter import BitVectorFilter
from ..node import ExecutionContext, Node
from ..ports import EndOfStream, InputPort, OutputPort
from .base import SpoolFile, operator_done

#: Safety valve against non-terminating overflow recursion.
MAX_OVERFLOW_ROUNDS = 200


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
    """The hash that picks which node owns a spooled tuple.

    It must be independent of :func:`_h2`: every spooled tuple has
    ``_h2(key) >= kept_fraction`` by construction, so routing by the same
    value would crowd all overflow work onto the top slice of the joining
    processors.  An independent family keeps every processor busy during
    overflow resolution — the paper's stated reason for switching hash
    functions.
    """
    return _h2(value, seed + 1_000_003)


class JoinState:
    """Per-node state of one distributed hash join."""

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
    ) -> None:
        self.ctx = ctx
        self.node = node
        self.index = index
        self.build_pos = build_pos
        self.probe_pos = probe_pos
        self.capacity_bytes = capacity_bytes
        self.build_record_bytes = build_record_bytes
        self.probe_record_bytes = probe_record_bytes
        self.output = output
        self.bit_filter = bit_filter
        self.build_port = build_port
        self.probe_port = probe_port
        self.entry_bytes = build_record_bytes * ctx.config.hash_table_overhead
        self.table: dict[Any, list[tuple]] = defaultdict(list)
        self.bytes_used = 0.0
        self.kept_fraction = 1.0
        self.seed = 0
        self.overflows = 0
        self.matches = 0
        self.build_tuples = 0
        self.probe_tuples = 0
        self.expected_build_tuples = 0.0

    def reset_for_round(self, seed: int, expected_build_tuples: float) -> None:
        self.table = defaultdict(list)
        self.bytes_used = 0.0
        self.kept_fraction = 1.0
        self.seed = seed
        self.expected_build_tuples = expected_build_tuples

    def target_kept_fraction(self) -> float:
        """The kept fraction chosen when an overflow is detected.

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
    """One generation of cross-node overflow spool files.

    Tuples spooled during round ``seed`` are routed to the join node that
    owns their ``_h2(key, seed)`` slice, so the next round's work is spread
    over every joining processor.
    """

    def __init__(
        self, ctx: ExecutionContext, states: list[JoinState], seed: int
    ) -> None:
        self.seed = seed
        self.n = len(states)
        self.build_spools = [
            SpoolFile(ctx, s.node, f"jb{seed}", s.build_record_bytes)
            for s in states
        ]
        self.probe_spools = [
            SpoolFile(ctx, s.node, f"jp{seed}", s.probe_record_bytes)
            for s in states
        ]

    def target_index(self, h2_value: float) -> int:
        return min(self.n - 1, int(h2_value * self.n))

    def spooled_build(self) -> int:
        return sum(len(s) for s in self.build_spools)

    def spooled_probe(self) -> int:
        return sum(len(s) for s in self.probe_spools)

    def flush(self) -> Generator[Any, Any, None]:
        for spool in [*self.build_spools, *self.probe_spools]:
            yield from spool.flush()


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def _insert_batch(
    state: JoinState,
    records: list[tuple],
    exchange: OverflowExchange,
) -> Generator[Any, Any, None]:
    """Insert build records, evicting to the exchange on overflow."""
    costs = state.node.config.costs
    # Every record pays the insert charge regardless of whether it spills;
    # the constants are integer-valued, so one bulk multiply is exactly the
    # float sum of the per-record adds.
    cpu = costs.hash_table_insert * len(records)
    seed = state.seed
    pos = state.build_pos
    spill: dict[int, list[tuple]] = defaultdict(list)
    bitset_cost = costs.bitfilter_set
    entry_bytes = state.entry_bytes
    capacity = state.capacity_bytes
    table = state.table
    bf = state.bit_filter
    bf_add = bf.add if bf is not None else None
    build_tuples = state.build_tuples
    bytes_used = state.bytes_used
    kept = state.kept_fraction
    # While no eviction has happened kept_fraction is 1.0 and
    # ``_h2(key) >= kept`` is unreachable (_h2 maps into [0, 1)), so the
    # subpartition hash is skipped entirely; the first eviction drops
    # ``kept`` below 1.0 and re-enables it mid-batch.
    fast = kept >= 1.0
    for record in records:
        key = record[pos]
        if not fast and _h2(key, seed) >= kept:
            spill[exchange.target_index(_route_h(key, seed))].append(record)
            continue
        table[key].append(record)
        build_tuples += 1
        bytes_used += entry_bytes
        if bf_add is not None:
            bf_add(key)
            cpu += bitset_cost
        if bytes_used > capacity:
            state.build_tuples = build_tuples
            state.bytes_used = bytes_used
            cpu += _evict(state, exchange, spill, costs)
            build_tuples = state.build_tuples
            bytes_used = state.bytes_used
            table = state.table
            kept = state.kept_fraction
            fast = kept >= 1.0
    state.build_tuples = build_tuples
    state.bytes_used = bytes_used
    state.ctx.metrics.record_hash_table_bytes(
        state.node.name, state.bytes_used
    )
    if state.ctx.trace is not None:
        state.ctx.trace.counter(
            state.node.name, "hash-table", state.ctx.sim.now,
            {"bytes": float(state.bytes_used),
             "overflows": float(state.overflows)},
        )
    yield state.node.work(cpu)
    for target, batch in spill.items():
        yield from exchange.build_spools[target].add_batch(
            batch, sender=state.node
        )


def _evict(
    state: JoinState,
    exchange: OverflowExchange,
    spill: dict[int, list[tuple]],
    costs: Any,
) -> float:
    """Shrink the kept key-space fraction; move evicted entries to spill.

    Returns the CPU instructions spent rehashing the table.
    """
    state.overflows += 1
    state.ctx.metrics.record_overflow_chunk(state.node.name)
    state.kept_fraction = state.target_kept_fraction()
    seed = state.seed
    doomed = [
        key for key in state.table if _h2(key, seed) >= state.kept_fraction
    ]
    cpu = costs.hash_table_insert * len(state.table)
    for key in doomed:
        bucket = state.table.pop(key)
        state.bytes_used -= state.entry_bytes * len(bucket)
        state.build_tuples -= len(bucket)
        spill[exchange.target_index(_route_h(key, seed))].extend(bucket)
    if not doomed and state.kept_fraction < 2 ** -40:
        raise ExecutionError(
            "hash-table overflow cannot make progress (all keys collide)"
        )
    return cpu


def build_consumer(
    ctx: ExecutionContext, state: JoinState, exchange: OverflowExchange
) -> Generator[Any, Any, None]:
    """Drain the build port into the hash table (phase one).

    The receive loop is :meth:`InputPort.next_packet` written inline —
    one Get yield per message, then ``receive_effect`` and, on an
    observed port, ``observe`` — so there is no generator per packet.
    """
    port = state.build_port
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
        yield from _insert_batch(state, message.records, exchange)


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


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def _probe_batch(
    state: JoinState,
    records: list[tuple],
    exchange: OverflowExchange,
) -> Generator[Any, Any, None]:
    """Probe with a batch, spooling tuples aimed at evicted partitions."""
    costs = state.node.config.costs
    # Every record pays the probe charge whether it hits, misses, or
    # spills; integer-valued constants make the bulk multiply exact.
    cpu = costs.hash_table_probe * len(records)
    seed = state.seed
    pos = state.probe_pos
    table_get = state.table.get
    result_cost = costs.join_result_tuple
    spill: dict[int, list[tuple]] = defaultdict(list)
    results: list[tuple] = []
    res_append = results.append
    if state.kept_fraction >= 1.0:
        # No partition was evicted: the spill branch is unreachable (see
        # _insert_batch), so skip the subpartition hash per tuple.
        for record in records:
            bucket = table_get(record[pos])
            if bucket:
                cpu += result_cost * len(bucket)
                for build_record in bucket:
                    res_append(build_record + record)
        state.probe_tuples += len(records)
    else:
        kept = state.kept_fraction
        for record in records:
            key = record[pos]
            state.probe_tuples += 1
            if _h2(key, seed) >= kept:
                spill[exchange.target_index(_route_h(key, seed))].append(
                    record
                )
                continue
            bucket = table_get(key)
            if bucket:
                cpu += result_cost * len(bucket)
                for build_record in bucket:
                    res_append(build_record + record)
    state.matches += len(results)
    yield state.node.work(cpu)
    if results:
        yield from state.output.emit_many(results)
    if spill:
        for target, batch in spill.items():
            yield from exchange.probe_spools[target].add_batch(
                batch, sender=state.node
            )


def probe_consumer(
    ctx: ExecutionContext, state: JoinState, exchange: OverflowExchange
) -> Generator[Any, Any, None]:
    """Drain the probe port through the hash table (phase two).

    Same inline receive loop as :func:`build_consumer`.
    """
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
        yield from _probe_batch(state, message.records, exchange)


# ---------------------------------------------------------------------------
# overflow resolution rounds
# ---------------------------------------------------------------------------


def resolve_round(
    ctx: ExecutionContext,
    state: JoinState,
    build_spool: SpoolFile,
    probe_spool: SpoolFile,
    next_exchange: OverflowExchange,
) -> Generator[Any, Any, None]:
    """Join one node's spooled partition pair from the previous round."""
    # The node's own spool size is known exactly, so the round's
    # subpartition fraction is well chosen.
    state.reset_for_round(next_exchange.seed, float(len(build_spool)))
    for page_no, records in build_spool.read_pages():
        yield from build_spool.read_page_io(page_no)
        yield from _insert_batch(state, records, next_exchange)
    for page_no, records in probe_spool.read_pages():
        yield from probe_spool.read_page_io(page_no)
        yield from _probe_batch(state, records, next_exchange)


def close_output(
    ctx: ExecutionContext, state: JoinState
) -> Generator[Any, Any, None]:
    """Flush/close the node's output stream and report completion."""
    yield from state.output.close()
    yield from operator_done(ctx, state.node)


class SimpleHashJoinDriver:
    """Drives a hash join with Gamma's original *Simple* overflow scheme:
    build, (maybe) switch hash functions, probe, then resolution rounds
    until no partition spills (Section 6.1)."""

    def run(self, sched: Any, join: Any, dest: Any) -> Generator[Any, Any, None]:
        from ...errors import ExecutionError
        from ...sim import WaitAll
        from ..ports import InputPort
        from ..split_table import Destination
        from .base import DestSpec

        ctx = sched.ctx
        config = ctx.config
        nodes = ctx.placement_nodes(join.placement)
        capacity = config.join_memory_total // len(nodes)
        build_pos = join.build.schema.position(join.build_attr)
        probe_pos = join.probe.schema.position(join.probe_attr)
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
            states.append(
                JoinState(
                    ctx, node, idx, build_pos, probe_pos, capacity,
                    join.build.schema.tuple_bytes,
                    join.probe.schema.tuple_bytes,
                    output, bit_filter, build_port, probe_port,
                )
            )
        # The optimizer's building-relation estimate sizes the overflow
        # subpartition fraction (Section 6.2.2's robustness claim).
        est = join.build_input.estimated_rows
        for state in states:
            state.expected_build_tuples = est / len(nodes)
        exchange = OverflowExchange(ctx, states, seed=1)

        # Phase one: build.
        build_procs = [
            sched._spawn(s.node, build_consumer(ctx, s, exchange),
                         f"{join.op_id}.build.{s.index}",
                         op_id=join.build_input.op_id, phase="build")
            for s in states
        ]
        yield from sched.run_op(
            join.build,
            sched.lower_exchange(join.build_input.exchange, build_ports),
        )
        yield WaitAll(build_procs)

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

        # Hash-function switch: if any node overflowed during the build,
        # the scheduler redistributes the kept tables under the new hash
        # and passes the new function to the probing selections' split
        # tables (Section 6.2.2) — Local joins lose their short-circuit.
        if any(s.overflows for s in states):
            charges = redistribute_tables_after_overflow(ctx, states, exchange)
            redist_procs = [
                sched._spawn(s.node, gen, f"{join.op_id}.redist.{s.index}",
                             op_id=join.op_id, phase="overflow")
                for s, gen in zip(states, charges)
            ]
            yield WaitAll(redist_procs)
            probe_dest = DestSpec(
                "fn", probe_ports, attr=join.probe_attr,
                bit_filter=probe_filter,
                route_fn=overflow_route(len(states)),
            )
        else:
            probe_dest = sched.lower_exchange(
                join.exchange, probe_ports, bit_filter=probe_filter
            )

        # Phase two: probe.
        probe_procs = [
            sched._spawn(s.node, probe_consumer(ctx, s, exchange),
                         f"{join.op_id}.probe.{s.index}",
                         op_id=join.op_id, phase="probe")
            for s in states
        ]
        yield from sched.run_op(join.probe, probe_dest)
        yield WaitAll(probe_procs)

        # Overflow resolution rounds: one generation at a time, all nodes
        # in parallel, until no partition spilled.
        round_no = 1
        yield from exchange.flush()
        while exchange.spooled_build() or exchange.spooled_probe():
            round_no += 1
            if round_no > 100:
                raise ExecutionError("join overflow did not converge")
            next_exchange = OverflowExchange(ctx, states, seed=round_no)
            round_procs = [
                sched._spawn(
                    s.node,
                    resolve_round(
                        ctx, s,
                        exchange.build_spools[s.index],
                        exchange.probe_spools[s.index],
                        next_exchange,
                    ),
                    f"{join.op_id}.ovfl.{round_no}.{s.index}",
                    op_id=join.op_id, phase="overflow",
                )
                for s in states
            ]
            yield WaitAll(round_procs)
            yield from next_exchange.flush()
            exchange = next_exchange

        closers = [
            sched._spawn(s.node, close_output(ctx, s),
                         f"{join.op_id}.close.{s.index}",
                         op_id=join.op_id, phase="probe")
            for s in states
        ]
        yield WaitAll(closers)
        sched.overflows_per_node = [s.overflows for s in states]
