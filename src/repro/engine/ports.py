"""Tuple streams between operator processes.

Producers push :class:`DataPacket`\\ s (network-packet-sized batches of
tuples) into consumers' :class:`InputPort`\\ s, closing the stream with one
:class:`EndOfStream` per producer — the three control messages of Section 2
("With the exception of these three control messages, execution of an
operator is completely self-scheduling").

Packets are carried by *courier* processes so a producer is not blocked for
the full network latency: the sender's interface server provides the
back-pressure, exactly like the real DMA path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..errors import ExecutionError
from ..sim import Get, Put, Store
from .node import ExecutionContext, Node


@dataclass(slots=True)
class DataPacket:
    """A batch of tuples occupying ``nbytes`` on the wire."""

    records: list[tuple]
    nbytes: int
    producer: str
    src_node: str = ""


@dataclass(frozen=True, slots=True)
class EndOfStream:
    """Stream-close control message from one producer."""

    producer: str


#: Wire size of an :class:`EndOfStream` (a small control message).
EOS_BYTES = 64


class InputPort:
    """Consumer endpoint: a mailbox expecting ``n_producers`` EOS marks."""

    def __init__(self, ctx: ExecutionContext, name: str, node: Node) -> None:
        self.ctx = ctx
        self.name = name
        self.node = node
        self.store = Store(name)
        self.expected_producers = 0
        self._eos_seen = 0
        # Get effects are immutable descriptions, so one instance serves
        # every next_packet() call instead of an allocation per packet.
        self._get_effect = Get(self.store)
        # Cached metrics objects: next_packet runs once per packet, so the
        # registry's name-keyed lookups are hoisted out of the hot path.
        # Node/operator entries stay lazily created (first packet), so a
        # port that never receives anything keeps out of snapshots exactly
        # as before.
        self._query_counter = ctx.metrics.query
        self._node_metrics: Optional[Any] = None
        self._op_metrics: Optional[Any] = None

    def add_producer(self, count: int = 1) -> None:
        self.expected_producers += count

    def next_packet(self) -> Generator[Any, Any, Optional[DataPacket]]:
        """Generator returning the next packet, or None once every producer
        has closed.  Charges the per-packet receive cost to this node.

        A consumer may start before the scheduler has registered its
        producers (operators are activated consumers-first); the port then
        simply blocks on the mailbox — registration always happens before
        any producer can deliver a message.
        """
        while self.expected_producers == 0 or (
            self._eos_seen < self.expected_producers
        ):
            message = yield self._get_effect
            if type(message) is EndOfStream:
                self._eos_seen += 1
                continue
            node = self.node
            costs = node.config.costs
            if message.src_node == node.name:
                eff = node.work_effect(costs.packet_short_circuit)
            else:
                eff = node.work_effect(costs.packet_receive)
            if eff is not None:
                yield eff
            n_records = len(message.records)
            # record_packet_received + record_operator_tuples, inlined on
            # the cached metrics objects.
            self._query_counter["packets_received"] += 1
            nm = self._node_metrics
            if nm is None:
                nm = self._node_metrics = self.ctx.metrics.node(node.name)
            nm.packets_received += 1
            nm.tuples_in += n_records
            om = self._op_metrics
            if om is None:
                om = self._op_metrics = self.ctx.metrics.operator(
                    self.name, node.name
                )
            om.tuples_in += n_records
            if self.ctx.profiler is not None:
                # next_packet runs inside the consumer operator's process.
                self.ctx.profiler.record_tuples(
                    self.ctx.sim._current, tuples_in=len(message.records)
                )
            if self.ctx.trace is not None:
                self.ctx.trace.instant(
                    self.node.name, "net", f"recv:{self.name}",
                    self.ctx.sim.now, cat="packet",
                    args={"tuples": len(message.records),
                          "from": message.src_node},
                )
                self.ctx.trace.counter(
                    self.node.name, f"queue:{self.name}", self.ctx.sim.now,
                    {"depth": float(len(self.store))},
                )
            return message
        return None

    def receive_effect(self, message: DataPacket) -> Optional[Any]:
        """Metrics plus the receive-cost effect for one data message.

        The non-generator core of :meth:`next_packet`, used by flattened
        consumer loops (join build/probe, store) so the hot path creates no
        generator per packet.  Only valid when no profiler or trace is
        attached — the caller falls back to :meth:`next_packet` otherwise —
        and the caller owns the EOS bookkeeping (``_eos_seen``) and yields
        the returned effect itself.
        """
        node = self.node
        costs = node.config.costs
        if message.src_node == node.name:
            eff = node.work_effect(costs.packet_short_circuit)
        else:
            eff = node.work_effect(costs.packet_receive)
        n_records = len(message.records)
        self._query_counter["packets_received"] += 1
        nm = self._node_metrics
        if nm is None:
            nm = self._node_metrics = self.ctx.metrics.node(node.name)
        nm.packets_received += 1
        nm.tuples_in += n_records
        om = self._op_metrics
        if om is None:
            om = self._op_metrics = self.ctx.metrics.operator(
                self.name, node.name
            )
        om.tuples_in += n_records
        return eff

    def drain(self) -> Generator[Any, Any, list[tuple]]:
        """Consume the whole stream, returning every record."""
        records: list[tuple] = []
        while True:
            packet = yield from self.next_packet()
            if packet is None:
                return records
            records.extend(packet.records)


class OutputPort:
    """Producer endpoint: per-destination packet buffers over a split table.

    ``emit``/``emit_many`` route tuples through the
    :class:`~repro.engine.split_table.SplitTable`; a destination's buffer is
    flushed as one network packet whenever it reaches the configured packet
    size, and ``close`` flushes everything and sends the EOS marks.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        node: Node,
        split: "Any",  # SplitTable; typed loosely to avoid an import cycle
        tuple_bytes: int,
        label: str,
    ) -> None:
        self.ctx = ctx
        self.node = node
        self.split = split
        self.tuple_bytes = tuple_bytes
        self.label = label
        self.packet_capacity = max(
            1, ctx.config.packet_size // max(1, tuple_bytes)
        )
        self._buffers: list[list[tuple]] = [
            [] for _ in range(len(split.destinations))
        ]
        # Tuples bound for a same-node process skip the network-buffer
        # copy (NOSE short-circuiting).  The destination set is fixed for
        # the port's lifetime, so compute the flags once — and from them
        # the per-destination routing charge emit_many accrues per tuple.
        self._local_flags = [
            dest.node_name == node.name for dest in split.destinations
        ]
        costs = node.config.costs
        local_cost = costs.result_tuple_local + split.route_cost
        remote_cost = costs.result_tuple + split.route_cost
        self._dest_costs = [
            local_cost if local else remote_cost for local in self._local_flags
        ]
        self.tuples_sent = 0
        self.tuples_filtered = 0
        self._closed = False
        # Cached metrics objects (see InputPort.__init__).
        self._query_counter = ctx.metrics.query
        self._node_metrics: Optional[Any] = None
        self._op_metrics: Optional[Any] = None

    def emit_many(self, records: list[tuple]) -> Generator[Any, Any, None]:
        """Route a batch of tuples, flushing any buffer that fills."""
        if self._closed:
            raise ExecutionError(f"emit on closed port {self.label}")
        costs = self.node.config.costs
        buffers = self._buffers
        capacity = self.packet_capacity
        dest_costs = self._dest_costs
        bitfilter_cost = costs.bitfilter_test
        work_effect = self.node.work_effect
        cpu = 0.0
        filtered = 0
        for record, dest_idx in zip(
            records, self.split.route_batch(records)
        ):
            if type(dest_idx) is int:
                cpu += dest_costs[dest_idx]
                buffer = buffers[dest_idx]
                buffer.append(record)
                if len(buffer) >= capacity:
                    # Ship immediately so no packet exceeds the wire size.
                    eff = work_effect(cpu)
                    if eff is not None:
                        yield eff
                    cpu = 0.0
                    yield from self._flush(dest_idx)
            elif dest_idx is None:
                # Dropped by a bit-vector filter in the split table.
                filtered += 1
                cpu += bitfilter_cost
            else:
                # A multi-destination route (fragment-replicate broadcast
                # of a hot key): a copy — and its CPU cost — per target.
                for idx in dest_idx:
                    cpu += dest_costs[idx]
                    buffer = buffers[idx]
                    buffer.append(record)
                    if len(buffer) >= capacity:
                        eff = work_effect(cpu)
                        if eff is not None:
                            yield eff
                        cpu = 0.0
                        yield from self._flush(idx)
        if filtered:
            self.tuples_filtered += filtered
        if cpu:
            eff = work_effect(cpu)
            if eff is not None:
                yield eff

    def flush_all(self) -> Generator[Any, Any, None]:
        """Push every partial buffer onto the wire without closing.

        Used by operators that must sequence their output behind other
        producers (the sort chain): everything buffered so far enters the
        FIFO network path before the hand-off token does.
        """
        for dest_idx in range(len(self._buffers)):
            if self._buffers[dest_idx]:
                yield from self._flush(dest_idx)

    def close(self) -> Generator[Any, Any, None]:
        """Flush remaining buffers and send EndOfStream to every
        destination (closing output streams sends eos to each destination
        process — Section 2).

        All D messages leave in this one process step, so they go to the
        interconnect as one burst sharing one EndOfStream: D simulated
        messages, O(1) host objects waiting on the sender interface.
        """
        if self._closed:
            return
        self._closed = True
        for dest_idx in range(len(self._buffers)):
            if self._buffers[dest_idx]:
                yield from self._flush(dest_idx)
        ctx = self.ctx
        destinations = self.split.destinations
        eos = EndOfStream(self.label)
        ctx.metrics.record_control_message(self.node.name, len(destinations))
        if ctx.profiler is None:
            ctx.net.transfer_burst(
                ctx.sim, self.node.name, destinations, EOS_BYTES, eos
            )
        else:
            for dest in destinations:
                self._dispatch(dest, eos, EOS_BYTES)

    def _flush(self, dest_idx: int) -> Generator[Any, Any, None]:
        records = self._buffers[dest_idx]
        if not records:
            return
        self._buffers[dest_idx] = []
        dest = self.split.destinations[dest_idx]
        n_records = len(records)
        packet = DataPacket(
            records, n_records * self.tuple_bytes, self.label,
            src_node=self.node.name,
        )
        self.tuples_sent += n_records
        short_circuit = self._local_flags[dest_idx]
        # record_packet_sent + record_operator_tuples, inlined on the
        # cached metrics objects.
        q = self._query_counter
        q["packets_sent"] += 1
        q["tuples_shipped"] += n_records
        nm = self._node_metrics
        if nm is None:
            nm = self._node_metrics = self.ctx.metrics.node(self.node.name)
        nm.packets_sent += 1
        nm.tuples_out += n_records
        if short_circuit:
            q["packets_short_circuited"] += 1
            nm.packets_short_circuited += 1
        om = self._op_metrics
        if om is None:
            om = self._op_metrics = self.ctx.metrics.operator(
                self.label, self.node.name
            )
        om.tuples_out += n_records
        if self.ctx.profiler is not None:
            # _flush runs inside the producer operator's process.
            self.ctx.profiler.record_tuples(
                self.ctx.sim._current, tuples_out=len(records)
            )
        if self.ctx.trace is not None:
            self.ctx.trace.instant(
                self.node.name, "net", f"send:{self.label}",
                self.ctx.sim.now, cat="packet",
                args={"tuples": len(records), "to": dest.node_name},
            )
        costs = self.node.config.costs
        if short_circuit:
            eff = self.node.work_effect(costs.packet_short_circuit)
        else:
            eff = self.node.work_effect(costs.packet_send)
        if eff is not None:
            yield eff
        self._dispatch(dest, packet, packet.nbytes)

    def _dispatch(self, dest: "Any", message: Any, nbytes: int) -> None:
        """Hand the message to a courier (fire and forget).

        Couriers traverse FIFO servers with identical service demands, so
        per-destination ordering — including EOS-last — is preserved.
        Without a profiler the courier is a plain callback chain
        (:meth:`Interconnect.transfer_fast`; a close sends its
        EndOfStreams through :meth:`Interconnect.transfer_burst` instead)
        producing the exact same event sequence as the generator it
        replaces; with one, the generator path is kept so service
        attributes via ``Process.parent``.
        """
        ctx = self.ctx
        src = self.node.name
        if ctx.profiler is None:
            ctx.net.transfer_fast(
                ctx.sim, src, dest.node_name, nbytes, dest.port.store, message
            )
            return

        def courier() -> Generator[Any, Any, None]:
            yield from ctx.net.transfer(src, dest.node_name, nbytes)
            yield Put(dest.port.store, message)

        ctx.sim.spawn(courier(), name=f"courier:{self.label}")
