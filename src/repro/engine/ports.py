"""Tuple streams between operator processes.

Producers push :class:`DataPacket`\\ s (network-packet-sized batches of
tuples) into consumers' :class:`InputPort`\\ s, closing the stream with one
:class:`EndOfStream` per producer — the three control messages of Section 2
("With the exception of these three control messages, execution of an
operator is completely self-scheduling").

Packets are carried by *couriers* (:class:`~repro.sim.Chain`\\ s that
deliver, :meth:`~repro.hardware.Interconnect.send`) so a producer is not
blocked for the full network latency: the sender's interface server
provides the back-pressure, exactly like the real DMA path.
A port's :class:`~repro.sim.Mailbox` counts the EndOfStream marks, so a
consumer sees its data packets and then the last mark only.  Couriers,
close bursts and the mailbox keep the simulated timeline of the generator
couriers and counting consumers they replaced — every step at the same
time and in the same (time, seq) order — with fewer kernel events:
``events_processed`` is not part of that contract (DESIGN §5.9, "The
close burst").

Plain, profiled and traced runs execute the same code: a profiler or trace
is only ever *told* what the packet path did (``record_tuples``, trace
instants), never handed a different path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..errors import ExecutionError
from ..sim import Get, Mailbox
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
    """Consumer endpoint: a :class:`~repro.sim.Mailbox` expecting one
    EndOfStream per registered producer."""

    def __init__(self, ctx: ExecutionContext, name: str, node: Node) -> None:
        self.ctx = ctx
        self.name = name
        self.node = node
        self.store = Mailbox(name, EndOfStream)
        # A Get names nothing but its store, so one instance serves
        # every receive instead of an allocation per packet.
        self._get_effect = Get(self.store)
        # Cached metrics objects: receive_effect runs once per packet, so
        # the registry's name-keyed lookups are hoisted out of the hot path.
        # Node/operator entries stay lazily created (first packet), so a
        # port that never receives anything keeps out of snapshots exactly
        # as before.
        self._query_counter = ctx.metrics.query
        self._node_metrics: Optional[Any] = None
        self._op_metrics: Optional[Any] = None
        #: Whether a profiler or trace watches this run; receive loops
        #: call :meth:`observe` per data packet only then.
        self.observed = ctx.profiler is not None or ctx.trace is not None

    def add_producer(self, count: int = 1) -> None:
        self.store.expected += count

    def next_packet(self) -> Generator[Any, Any, Optional[DataPacket]]:
        """Generator returning the next packet, or None once every producer
        has closed.  Charges the per-packet receive cost to this node.

        A consumer may start before the scheduler has registered its
        producers (operators are activated consumers-first); the port then
        simply blocks on the mailbox — registration always happens before
        any producer can deliver a message.

        The per-packet consumers (join build/probe, store) run this same
        loop inline, so they create no generator per packet.
        """
        message = yield self._get_effect
        if type(message) is EndOfStream:
            return None
        yield self.receive_effect(message)
        if self.observed:
            self.observe(message)
        return message

    def receive_effect(self, message: DataPacket) -> Optional[Any]:
        """Metrics plus the receive-cost effect for one data message.

        The caller yields the returned effect itself and then, on an
        :attr:`observed` port, calls :meth:`observe`.
        """
        node = self.node
        costs = node.config.costs
        if message.src_node == node.name:
            eff = node.work(costs.packet_short_circuit)
        else:
            eff = node.work(costs.packet_receive)
        n_records = len(message.records)
        # record_packet_received + record_operator_tuples, inlined on the
        # cached metrics objects.
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

    def observe(self, message: DataPacket) -> None:
        """Tell the profiler and trace that ``message`` was received.

        Called after the receive cost has been served — the trace instants
        stamp the time the consumer gets to work on the packet — from
        inside the consumer operator's process.
        """
        ctx = self.ctx
        n_records = len(message.records)
        if ctx.profiler is not None:
            ctx.profiler.record_tuples(ctx.sim._current, tuples_in=n_records)
        trace = ctx.trace
        if trace is not None:
            node_name = self.node.name
            now = ctx.sim.now
            trace.instant(
                node_name, "net", f"recv:{self.name}", now, cat="packet",
                args={"tuples": n_records, "from": message.src_node},
            )
            trace.counter(
                node_name, f"queue:{self.name}", now,
                {"depth": float(len(self.store))},
            )

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

    ``emit_many`` routes a batch of tuples with one ``route_batch`` call
    on the :class:`~repro.engine.split_table.SplitTable`; a destination's
    buffer is flushed as one network packet whenever it reaches the
    configured packet size, and ``close`` flushes everything and sends the
    EOS marks.
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
        # A destination's buffer is made by the first tuple routed there:
        # at 256 sites most of a producer's destinations never get one.
        self._buffers: list[Optional[list[tuple]]] = (
            [None] * len(split.destinations)
        )
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
        work = self.node.work
        cpu = 0.0
        filtered = 0
        for record, dest_idx in zip(
            records, self.split.route_batch(records)
        ):
            if type(dest_idx) is int:
                cpu += dest_costs[dest_idx]
                buffer = buffers[dest_idx]
                if buffer is None:
                    buffer = buffers[dest_idx] = []
                buffer.append(record)
                if len(buffer) >= capacity:
                    # Ship immediately so no packet exceeds the wire size.
                    yield work(cpu)
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
                    if buffer is None:
                        buffer = buffers[idx] = []
                    buffer.append(record)
                    if len(buffer) >= capacity:
                        yield work(cpu)
                        cpu = 0.0
                        yield from self._flush(idx)
        if filtered:
            self.tuples_filtered += filtered
        yield work(cpu)

    def flush_all(self) -> Generator[Any, Any, None]:
        """Push every partial buffer onto the wire without closing.

        Used by operators that must sequence their output behind other
        producers (the sort chain): everything buffered so far enters the
        FIFO network path before the hand-off token does.
        """
        for dest_idx, buffer in enumerate(self._buffers):
            if buffer:
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
        for dest_idx, buffer in enumerate(self._buffers):
            if buffer:
                yield from self._flush(dest_idx)
        ctx = self.ctx
        destinations = self.split.destinations
        ctx.metrics.record_control_message(self.node.name, len(destinations))
        ctx.net.broadcast(
            ctx.sim, self.node.name, destinations, EOS_BYTES,
            EndOfStream(self.label),
        )

    def _flush(self, dest_idx: int) -> Generator[Any, Any, None]:
        records = self._buffers[dest_idx]
        if not records:
            return
        self._buffers[dest_idx] = None
        ctx = self.ctx
        node = self.node
        dest = self.split.destinations[dest_idx]
        n_records = len(records)
        packet = DataPacket(
            records, n_records * self.tuple_bytes, self.label,
            src_node=node.name,
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
            nm = self._node_metrics = ctx.metrics.node(node.name)
        nm.packets_sent += 1
        nm.tuples_out += n_records
        if short_circuit:
            q["packets_short_circuited"] += 1
            nm.packets_short_circuited += 1
        om = self._op_metrics
        if om is None:
            om = self._op_metrics = ctx.metrics.operator(
                self.label, node.name
            )
        om.tuples_out += n_records
        if ctx.profiler is not None:
            # _flush runs inside the producer operator's process.
            ctx.profiler.record_tuples(ctx.sim._current, tuples_out=n_records)
        if ctx.trace is not None:
            ctx.trace.instant(
                node.name, "net", f"send:{self.label}",
                ctx.sim.now, cat="packet",
                args={"tuples": n_records, "to": dest.node_name},
            )
        costs = node.config.costs
        yield node.work(
            costs.packet_short_circuit if short_circuit else costs.packet_send
        )
        # Fire and forget: couriers traverse FIFO servers with identical
        # service demands, so per-destination ordering — including
        # EOS-last — is preserved.
        ctx.net.send(
            ctx.sim, node.name, dest.node_name, packet.nbytes,
            dest.port.store, packet,
        )
