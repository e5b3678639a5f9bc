"""The store operator: writes result tuples at a disk site.

"If the result of a query is a new relation, the operators at the root of
the query tree distribute the result tuples on a round-robin basis to store
operators at each disk site which assume the responsibility for writing the
result tuples to disk" (Section 2).
"""

from __future__ import annotations

from typing import Any, Generator

from ...storage import Schema, StoredFile
from ..node import ExecutionContext, Node
from ..ports import EndOfStream, InputPort
from .base import operator_done


def store_operator(
    ctx: ExecutionContext,
    node: Node,
    port: InputPort,
    fragment: StoredFile,
) -> Generator[Any, Any, int]:
    """Append incoming tuples to ``fragment``, writing pages as they fill.

    Returns the number of tuples stored.  Gamma's QUEL ``retrieve into``
    creates a brand-new file, so no logging beyond the (cheap) create is
    needed — the big Table 1/2 asymmetry against Teradata's logged
    ``insert into``.
    """
    costs = ctx.config.costs
    heap = fragment.heap
    pages_flushed = 0
    stored = 0
    store_tuple = costs.store_tuple
    work = node.work
    get_effect = port._get_effect
    receive = port.receive_effect
    observed = port.observed
    while True:
        # Inline receive loop (see join.build_consumer).
        message = yield get_effect
        if type(message) is EndOfStream:
            break
        yield receive(message)
        if observed:
            port.observe(message)
        records = message.records
        n_records = len(records)
        stored += n_records
        yield work(store_tuple * n_records)
        if ctx.recovery_log is not None:
            # Write-ahead: the batch's log records must be durable at the
            # recovery server before its data pages go out.
            yield from ctx.recovery_log.ship(
                node, n_records,
                n_records * fragment.schema.tuple_bytes,
            )
        heap.bulk_append(records)
        # Every page except the still-filling tail is written out.
        while pages_flushed < heap.num_pages - 1:
            yield from node.write_page(fragment.name, pages_flushed)
            pages_flushed += 1
    while pages_flushed < heap.num_pages:
        yield from node.write_page(fragment.name, pages_flushed)
        pages_flushed += 1
    yield from operator_done(ctx, node)
    return stored


def make_result_fragment(
    ctx: ExecutionContext, name: str, schema: Schema, site: int
) -> StoredFile:
    """An empty fragment for a result relation at ``site``."""
    return StoredFile(
        f"{name}.f{site}", schema, ctx.config.page_size
    )


def host_sink_operator(
    ctx: ExecutionContext,
    port: InputPort,
    collected: list[tuple],
) -> Generator[Any, Any, int]:
    """Host-side consumer for queries that return tuples to the host."""
    while True:
        packet = yield from port.next_packet()
        if packet is None:
            break
        collected.extend(packet.records)
    return len(collected)


class StoreDriver:
    """Drives the store stage: one store operator per disk site, result
    tuples sprayed round-robin (Section 2)."""

    def start(
        self, sched: Any, store: Any
    ) -> Generator[Any, Any, tuple[list[Any], Any]]:
        from ..split_table import Destination

        ctx = sched.ctx
        procs: list[Any] = []
        ports: list[Destination] = []
        for site, node in enumerate(ctx.placement_nodes(store.placement)):
            fragment = make_result_fragment(ctx, store.into, store.schema, site)
            sched.result_fragments.append(fragment)
            port = InputPort(ctx, f"{store.op_id}.{site}", node)
            ports.append(Destination(node.name, port))
            yield from sched._initiate(node)
            procs.append(
                sched._spawn(node, store_operator(ctx, node, port, fragment),
                             f"{store.op_id}.{site}",
                             op_id=store.op_id, phase="store")
            )
        return procs, sched.lower_exchange(store.exchange, ports)


class HostSinkDriver:
    """Drives the host sink: one merge consumer on the host processor."""

    def start(self, sched: Any, sink: Any) -> tuple[list[Any], Any]:
        from ..split_table import Destination

        ctx = sched.ctx
        (host,) = ctx.placement_nodes(sink.placement)
        port = InputPort(ctx, sink.op_id, host)
        proc = ctx.sim.spawn(
            host_sink_operator(ctx, port, sched.collected), name=sink.op_id
        )
        if ctx.profiler is not None:
            ctx.profiler.register(proc, sink.op_id, "sink")
        dest = sched.lower_exchange(
            sink.exchange, [Destination(host.name, port)]
        )
        return [proc], dest
