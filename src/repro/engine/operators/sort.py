"""The parallel sort operator.

Each sort process receives a disjoint key slice of the stream (the split
table range-partitions on the sort attribute using boundaries from catalog
statistics), sorts its slice with the WiSS external sort — spool I/O goes
to the node's assigned disk site — and then emits in *slice order*: node
``i`` waits for node ``i-1``'s completion token before sending, so the
consumer sees one globally ordered stream.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ...sim import Get, Put, Store
from ...storage import external_sort
from ..node import ExecutionContext, Node
from ..ports import InputPort, OutputPort
from .base import SpoolFile, operator_done

#: Tuples emitted per output batch while streaming the sorted slice.
EMIT_BATCH = 64


def sort_operator(
    ctx: ExecutionContext,
    node: Node,
    port: InputPort,
    key_pos: int,
    descending: bool,
    tuple_bytes: int,
    output: OutputPort,
    go: Optional[Store],
    done: Optional[Store],
    successor: Optional[str] = None,
) -> Generator[Any, Any, int]:
    """Sort one key slice; emit it when the predecessor slice finishes."""
    costs = ctx.config.costs
    records = yield from port.drain()
    memory = max(ctx.config.page_size, ctx.config.join_memory_per_node)
    ordered, stats = external_sort(
        records,
        key=lambda r: r[key_pos],
        record_bytes=tuple_bytes,
        page_size=ctx.config.page_size,
        memory_bytes=memory,
    )
    if descending:
        ordered.reverse()
    yield node.work(
        costs.sort_tuple_pass * stats.n_records * (1 + stats.merge_passes)
    )
    if stats.merge_passes > 0:
        # Run formation + merge passes spill through the spool disk.
        spool = SpoolFile(ctx, node, "sort", tuple_bytes)
        for page_no in range(stats.pages_written):
            yield from spool.target.write_page(spool.file_id, page_no)
        for page_no in range(stats.pages_read):
            yield spool.target.read_page(
                spool.file_id, page_no % max(1, stats.n_pages)
            )
        ctx.metrics.add("sort_spill_pages", stats.total_page_ios)
    if go is not None:
        yield Get(go)  # wait for the preceding slice to finish emitting
    for start in range(0, len(ordered), EMIT_BATCH):
        yield from output.emit_many(ordered[start:start + EMIT_BATCH])
    # Put the whole slice on the wire, then pass the hand-off token along
    # the same FIFO network path so the successor's tuples cannot overtake
    # this slice's tail.
    yield from output.flush_all()
    if done is not None:
        if successor is not None:
            yield from ctx.net.transfer(node.name, successor, 64)
        yield Put(done, node.name)
    yield from output.close()
    yield from operator_done(ctx, node)
    return len(ordered)


class SortDriver:
    """Drives a parallel range sort: disjoint key slices, emitted in order.

    The child stream is range-split by the optimizer's boundaries; each
    sorter orders its slice (external sort, spill to its spool disk site),
    then the slices emit one after another via a token chain so the
    destination receives a globally ordered stream.
    """

    def run(self, sched: Any, sort: Any, dest: Any) -> Generator[Any, Any, None]:
        from ...sim import WaitAll
        from ..split_table import Destination

        ctx = sched.ctx
        nodes = ctx.placement_nodes(sort.placement)
        boundaries = sort.exchange.boundaries
        if boundaries is None:
            nodes = nodes[:1]
        ports: list[Destination] = []
        procs = []
        tokens: list[Store] = [
            Store(f"{sort.op_id}.tok.{i}") for i in range(len(nodes))
        ]
        emit_order = list(range(len(nodes)))
        if sort.descending:
            emit_order.reverse()
        chain_pos = {node_idx: k for k, node_idx in enumerate(emit_order)}
        for idx, node in enumerate(nodes):
            port = InputPort(ctx, f"{sort.op_id}.{idx}", node)
            ports.append(Destination(node.name, port))
            output = sched._make_output(node, dest, sort.schema)
            yield from sched._initiate(node)
            position = chain_pos[idx]
            go = tokens[emit_order[position - 1]] if position > 0 else None
            done = tokens[idx]
            successor = (
                nodes[emit_order[position + 1]].name
                if position + 1 < len(emit_order) else None
            )
            procs.append(
                sched._spawn(
                    node,
                    sort_operator(
                        ctx, node, port, sort.key_pos, sort.descending,
                        sort.schema.tuple_bytes, output, go, done,
                        successor,
                    ),
                    f"{sort.op_id}.{idx}",
                    op_id=sort.op_id, phase="sort",
                )
            )
        yield from sched.run_op(
            sort.source, sched.lower_exchange(sort.exchange, ports)
        )
        yield WaitAll(procs)
