"""The projection operator (duplicate-eliminating or streaming).

Section 2 lists projection among the operations executed on the diskless
processors.  A duplicate-eliminating projection receives its input
hash-partitioned on the projected attributes, so every node can
deduplicate its disjoint share with a local hash table; a plain projection
just rewrites tuples in stream order.
"""

from __future__ import annotations

from typing import Any, Generator

from ..node import ExecutionContext, Node
from ..ports import InputPort, OutputPort
from .base import operator_done


def project_operator(
    ctx: ExecutionContext,
    node: Node,
    port: InputPort,
    positions: list[int],
    unique: bool,
    output: OutputPort,
) -> Generator[Any, Any, int]:
    """Project the input stream onto ``positions``; dedup if ``unique``."""
    costs = ctx.config.costs
    seen: set[tuple] = set()
    emitted = 0
    while True:
        packet = yield from port.next_packet()
        if packet is None:
            break
        cpu = 0.0
        out: list[tuple] = []
        for record in packet.records:
            cpu += costs.project_tuple
            projected = tuple(record[p] for p in positions)
            if unique:
                cpu += costs.duplicate_check
                if projected in seen:
                    continue
                seen.add(projected)
            out.append(projected)
        emitted += len(out)
        yield node.work(cpu)
        if out:
            yield from output.emit_many(out)
    yield from output.close()
    yield from operator_done(ctx, node)
    return emitted


class ProjectDriver:
    """Drives a projection: duplicate-eliminating projections partition
    their input by a hash of the projected attributes so each node
    deduplicates a disjoint share; streaming projections take a
    round-robin share (Section 2)."""

    def run(
        self, sched: Any, project: Any, dest: Any
    ) -> Generator[Any, Any, None]:
        from ...sim import WaitAll
        from ..split_table import Destination

        ctx = sched.ctx
        nodes = ctx.placement_nodes(project.placement)
        ports: list[Destination] = []
        procs = []
        for idx, node in enumerate(nodes):
            port = InputPort(ctx, f"{project.op_id}.{idx}", node)
            ports.append(Destination(node.name, port))
            output = sched._make_output(node, dest, project.schema)
            yield from sched._initiate(node)
            procs.append(
                sched._spawn(
                    node,
                    project_operator(ctx, node, port, project.positions,
                                     project.unique, output),
                    f"{project.op_id}.{idx}",
                    op_id=project.op_id, phase="project",
                )
            )
        yield from sched.run_op(
            project.source, sched.lower_exchange(project.exchange, ports)
        )
        yield WaitAll(procs)
