"""Aggregate operators (scalar and hash group-by).

The paper ran aggregate queries but cut the table for space ([DEWI88] has
the numbers); the operators are part of Gamma proper, so they are fully
implemented: scans split tuples to aggregate processes (hash on the
grouping attribute, or round-robin for scalar partials), each process folds
its stream, and partial results are combined where necessary.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ...errors import PlanError
from ..node import ExecutionContext, Node
from ..ports import InputPort, OutputPort
from .base import operator_done


class _Accumulator:
    """Running state of one aggregate cell."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.minimum: Optional[Any] = None
        self.maximum: Optional[Any] = None

    def fold(self, value: Any) -> None:
        self.count += 1
        if value is not None:
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def merge(self, other: "_Accumulator") -> None:
        self.count += other.count
        self.total += other.total
        for value in (other.minimum, other.maximum):
            if value is None:
                continue
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def result(self, op: str) -> Any:
        if op == "count":
            return self.count
        if op == "sum":
            return self.total
        if op == "min":
            return self.minimum
        if op == "max":
            return self.maximum
        if op == "avg":
            return self.total / self.count if self.count else None
        raise PlanError(f"unknown aggregate op {op!r}")

    def as_tuple(self) -> tuple:
        return (self.count, self.total, self.minimum, self.maximum)

    @classmethod
    def from_tuple(cls, values: tuple) -> "_Accumulator":
        acc = cls()
        acc.count, acc.total, acc.minimum, acc.maximum = values
        return acc


def grouped_aggregate_operator(
    ctx: ExecutionContext,
    node: Node,
    port: InputPort,
    value_pos: Optional[int],
    group_pos: int,
    op: str,
    output: OutputPort,
) -> Generator[Any, Any, int]:
    """Hash group-by over a hash-partitioned input stream.

    Because the input split table hashes on the grouping attribute, groups
    are disjoint across nodes and each node emits final ``(group, value)``
    tuples directly.
    """
    costs = ctx.config.costs
    groups: dict[Any, _Accumulator] = {}
    # Every record pays lookup + update; the constants are integer-valued,
    # so the per-batch multiply matches the per-record float fold exactly.
    per_record = costs.aggregate_group_lookup + costs.aggregate_update
    groups_get = groups.get
    work = node.work
    while True:
        packet = yield from port.next_packet()
        if packet is None:
            break
        records = packet.records
        for record in records:
            group = record[group_pos]
            acc = groups_get(group)
            if acc is None:
                acc = groups[group] = _Accumulator()
            acc.fold(record[value_pos] if value_pos is not None else None)
        yield work(per_record * len(records))
    results = [
        (group, acc.result(op)) for group, acc in sorted(groups.items())
    ]
    yield node.work(costs.result_tuple * len(results))
    if results:
        yield from output.emit_many(results)
    yield from output.close()
    yield from operator_done(ctx, node)
    return len(results)


def partial_aggregate_operator(
    ctx: ExecutionContext,
    node: Node,
    port: InputPort,
    value_pos: Optional[int],
    output: OutputPort,
) -> Generator[Any, Any, int]:
    """Scalar partial: fold this node's share, emit one accumulator tuple."""
    costs = ctx.config.costs
    acc = _Accumulator()
    folded = 0
    while True:
        packet = yield from port.next_packet()
        if packet is None:
            break
        yield node.work(costs.aggregate_update * len(packet.records))
        folded += len(packet.records)
        for record in packet.records:
            acc.fold(record[value_pos] if value_pos is not None else None)
    yield from output.emit_many([acc.as_tuple()])
    yield from output.close()
    yield from operator_done(ctx, node)
    return folded


def combine_aggregate_operator(
    ctx: ExecutionContext,
    node: Node,
    port: InputPort,
    op: str,
    output: OutputPort,
) -> Generator[Any, Any, int]:
    """Scalar combiner: merge the per-node partials into the final value."""
    costs = ctx.config.costs
    final = _Accumulator()
    while True:
        packet = yield from port.next_packet()
        if packet is None:
            break
        yield node.work(costs.aggregate_update * len(packet.records))
        for values in packet.records:
            final.merge(_Accumulator.from_tuple(values))
    yield from output.emit_many([(final.result(op),)])
    yield from output.close()
    yield from operator_done(ctx, node)
    return 1


class AggregateDriver:
    """Drives an aggregation stage: a grouped aggregate hash-partitioned on
    the grouping attribute, or a scalar combine stage fed by per-fragment
    partial accumulators."""

    def run(self, sched: Any, agg: Any, dest: Any) -> Generator[Any, Any, None]:
        ctx = sched.ctx
        nodes = ctx.placement_nodes(agg.placement)
        value_pos = (
            agg.child.schema.position(agg.attr) if agg.attr is not None else None
        )
        if agg.group_by is not None:
            yield from self._run_grouped(sched, agg, dest, nodes, value_pos)
        else:
            yield from self._run_scalar(sched, agg, dest, nodes, value_pos)

    def _run_grouped(
        self, sched: Any, agg: Any, dest: Any, nodes: list[Node],
        value_pos: Optional[int],
    ) -> Generator[Any, Any, None]:
        from ...sim import WaitAll
        from ..split_table import Destination

        ctx = sched.ctx
        group_pos = agg.child.schema.position(agg.group_by)
        ports: list[Destination] = []
        procs = []
        for idx, node in enumerate(nodes):
            port = InputPort(ctx, f"{agg.op_id}.{idx}", node)
            ports.append(Destination(node.name, port))
            output = sched._make_output(node, dest, agg.schema)
            yield from sched._initiate(node)
            procs.append(
                sched._spawn(
                    node,
                    grouped_aggregate_operator(
                        ctx, node, port, value_pos, group_pos, agg.op, output
                    ),
                    f"{agg.op_id}.{idx}",
                    op_id=agg.op_id, phase="fold",
                )
            )
        yield from sched.run_op(
            agg.source, sched.lower_exchange(agg.exchange, ports)
        )
        yield WaitAll(procs)

    def _run_scalar(
        self, sched: Any, agg: Any, dest: Any, nodes: list[Node],
        value_pos: Optional[int],
    ) -> Generator[Any, Any, None]:
        from ...sim import WaitAll
        from ..split_table import Destination

        ctx = sched.ctx
        partial = agg.source  # the "partial" stage feeding this combine
        combiner_node = nodes[0]
        combine_port = InputPort(ctx, f"{agg.op_id}.combine", combiner_node)
        yield from sched._initiate(combiner_node)
        final_output = sched._make_output(combiner_node, dest, agg.schema)
        combine_proc = sched._spawn(
            combiner_node,
            combine_aggregate_operator(
                ctx, combiner_node, combine_port, agg.op, final_output
            ),
            f"{agg.op_id}.combine",
            op_id=agg.op_id, phase="combine",
        )
        combine_dest = sched.lower_exchange(
            agg.exchange,
            [Destination(combiner_node.name, combine_port)],
        )
        ports: list[Destination] = []
        procs = []
        for idx, node in enumerate(nodes):
            port = InputPort(ctx, f"{partial.op_id}.{idx}", node)
            ports.append(Destination(node.name, port))
            output = sched._make_output(node, combine_dest, partial.schema)
            yield from sched._initiate(node)
            procs.append(
                sched._spawn(
                    node,
                    partial_aggregate_operator(ctx, node, port, value_pos, output),
                    f"{partial.op_id}.{idx}",
                    op_id=partial.op_id, phase="fold",
                )
            )
        yield from sched.run_op(
            partial.source, sched.lower_exchange(partial.exchange, ports)
        )
        yield WaitAll(procs)
        yield WaitAll([combine_proc])
