"""Shared operator-process machinery: spool files and destination specs.

Operator processes are plain generator functions spawned on a node; they
read packets from an :class:`~repro.engine.ports.InputPort`, do their work
(charging CPU to the node), emit through an
:class:`~repro.engine.ports.OutputPort`, and finish by sending a completion
message to the scheduler (modelled by the scheduler joining the process
plus one control-message transfer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterator, Optional, Sequence

from ...storage import Schema, records_per_page
from ..node import ExecutionContext, Node
from ..skew import BatchRoute
from ..split_table import SplitTable


@dataclass(frozen=True)
class DestSpec:
    """How a producer should split its output.

    Attributes:
        ports: The consuming (node_name, InputPort) destinations, one
            tuple that every producer's split table shares.
        split: Builds one producer's split table over ``ports`` from the
            producer's output schema.
    """

    ports: tuple[Any, ...]  # tuple[Destination, ...]
    split: Callable[[Schema], SplitTable]

    @classmethod
    def by_value(
        cls,
        ports: Sequence[Any],
        attr: str,
        route: BatchRoute,
        costs: Any,
        bit_filter: Optional[Any] = None,
    ) -> "DestSpec":
        """A split on the value of ``attr`` by the batch router
        ``route``, which every producer's split table shares (so a
        hot-spray cursor runs across producers), as it shares ``ports``."""
        shared = tuple(ports)
        return cls(shared, lambda schema: SplitTable.by_hash(
            shared, schema, attr, costs, bit_filter=bit_filter, route=route,
        ))


class SpoolFile:
    """A temporary file of overflow tuples owned by one operator.

    Disk sites spool to their own drive; diskless processors are assigned a
    disk site and every page travels the network both ways.  This is the
    I/O that makes the Simple hash join "deteriorate exponentially with
    multiple overflows" (Section 6.1).
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        owner: Node,
        label: str,
        record_bytes: int,
    ) -> None:
        self.ctx = ctx
        self.owner = owner
        self.target = ctx.spool_target(owner)
        self.file_id = ctx.temp_file_id(label)
        self.record_bytes = record_bytes
        self.per_page = records_per_page(ctx.config.page_size, record_bytes)
        self.records: list[tuple] = []
        self._unwritten = 0
        self._pages_written = 0

    def __len__(self) -> int:
        return len(self.records)

    @property
    def num_pages(self) -> int:
        return self._pages_written

    def add_batch(
        self, records: list[tuple], sender: Optional[Node] = None
    ) -> Generator[Any, Any, None]:
        """Spool a batch, writing any page that fills.

        ``sender`` is the node doing the spooling (defaults to the owner):
        it pays the per-tuple CPU, and pages it writes to a remote spool
        site cross the network.
        """
        if not records:
            return
        sender = sender or self.owner
        costs = sender.config.costs
        yield sender.work(costs.spool_tuple * len(records))
        self.records.extend(records)
        self._unwritten += len(records)
        while self._unwritten >= self.per_page:
            yield from self._write_page(sender)
            self._unwritten -= self.per_page

    def flush(self) -> Generator[Any, Any, None]:
        """Force the final partial page out."""
        if self._unwritten > 0:
            yield from self._write_page(self.owner)
            self._unwritten = 0

    def _write_page(self, sender: Node) -> Generator[Any, Any, None]:
        page_no = self._pages_written
        self._pages_written += 1
        self.ctx.metrics.record_spool_write(sender.name)
        if self.target is not sender:
            yield from self.ctx.net.transfer(
                sender.name, self.target.name, self.ctx.config.page_size
            )
        yield from self.target.write_page(self.file_id, page_no)

    def read_pages(self) -> Iterator[tuple[int, list[tuple]]]:
        """Page-granularity view of the spooled records (functional)."""
        for page_no in range(0, len(self.records), self.per_page):
            yield (
                page_no // self.per_page,
                self.records[page_no:page_no + self.per_page],
            )

    def read_page_io(self, page_no: int) -> Generator[Any, Any, None]:
        """Charge the I/O (and network, if remote) of reading one page."""
        self.ctx.metrics.record_spool_read(self.owner.name)
        yield self.target.read_page(self.file_id, page_no)
        if self.target is not self.owner:
            yield from self.ctx.net.transfer(
                self.target.name, self.owner.name, self.ctx.config.page_size
            )


def operator_done(
    ctx: ExecutionContext, node: Node
) -> Generator[Any, Any, None]:
    """The completion control message an operator sends its scheduler."""
    ctx.metrics.record_control_message(node.name)
    yield from ctx.net.transfer(node.name, ctx.scheduler_node.name, 64)
