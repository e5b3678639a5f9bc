"""Timed bulk loading.

Section 2: "when tuples are loaded into a relation, they are distributed
[round-robin / hashed / range / uniform] among all disk drives".  The
untimed ``load_relation`` builds the fragments instantly (convenient for
benchmarks whose clock starts at query submission); this module makes the
load itself a measured dataflow operation: the host streams tuples through
a split table to a loader operator at every disk site, which fills pages,
writes them out, and bulk-builds the requested indexes.
"""

from __future__ import annotations

from math import ceil
from typing import Any, Generator, Optional, Sequence

from ..catalog import PartitioningStrategy
from ..sim import Delay, Process, Put, WaitAll
from ..storage import Schema, external_sort, records_per_page
from ..storage.btree import ENTRY_OVERHEAD_BYTES, NODE_HEADER_BYTES, POINTER_BYTES
from .node import ExecutionContext, Node
from .ports import DataPacket, EndOfStream, InputPort

#: Host CPU instructions to stage one tuple for shipment.
HOST_TUPLE_CPU = 200.0


class LoadRun:
    """One timed load: host streaming + per-site loader operators."""

    def __init__(
        self,
        ctx: ExecutionContext,
        name: str,
        schema: Schema,
        records: Sequence[tuple],
        strategy: PartitioningStrategy,
        clustered_on: Optional[str],
        secondary_on: Sequence[str],
    ) -> None:
        self.ctx = ctx
        self.name = name
        self.schema = schema
        self.records = records
        self.strategy = strategy
        self.clustered_on = clustered_on
        self.secondary_on = list(secondary_on)
        self.loaded = 0

    # ------------------------------------------------------------------
    def host_process(self) -> Generator[Any, Any, None]:
        ctx = self.ctx
        yield Delay(ctx.config.host_startup_s)
        n_sites = len(ctx.disk_nodes)
        self.strategy.prepare(self.records, self.schema, n_sites)
        ports = [
            InputPort(ctx, f"load.{i}", node)
            for i, node in enumerate(ctx.disk_nodes)
        ]
        for port in ports:
            port.add_producer()
        procs: list[Process] = []
        for i, node in enumerate(ctx.disk_nodes):
            procs.append(
                ctx.sim.spawn(
                    self._loader(node, ports[i]), name=f"load.{i}"
                )
            )
        yield from self._stream(ports)
        results = yield WaitAll(procs)
        self.loaded = sum(results)

    def _stream(self, ports: list[InputPort]) -> Generator[Any, Any, None]:
        """The host ships tuples through the partitioning split."""
        ctx = self.ctx
        host = ctx.host_node
        n_sites = len(ports)
        capacity = max(1, ctx.config.packet_size // self.schema.tuple_bytes)
        buffers: list[list[tuple]] = [[] for _ in range(n_sites)]
        sites = self.strategy.sites_of(self.records, n_sites)
        for record, site in zip(self.records, sites):
            yield host.work(HOST_TUPLE_CPU)
            buffers[site].append(record)
            if len(buffers[site]) >= capacity:
                yield from self._ship(host, ports[site], buffers[site])
                buffers[site] = []
        for site, buffer in enumerate(buffers):
            if buffer:
                yield from self._ship(host, ports[site], buffer)
        for site, port in enumerate(ports):
            yield from ctx.net.transfer(
                host.name, ctx.disk_nodes[site].name, 64
            )
            yield Put(port.store, EndOfStream("host"))

    def _ship(
        self, host: Node, port: InputPort, records: list[tuple]
    ) -> Generator[Any, Any, None]:
        ctx = self.ctx
        nbytes = len(records) * self.schema.tuple_bytes
        yield host.work(ctx.config.costs.packet_send)
        yield from ctx.net.transfer(host.name, port.node.name, nbytes)
        yield Put(
            port.store,
            DataPacket(records, nbytes, "host", src_node=host.name),
        )
        ctx.metrics.add("load_packets")

    # ------------------------------------------------------------------
    def _loader(
        self, node: Node, port: InputPort
    ) -> Generator[Any, Any, int]:
        """Receive this site's share, write pages, bulk-build indexes."""
        ctx = self.ctx
        costs = ctx.config.costs
        page_size = ctx.config.page_size
        per_page = records_per_page(page_size, self.schema.tuple_bytes)
        received = 0
        pages_written = 0
        while True:
            packet = yield from port.next_packet()
            if packet is None:
                break
            received += len(packet.records)
            yield node.work(costs.store_tuple * len(packet.records))
            while received // per_page > pages_written:
                yield from node.write_page(self.name, pages_written)
                pages_written += 1
        if received % per_page:
            yield from node.write_page(self.name, pages_written)
            pages_written += 1
        data_pages = pages_written
        if self.clustered_on is not None:
            yield from self._charge_sort(node, received, data_pages)
            # Rewrite the file in key order + the sparse index on top.
            for page_no in range(data_pages):
                yield from node.write_page(f"{self.name}.sorted", page_no)
            yield from self._charge_index_build(
                node, n_entries=data_pages, payload=POINTER_BYTES
            )
        for _attr in self.secondary_on:
            yield from self._charge_sort(node, received, data_pages)
            yield from self._charge_index_build(
                node, n_entries=received, payload=POINTER_BYTES
            )
        return received

    def _charge_sort(
        self, node: Node, n_records: int, n_pages: int
    ) -> Generator[Any, Any, None]:
        ctx = self.ctx
        _ordered, stats = external_sort(
            [],  # counts only; the functional sort happens in the catalog
            key=lambda r: r,
            record_bytes=self.schema.tuple_bytes,
            page_size=ctx.config.page_size,
            memory_bytes=max(ctx.config.page_size,
                             ctx.config.join_memory_per_node),
        )
        passes = 1 + stats.merge_passes
        yield node.work(
            ctx.config.costs.sort_tuple_pass * n_records * passes
        )
        spill = f"{self.name}.loadsort"
        if n_records * self.schema.tuple_bytes > ctx.config.join_memory_per_node:
            for page_no in range(n_pages):
                yield from node.write_page(spill, page_no)
            for page_no in range(n_pages):
                yield node.read_page(spill, page_no)

    def _charge_index_build(
        self, node: Node, n_entries: int, payload: int
    ) -> Generator[Any, Any, None]:
        ctx = self.ctx
        usable = ctx.config.page_size - NODE_HEADER_BYTES
        per_leaf = max(2, usable // (4 + payload + ENTRY_OVERHEAD_BYTES))
        leaf_pages = ceil(n_entries / per_leaf) if n_entries else 0
        yield node.work(
            ctx.config.costs.index_entry * n_entries
        )
        index_file = ctx.temp_file_id(f"{self.name}.idxbuild")
        for page_no in range(leaf_pages):
            yield from node.write_page(index_file, page_no)
        ctx.metrics.add("index_pages_built", leaf_pages)
