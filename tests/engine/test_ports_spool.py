"""Unit tests for ports, packets, spool files and node I/O plumbing."""

import pytest

from repro.engine.ir import Placement
from repro.engine.node import ExecutionContext
from repro.engine.operators.base import SpoolFile
from repro.engine.ports import DataPacket, EndOfStream, InputPort, OutputPort
from repro.engine.split_table import Destination, SplitTable
from repro.errors import ExecutionError
from repro.hardware import GammaConfig
from repro.sim import Put
from repro.storage import Schema, int_attr


def make_ctx(**overrides):
    defaults = dict(n_disk_sites=2, n_diskless=2)
    defaults.update(overrides)
    return ExecutionContext(GammaConfig(**defaults))


def run_procs(ctx, *gens):
    procs = [ctx.sim.spawn(g, name=f"p{i}") for i, g in enumerate(gens)]
    ctx.sim.run()
    return procs


class TestInputPort:
    def test_drain_collects_until_all_eos(self):
        ctx = make_ctx()
        node = ctx.disk_nodes[0]
        port = InputPort(ctx, "in", node)
        port.add_producer(2)
        got = []

        def consumer():
            records = yield from port.drain()
            got.extend(records)

        def producer(tag):
            yield Put(port.store, DataPacket([(tag, 1)], 208, tag, node.name))
            yield Put(port.store, EndOfStream(tag))

        run_procs(ctx, consumer(), producer("a"), producer("b"))
        assert sorted(got) == [("a", 1), ("b", 1)]

    def test_short_circuit_receive_is_cheaper(self):
        config = GammaConfig(n_disk_sites=2, n_diskless=0)
        costs = config.costs
        assert costs.packet_short_circuit < costs.packet_receive

        def measure(src_name):
            ctx = ExecutionContext(config)
            node = ctx.disk_nodes[0]
            port = InputPort(ctx, "in", node)
            port.add_producer(1)

            def consumer():
                yield from port.drain()

            def producer():
                yield Put(port.store, DataPacket([(1,)], 208, "x", src_name))
                yield Put(port.store, EndOfStream("x"))

            run_procs(ctx, consumer(), producer())
            return node.instructions_retired

        local = measure("disk0")
        remote = measure("disk1")
        assert local < remote

    def test_consumer_blocks_until_producers_registered(self):
        # The port must not finish before registration even with 0
        # producers known at start.
        ctx = make_ctx()
        node = ctx.disk_nodes[0]
        port = InputPort(ctx, "in", node)
        got = []

        def consumer():
            records = yield from port.drain()
            got.append(len(records))

        def late_registrar():
            port.add_producer()
            yield Put(port.store, DataPacket([(1,)], 208, "x", node.name))
            yield Put(port.store, EndOfStream("x"))

        run_procs(ctx, consumer(), late_registrar())
        assert got == [1]


class TestOutputPort:
    def _make_port(self, ctx, node, dests, schema):
        split = SplitTable.round_robin(dests)
        for d in dests:
            d.port.add_producer()
        return OutputPort(ctx, node, split, schema.tuple_bytes, "out")

    def test_packets_respect_packet_size(self):
        ctx = make_ctx()
        schema = Schema([int_attr("a")] * 1)
        node = ctx.disk_nodes[0]
        dest_node = ctx.disk_nodes[1]
        port_in = InputPort(ctx, "in", dest_node)
        dests = [Destination(dest_node.name, port_in)]
        out = self._make_port(ctx, node, dests, schema)
        records = [(i,) for i in range(1000)]

        def producer():
            yield from out.emit_many(records)
            yield from out.close()

        def consumer():
            while True:
                pkt = yield from port_in.next_packet()
                if pkt is None:
                    return
                assert pkt.nbytes <= ctx.config.packet_size

        run_procs(ctx, producer(), consumer())
        # per-tuple bytes 4 -> 512 tuples/packet -> 2 packets minimum
        assert ctx.stats["packets_sent"] >= 2

    def test_emit_after_close_raises(self):
        ctx = make_ctx()
        schema = Schema([int_attr("a")])
        node = ctx.disk_nodes[0]
        port_in = InputPort(ctx, "in", node)
        out = self._make_port(
            ctx, node, [Destination(node.name, port_in)], schema
        )

        def producer():
            yield from out.close()
            with pytest.raises(ExecutionError):
                yield from out.emit_many([(1,)])

        def consumer():
            yield from port_in.drain()

        run_procs(ctx, producer(), consumer())

    def test_bit_filter_drops_counted(self):
        from repro.engine import BitVectorFilter
        from repro.hardware import GammaCosts

        ctx = make_ctx()
        schema = Schema([int_attr("a")])
        node = ctx.disk_nodes[0]
        port_in = InputPort(ctx, "in", ctx.disk_nodes[1])
        bf = BitVectorFilter()
        bf.add(1)
        split = SplitTable.by_hash(
            [Destination(ctx.disk_nodes[1].name, port_in)],
            schema, "a", GammaCosts(), bit_filter=bf,
        )
        port_in.add_producer()
        out = OutputPort(ctx, node, split, schema.tuple_bytes, "out")

        def producer():
            yield from out.emit_many([(1,), (99_999,), (88_888,)])
            yield from out.close()

        def consumer():
            return (yield from port_in.drain())

        _prod, cons = run_procs(ctx, producer(), consumer())
        assert out.tuples_filtered >= 1
        assert (1,) in cons.value


class TestSpoolFile:
    def test_page_accounting(self):
        ctx = make_ctx()
        node = ctx.disk_nodes[0]
        spool = SpoolFile(ctx, node, "t", record_bytes=208)

        def proc():
            yield from spool.add_batch([(i,) for i in range(100)])
            yield from spool.flush()

        run_procs(ctx, proc())
        assert len(spool) == 100
        # 17 records per 4KB page -> 6 pages
        assert spool.num_pages == 6
        pages = list(spool.read_pages())
        assert sum(len(records) for _no, records in pages) == 100

    def test_diskless_owner_spools_to_disk_site_over_network(self):
        ctx = make_ctx()
        diskless = ctx.diskless_nodes[0]
        spool = SpoolFile(ctx, diskless, "t", record_bytes=208)
        assert spool.target.has_disk

        def proc():
            yield from spool.add_batch([(i,) for i in range(40)])
            yield from spool.flush()
            yield from spool.read_page_io(0)

        before = ctx.net.messages_sent
        run_procs(ctx, proc())
        assert ctx.net.messages_sent > before  # pages crossed the network

    def test_disk_owner_spools_locally(self):
        ctx = make_ctx()
        node = ctx.disk_nodes[0]
        spool = SpoolFile(ctx, node, "t", record_bytes=208)
        assert spool.target is node

    def test_page_io_attributed_to_owner_node_metrics(self):
        ctx = make_ctx()
        node = ctx.disk_nodes[0]
        spool = SpoolFile(ctx, node, "t", record_bytes=208)

        def proc():
            yield from spool.add_batch([(i,) for i in range(100)])
            yield from spool.flush()
            for page_no in range(spool.num_pages):
                yield from spool.read_page_io(page_no)

        run_procs(ctx, proc())
        nm = ctx.metrics.node(node.name)
        assert nm.spool_pages_written == spool.num_pages == 6
        assert nm.spool_pages_read == 6
        assert ctx.stats["spool_pages_written"] == 6
        assert ctx.stats["spool_pages_read"] == 6


class TestNodeIO:
    def test_buffer_hit_skips_disk(self):
        ctx = make_ctx()
        node = ctx.disk_nodes[0]
        times = []

        def proc():
            yield node.read_page("f", 0)
            times.append(ctx.sim.now)
            yield node.read_page("f", 0)
            times.append(ctx.sim.now)

        run_procs(ctx, proc())
        assert node.drive.pages_read == 1
        # The miss took disk time; the hit took none.
        assert times[0] > 0.0 and times[1] == times[0] == ctx.sim.now

    def test_uncached_read_always_hits_disk(self):
        ctx = make_ctx()
        node = ctx.disk_nodes[0]
        times = []

        def proc():
            yield node.read_page_uncached("f", 0)
            times.append(ctx.sim.now)
            yield node.read_page_uncached("f", 0)
            times.append(ctx.sim.now)

        run_procs(ctx, proc())
        assert node.drive.pages_read == 2
        assert 0.0 < times[0] < times[1]
        assert len(node.buffer) == 0

    def test_write_page_populates_buffer(self):
        ctx = make_ctx()
        node = ctx.disk_nodes[0]
        times = []

        def proc():
            yield from node.write_page("f", 3)
            times.append(ctx.sim.now)
            yield node.read_page("f", 3)

        run_procs(ctx, proc())
        assert node.drive.pages_written == 1
        assert node.drive.pages_read == 0
        assert ctx.sim.now == times[0] > 0.0

    @pytest.mark.parametrize("method", ["read_page", "read_page_uncached"])
    def test_page_read_on_diskless_node_names_the_node(self, method):
        ctx = make_ctx()
        node = ctx.nodes["proc0"]
        assert not node.has_disk
        with pytest.raises(ExecutionError, match="proc0.*no disk"):
            getattr(node, method)("f", 0)
        assert len(node.buffer) == 0

    def test_page_write_on_diskless_node_names_the_node(self):
        # A named error, not an assert that ``python -O`` strips.
        ctx = make_ctx()
        node = ctx.nodes["proc0"]
        with pytest.raises(ExecutionError, match="proc0.*no disk"):
            next(node.write_page("f", 0))
        assert len(node.buffer) == 0


class TestExecutionContext:
    def test_join_nodes_by_mode(self):
        from repro.engine import JoinMode

        ctx = make_ctx()

        def join_nodes(mode):
            return ctx.placement_nodes(Placement("join-sites", mode=mode))

        assert all(n.has_disk for n in join_nodes(JoinMode.LOCAL))
        assert not any(n.has_disk for n in join_nodes(JoinMode.REMOTE))
        assert len(join_nodes(JoinMode.ALLNODES)) == 4

    def test_remote_falls_back_without_diskless(self):
        from repro.engine import JoinMode

        ctx = make_ctx(n_diskless=0)
        remote = Placement("join-sites", mode=JoinMode.REMOTE)
        assert all(n.has_disk for n in ctx.placement_nodes(remote))

    def test_spool_targets_cycle_over_disk_sites(self):
        ctx = make_ctx()
        diskless = ctx.diskless_nodes[0]
        targets = {ctx.spool_target(diskless).name for _ in range(4)}
        assert targets == {"disk0", "disk1"}

    def test_temp_file_ids_unique(self):
        ctx = make_ctx()
        ids = {ctx.temp_file_id("x") for _ in range(100)}
        assert len(ids) == 100
