"""Unit tests for CPU, disk and network models and configurations."""

import pytest

from repro.errors import ConfigError
from repro.hardware import (
    FUJITSU_M2333,
    GammaConfig,
    CpuModel,
    DiskDrive,
    DiskModel,
    GammaCosts,
    Interconnect,
    NetworkModel,
    TeradataConfig,
    VAX_11_750,
    KB,
    MB,
)
from repro.sim import Simulation


class TestCpuModel:
    def test_time_for_instructions(self):
        cpu = CpuModel(mips=1.0)
        assert cpu.time_for(1_000_000) == pytest.approx(1.0)

    def test_vax_is_0_6_mips(self):
        assert VAX_11_750.time_for(600_000) == pytest.approx(1.0)

    def test_zero_mips_rejected(self):
        with pytest.raises(ConfigError):
            CpuModel(mips=0.0)

    def test_negative_instructions_rejected(self):
        with pytest.raises(ConfigError):
            VAX_11_750.time_for(-1)


class TestDiskModel:
    def test_paper_anchor_32kb_transfer_is_about_13ms(self):
        # "For a 32 Kbyte disk page, the transfer time is 13 milliseconds"
        t = FUJITSU_M2333.transfer_time(32 * KB)
        assert 0.012 < t < 0.014

    def test_random_access_costs_seek_plus_latency(self):
        model = DiskModel()
        rand = model.random_access_time(4 * KB)
        seq = model.sequential_access_time(4 * KB)
        assert rand > seq
        assert rand == pytest.approx(
            model.avg_seek_s + model.rotational_latency_s
            + model.transfer_time(4 * KB)
        )

    def test_sequential_includes_rotational_overhead(self):
        model = DiskModel()
        assert model.sequential_access_time(4 * KB) == pytest.approx(
            model.transfer_time(4 * KB) + model.sequential_overhead_s
        )

    def test_bigger_pages_amortise_overhead(self):
        model = DiskModel()
        per_byte_small = model.sequential_access_time(2 * KB) / (2 * KB)
        per_byte_big = model.sequential_access_time(32 * KB) / (32 * KB)
        assert per_byte_big < per_byte_small

    def test_invalid_transfer_rate_rejected(self):
        with pytest.raises(ConfigError):
            DiskModel(transfer_rate=0)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            DiskModel().transfer_time(-1)


class TestDiskDrive:
    def _run(self, gen_factory):
        sim = Simulation()
        sim.spawn(gen_factory())
        return sim.run()

    def test_sequential_stream_detected_automatically(self):
        drive = DiskDrive("d0", DiskModel())

        def proc():
            yield from drive.read("f", 0, 4 * KB)  # first access: random
            yield from drive.read("f", 1, 4 * KB)  # continues: sequential

        elapsed = self._run(lambda: proc())
        expected = (
            DiskModel().random_access_time(4 * KB)
            + DiskModel().sequential_access_time(4 * KB)
        )
        assert elapsed == pytest.approx(expected)

    @pytest.mark.parametrize("nbytes", [4 * KB, 32 * KB])
    def test_auto_timing_is_the_models_floats(self, nbytes):
        """``sequential=None`` continues a stream on the next page or a
        re-read of the last one, anything else is random; either way the
        time is the model's own float, also when it comes from the memo."""
        drive, model = DiskDrive("d0", DiskModel()), DiskModel()
        seq, rnd = (
            model.sequential_access_time(nbytes),
            model.random_access_time(nbytes),
        )
        visits = [("f", 0, rnd), ("f", 1, seq), ("f", 1, seq), ("f", 3, rnd),
                  ("g", 4, rnd), ("f", 5, rnd), ("f", 4, rnd), ("f", 5, seq)]
        for file_id, page_no, expected in visits:
            assert drive.read_time(file_id, page_no, nbytes) == expected

    def test_jump_costs_random_access(self):
        drive = DiskDrive("d0", DiskModel())

        def proc():
            yield from drive.read("f", 0, 4 * KB)
            yield from drive.read("f", 50, 4 * KB)

        elapsed = self._run(lambda: proc())
        assert elapsed == pytest.approx(
            2 * DiskModel().random_access_time(4 * KB)
        )

    def test_different_files_not_sequential(self):
        drive = DiskDrive("d0", DiskModel())

        def proc():
            yield from drive.read("f", 0, 4 * KB)
            yield from drive.read("g", 1, 4 * KB)

        elapsed = self._run(lambda: proc())
        assert elapsed == pytest.approx(
            2 * DiskModel().random_access_time(4 * KB)
        )

    def test_requests_serialise_on_one_drive(self):
        drive = DiskDrive("d0", DiskModel())
        sim = Simulation()

        def reader(page):
            yield from drive.read("f", page, 4 * KB, sequential=False)

        sim.spawn(reader(0))
        sim.spawn(reader(100))
        elapsed = sim.run()
        assert elapsed == pytest.approx(
            2 * DiskModel().random_access_time(4 * KB)
        )

    def test_statistics_counted(self):
        drive = DiskDrive("d0", DiskModel())
        sim = Simulation()

        def proc():
            yield from drive.read("f", 0, 4 * KB)
            yield drive.write_effect("f", 1, 4 * KB)

        sim.spawn(proc())
        sim.run()
        assert drive.pages_read == 1
        assert drive.pages_written == 1
        assert drive.bytes_moved == 8 * KB


class TestInterconnect:
    def test_short_circuit_same_node(self):
        net = Interconnect(NetworkModel(), ["n0", "n1"])
        sim = Simulation()

        def proc():
            yield from net.transfer("n0", "n0", 2 * KB)

        sim.spawn(proc())
        elapsed = sim.run()
        assert elapsed == pytest.approx(NetworkModel().short_circuit_s)
        assert net.messages_short_circuited == 1
        assert net.messages_sent == 0

    def test_internode_charges_interfaces_and_ring(self):
        model = NetworkModel()
        net = Interconnect(model, ["n0", "n1"])
        sim = Simulation()

        def proc():
            yield from net.transfer("n0", "n1", 2 * KB)

        sim.spawn(proc())
        elapsed = sim.run()
        expected = (
            model.message_overhead_s
            + 2 * model.interface_time(2 * KB)
            + model.ring_time(2 * KB)
        )
        assert elapsed == pytest.approx(expected)
        assert net.messages_sent == 1

    def test_interface_is_the_bottleneck_not_the_ring(self):
        # Two senders to distinct receivers: the shared ring is ~20x faster
        # than one interface, so total time is dominated by interfaces and
        # both transfers overlap almost entirely.
        model = NetworkModel()
        net = Interconnect(model, ["a", "b", "c", "d"])
        sim = Simulation()

        def send(src, dst):
            yield from net.transfer(src, dst, 2 * KB)

        sim.spawn(send("a", "b"))
        sim.spawn(send("c", "d"))
        elapsed = sim.run()
        serial = 2 * (
            model.message_overhead_s
            + 2 * model.interface_time(2 * KB)
            + model.ring_time(2 * KB)
        )
        assert elapsed < 0.75 * serial

    def test_same_interface_serialises(self):
        model = NetworkModel()
        net = Interconnect(model, ["a", "b", "c"])
        sim = Simulation()

        def send(dst):
            yield from net.transfer("a", dst, 2 * KB)

        sim.spawn(send("b"))
        sim.spawn(send("c"))
        elapsed = sim.run()
        one = model.message_overhead_s + model.interface_time(2 * KB)
        # Sender interface serialises the two messages.
        assert elapsed >= 2 * one

    def test_duplicate_node_rejected(self):
        with pytest.raises(ConfigError, match="duplicate node name 'a'"):
            Interconnect(NetworkModel(), ["a", "b", "a"])


class TestGammaConfig:
    def test_paper_default_topology(self):
        cfg = GammaConfig.paper_default()
        assert cfg.n_disk_sites == 8
        assert cfg.n_diskless == 8
        assert cfg.page_size == 4 * KB
        assert cfg.packet_size == 2 * KB
        assert cfg.join_memory_total == int(4.8 * MB)

    def test_with_sites_keeps_join_memory_constant(self):
        cfg = GammaConfig.paper_default()
        small = cfg.with_sites(2)
        assert small.n_disk_sites == 2
        assert small.n_diskless == 2
        assert small.join_memory_total == cfg.join_memory_total
        assert small.join_memory_per_node == cfg.join_memory_total // 2

    def test_with_page_size(self):
        cfg = GammaConfig.paper_default().with_page_size(16 * KB)
        assert cfg.page_size == 16 * KB

    def test_page_bigger_than_track_rejected(self):
        with pytest.raises(ConfigError):
            GammaConfig(page_size=64 * KB)

    def test_zero_disk_sites_rejected(self):
        with pytest.raises(ConfigError):
            GammaConfig(n_disk_sites=0)

    def test_costs_reject_negative(self):
        with pytest.raises(ConfigError):
            GammaCosts(read_tuple=-1.0)


class TestTeradataConfig:
    def test_paper_default_topology(self):
        cfg = TeradataConfig.paper_default()
        assert cfg.n_amps == 20
        assert cfg.n_ifps == 4
        assert cfg.disks_per_amp == 2
        assert cfg.insert_ios_per_tuple == 3.0

    def test_invalid_amps_rejected(self):
        with pytest.raises(ConfigError):
            TeradataConfig(n_amps=0)
