"""Machine configurations for the two database machines under test.

``GammaConfig.paper_default()`` reproduces the Section 2 hardware: 17 VAX
11/750s (8 with Fujitsu disks, 8 diskless query processors, 1 scheduler) on
an 80 Mbit/s token ring; ``TeradataConfig.paper_default()`` reproduces the
Section 3 DBC/1012: 4 IFPs, 20 AMPs with two Hitachi drives each, a 12 MB/s
Y-net.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import ConfigError
from .costs import GammaCosts
from .cpu import INTEL_80286, VAX_11_750, CpuModel
from .disk import FUJITSU_M2333, HITACHI_DK815, DiskModel
from .network import GAMMA_NETWORK, YNET_NETWORK, NetworkModel

KB = 1024
MB = 1024 * 1024

#: ``GammaConfig.join_overflow`` values: the paper's Simple hash join and
#: the three spill policies of its announced Hybrid replacement.
JOIN_OVERFLOW_POLICIES = ("simple", "static", "demote", "dynamic")


@dataclass(frozen=True)
class GammaConfig:
    """Tunable description of a Gamma machine instance.

    Attributes:
        n_disk_sites: Processors with a disk attached (selection/update/
            store run here).
        n_diskless: Diskless query processors (Remote/Allnodes joins).
        page_size: Disk page size in bytes (the paper sweeps 2-32 KB).
        packet_size: Network packet payload in bytes.
        memory_per_node: RAM per processor (2 MB on the real machine).
        join_memory_total: Aggregate bytes available for join hash tables,
            held constant when varying the number of processors — exactly
            the experimental control described in the paper's introduction.
        hash_table_overhead: Space expansion factor of a tuple stored in a
            hash table (buckets, pointers).
        host_startup_s: Host-side parse/optimize/compile latency per query.
        sched_messages_per_operator: Control messages exchanged between the
            scheduler and each node per operator (the paper counts 4).
        use_bit_filters: Whether the optimizer inserts bit-vector filters
            into split tables for joins.
        prefetch_depth: Pages of read-ahead between the disk process and a
            consuming operator (double buffering = 2).
    """

    n_disk_sites: int = 8
    n_diskless: int = 8
    page_size: int = 4 * KB
    packet_size: int = 2 * KB
    memory_per_node: int = 2 * MB
    join_memory_total: int = int(4.8 * MB)
    hash_table_overhead: float = 1.2
    host_startup_s: float = 0.12
    sched_messages_per_operator: int = 4
    use_bit_filters: bool = False
    prefetch_depth: int = 2
    join_overflow: str = "simple"
    """What the hash join does when a node's table outgrows its memory:
    ``simple`` (the paper's measured algorithm: evict a key-space slice,
    switch hash functions, resolve in overflow rounds), or one of the
    parallel Hybrid hash join's policies the Conclusions announce as its
    replacement ("The solution we are in the process of adopting is to
    replace the current algorithm with a parallel version of the Hybrid
    hash-join algorithm"), which plan spooled partitions from the
    optimizer's estimate and differ when the estimate is wrong:
    ``static`` (excess build tuples overflow to a spool and partition-0
    probes are routed both to memory and to disk), ``demote`` (halve the
    resident key region and evict its buckets to a new spooled partition
    until the table fits), or ``dynamic`` (start all-in-memory, demote on
    demand, and recursively re-partition spooled partitions that still
    exceed memory during the resolve sweep)."""
    join_estimate_factor: float = 1.0
    """Multiplier applied to the optimizer's build-side cardinality
    estimate as seen by the hash join — the estimate-error knob the A4
    ablation sweeps (0.25 = the optimizer underestimates 4x)."""
    use_recovery_server: bool = False
    """Enable the recovery server of the Conclusions ("We also intend on
    implementing a recovery server that will collect log records from each
    processor"): operators that mutate permanent data ship log records to
    a dedicated logging node before their writes commit."""
    log_record_bytes: int = 48
    """Log-record header size; the body adds the tuple's bytes."""
    deferred_update_ios: int = 4
    """Page I/Os to create/write/force a deferred-update file when an
    update goes through an index structure (the Halloween-avoidance
    mechanism whose cost separates rows 1 and 2 of Table 3)."""
    cpu: CpuModel = VAX_11_750
    disk: DiskModel = FUJITSU_M2333
    network: NetworkModel = GAMMA_NETWORK
    costs: GammaCosts = field(default_factory=GammaCosts)

    def __post_init__(self) -> None:
        if self.n_disk_sites < 1:
            raise ConfigError("need at least one disk site")
        if self.n_diskless < 0:
            raise ConfigError("n_diskless must be non-negative")
        if self.page_size < 512:
            raise ConfigError("page_size must be at least 512 bytes")
        if self.page_size > self.disk.track_size:
            raise ConfigError(
                f"page_size {self.page_size} exceeds disk track size "
                f"{self.disk.track_size}"
            )
        if self.packet_size < 128:
            raise ConfigError("packet_size must be at least 128 bytes")
        if self.join_memory_total <= 0:
            raise ConfigError("join_memory_total must be positive")
        if self.hash_table_overhead < 1.0:
            raise ConfigError("hash_table_overhead must be >= 1.0")
        if self.prefetch_depth < 1:
            raise ConfigError("prefetch_depth must be >= 1")
        if self.join_overflow not in JOIN_OVERFLOW_POLICIES:
            raise ConfigError(
                f"join_overflow must be one of {JOIN_OVERFLOW_POLICIES},"
                f" got {self.join_overflow!r}"
            )
        if self.join_estimate_factor <= 0:
            raise ConfigError("join_estimate_factor must be positive")

    @classmethod
    def paper_default(cls) -> "GammaConfig":
        """The configuration used for Tables 1-3: 8+8 nodes, 4 KB pages."""
        return cls()

    def with_sites(self, n_disk_sites: int, n_diskless: int | None = None) -> "GammaConfig":
        """Resize the machine, keeping aggregate join memory constant.

        The paper: "we decided instead to keep the total (summed across all
        processors) amount of buffer space constant when varying the number
        of processors."
        """
        if n_diskless is None:
            n_diskless = n_disk_sites
        return replace(self, n_disk_sites=n_disk_sites, n_diskless=n_diskless)

    def with_page_size(self, page_size: int) -> "GammaConfig":
        return replace(self, page_size=page_size)

    def with_join_memory(self, join_memory_total: int) -> "GammaConfig":
        return replace(self, join_memory_total=join_memory_total)

    def with_hybrid(
        self,
        spill_policy: str = "static",
        estimate_factor: float | None = None,
    ) -> "GammaConfig":
        """The Hybrid hash join under ``spill_policy`` (``static`` |
        ``demote`` | ``dynamic``)."""
        changes: dict = {"join_overflow": spill_policy}
        if estimate_factor is not None:
            changes["join_estimate_factor"] = estimate_factor
        return replace(self, **changes)

    @property
    def join_memory_per_node(self) -> int:
        """Hash-table bytes per joining node (Remote mode: the diskless
        processors; Local mode: the disk sites)."""
        nodes = max(1, self.n_diskless or self.n_disk_sites)
        return self.join_memory_total // nodes


@dataclass(frozen=True)
class TeradataConfig:
    """Tunable description of the Teradata DBC/1012 under test."""

    n_amps: int = 20
    n_ifps: int = 4
    disks_per_amp: int = 2
    page_size: int = 4 * KB
    insert_ios_per_tuple: float = 3.0
    """Single-tuple-optimised INSERT INTO path: ~3 I/Os per stored tuple
    (permanent journal + transient journal + data block), per [DEWI87]."""

    sort_memory_per_amp: int = 1 * MB
    host_startup_s: float = 0.35
    cpu: CpuModel = INTEL_80286
    disk: DiskModel = HITACHI_DK815
    network: NetworkModel = YNET_NETWORK

    def __post_init__(self) -> None:
        if self.n_amps < 1:
            raise ConfigError("need at least one AMP")
        if self.disks_per_amp < 1:
            raise ConfigError("need at least one disk per AMP")
        if self.page_size < 512:
            raise ConfigError("page_size must be at least 512 bytes")
        if self.insert_ios_per_tuple < 0:
            raise ConfigError("insert_ios_per_tuple must be non-negative")

    @classmethod
    def paper_default(cls) -> "TeradataConfig":
        """Section 3: 4 IFPs, 20 AMPs, 40 DSUs, release 2.3."""
        return cls()
