"""Disk drive timing model and the per-drive FIFO service centre.

The model separates *sequential* page transfers (no seek; occasional
track-to-track head movement) from *random* accesses (average seek plus
half-rotation latency plus transfer).  This split is what makes the paper's
index results come out right: a non-clustered index retrieval pays one random
access per tuple, while a file scan streams at media rate.

The default parameters are fitted to the Fujitsu 8" 333 MB drives from the
paper: a 40 KB track and "for a 32 Kbyte disk page, the transfer time is 13
milliseconds — which is very close to the time required to perform a random
disk seek".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..errors import ConfigError
from ..sim import Server, Simulation, Use


@dataclass(frozen=True)
class DiskModel:
    """Timing parameters for one disk drive.

    Attributes:
        avg_seek_s: Average random seek time (seconds).
        rotational_latency_s: Average rotational delay (half a revolution).
        transfer_rate: Media transfer rate in bytes/second.
        track_size: Bytes per track (limits the largest sensible page).
        sequential_overhead_s: Positioning cost charged per page even on a
            sequential stream.  1987 drives had no track buffer: by the time
            WiSS issued the next page request the inter-record gap had
            rotated past, so back-to-back page reads lose a full revolution
            (16.7 ms at 3600 rpm).  This term is why small pages make the
            system disk bound and why growing the page towards the track
            size pays off (Figures 5-6 of the paper).
    """

    avg_seek_s: float = 0.018
    rotational_latency_s: float = 0.00833
    transfer_rate: float = 2.46e6
    track_size: int = 40 * 1024
    sequential_overhead_s: float = 0.0167

    def __post_init__(self) -> None:
        if self.transfer_rate <= 0:
            raise ConfigError("transfer_rate must be positive")
        if self.track_size <= 0:
            raise ConfigError("track_size must be positive")
        if min(self.avg_seek_s, self.rotational_latency_s,
               self.sequential_overhead_s) < 0:
            raise ConfigError("disk timing parameters must be non-negative")

    def transfer_time(self, nbytes: int) -> float:
        """Pure media transfer time for ``nbytes``."""
        if nbytes < 0:
            raise ConfigError(f"negative transfer size {nbytes}")
        return nbytes / self.transfer_rate

    def sequential_access_time(self, nbytes: int) -> float:
        """Time to read/write the *next* page of a sequential stream."""
        return self.transfer_time(nbytes) + self.sequential_overhead_s

    def random_access_time(self, nbytes: int) -> float:
        """Time for an isolated page access: seek + latency + transfer."""
        return (
            self.avg_seek_s + self.rotational_latency_s
            + self.transfer_time(nbytes)
        )


#: Fujitsu 8" 333 MB drives attached to Gamma's disk sites.
FUJITSU_M2333 = DiskModel()

#: Hitachi 8.8" 525 MB drives in the Teradata DSUs (slightly slower media).
HITACHI_DK815 = DiskModel(
    avg_seek_s=0.023,
    rotational_latency_s=0.00833,
    transfer_rate=1.9e6,
    track_size=32 * 1024,
    sequential_overhead_s=0.00833,
)


#: What a drive that has touched no page remembers as its last file.
_NO_FILE = object()


class DiskDrive:
    """A single drive: a FIFO :class:`Server` plus position tracking.

    The drive remembers the last file and page it touched so that callers
    may pass ``sequential=None`` ("auto") and get sequential timing
    exactly when the request continues the previous stream.
    """

    def __init__(
        self, name: str, model: DiskModel, private: bool = False
    ) -> None:
        self.name = name
        self.model = model
        self.server = Server(f"{name}.srv", private=private)
        self._last_file: Any = _NO_FILE
        self._last_page = 0
        #: nbytes → (sequential, random) access time: the model's floats,
        #: worked out once per page size.
        self._times: dict[int, tuple[float, float]] = {}
        self.pages_read = 0
        self.pages_written = 0
        self.bytes_moved = 0

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<DiskDrive {self.name}>"

    def _access_time(
        self,
        file_id: Any,
        page_no: int,
        nbytes: int,
        sequential: Optional[bool],
    ) -> float:
        if sequential is None:
            sequential = self._last_file == file_id and (
                self._last_page == page_no - 1 or self._last_page == page_no
            )
        self._last_file = file_id
        self._last_page = page_no
        times = self._times.get(nbytes)
        if times is None:
            times = self._times[nbytes] = (
                self.model.sequential_access_time(nbytes),
                self.model.random_access_time(nbytes),
            )
        return times[0] if sequential else times[1]

    def read(
        self,
        file_id: Any,
        page_no: int,
        nbytes: int,
        sequential: Optional[bool] = None,
    ) -> Generator[Any, Any, None]:
        """Process-generator form of :meth:`read_effect`, kept for the
        perf ledger's ``disk_read`` layer (``benchmarks/ledger``), its one
        caller outside the tests."""
        yield self.read_effect(file_id, page_no, nbytes, sequential)

    def read_effect(
        self,
        file_id: Any,
        page_no: int,
        nbytes: int,
        sequential: Optional[bool] = None,
    ) -> Use:
        """The drive occupancy of one page read: ``yield`` it."""
        return Use(
            self.server, self.read_time(file_id, page_no, nbytes, sequential)
        )

    def write_effect(
        self,
        file_id: Any,
        page_no: int,
        nbytes: int,
        sequential: Optional[bool] = None,
    ) -> Use:
        """:meth:`read_effect` for a page write."""
        return Use(
            self.server, self.write_time(file_id, page_no, nbytes, sequential)
        )

    def read_time(
        self,
        file_id: Any,
        page_no: int,
        nbytes: int,
        sequential: Optional[bool] = None,
    ) -> float:
        """Account one page read; how long it occupies the drive (one hop
        of a ``UseRun`` on :attr:`server`, or :meth:`read_effect`'s
        ``Use``)."""
        self.pages_read += 1
        self.bytes_moved += nbytes
        return self._access_time(file_id, page_no, nbytes, sequential)

    def write_time(
        self,
        file_id: Any,
        page_no: int,
        nbytes: int,
        sequential: Optional[bool] = None,
    ) -> float:
        """:meth:`read_time` for a page write."""
        self.pages_written += 1
        self.bytes_moved += nbytes
        return self._access_time(file_id, page_no, nbytes, sequential)

    def utilisation(self, sim: Simulation) -> float:
        return self.server.utilisation(sim.now)
