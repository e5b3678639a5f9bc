"""The recovery server (the Conclusions' second announced fix).

Gamma as measured in the paper "does not provide logging"; the authors
"intend on implementing a recovery server that will collect log records
from each processor".  When :attr:`GammaConfig.use_recovery_server` is on,
a dedicated logging node joins the configuration: every operator that
mutates permanent data ships its log records there *before* its page
writes commit (write-ahead discipline).  Records are batched into log
pages, cross the network like any other traffic, and are forced to the
recovery node's disk sequentially — so bulk loads see group-commit
amortisation while single-tuple updates pay a full round trip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator


if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import ExecutionContext, Node

#: CPU cost (instructions) to format one log record at the mutating node.
LOG_RECORD_CPU = 300.0

#: CPU cost (instructions) to apply one record at the recovery server.
LOG_APPLY_CPU = 200.0


class RecoveryLog:
    """Per-query handle on the recovery server's log stream."""

    def __init__(self, ctx: "ExecutionContext", node: "Node") -> None:
        self.ctx = ctx
        self.node = node
        self.records_logged = 0
        self.pages_forced = 0
        self._buffered_bytes = 0
        self._next_page = 0

    def ship(
        self,
        src: "Node",
        n_records: int,
        payload_bytes: int,
        force: bool = False,
    ) -> Generator[Any, Any, None]:
        """Write-ahead ship ``n_records`` of log from ``src``.

        Completed log pages are written as they fill (group commit for
        bulk mutations); ``force=True`` additionally forces the partial
        tail page — the single-tuple-update commit path.
        """
        if n_records <= 0:
            return
        config = self.ctx.config
        total_bytes = payload_bytes + n_records * config.log_record_bytes
        self.records_logged += n_records
        self.ctx.metrics.add("log_records", n_records)
        yield src.work(LOG_RECORD_CPU * n_records)
        # Ship in packet-sized chunks.
        remaining = total_bytes
        while remaining > 0:
            chunk = min(remaining, config.packet_size)
            yield from self.ctx.net.transfer(src.name, self.node.name, chunk)
            remaining -= chunk
        yield self.node.work(LOG_APPLY_CPU * n_records)
        self._buffered_bytes += total_bytes
        while self._buffered_bytes >= config.page_size:
            yield from self._force_page()
            self._buffered_bytes -= config.page_size
        if force:
            yield from self.commit()

    def commit(self) -> Generator[Any, Any, None]:
        """Force the partial tail page (end-of-transaction durability)."""
        if self._buffered_bytes > 0:
            yield from self._force_page()
            self._buffered_bytes = 0

    def _force_page(self) -> Generator[Any, Any, None]:
        assert self.node.drive is not None
        self.pages_forced += 1
        self.ctx.metrics.add("log_pages_forced")
        yield self.node.drive.write_effect(
            "recovery.log", self._next_page, self.ctx.config.page_size,
            sequential=True,
        )
        self._next_page += 1
