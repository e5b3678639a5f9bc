"""Slotted pages.

A :class:`Page` stores whole records (Python tuples) plus the byte
accounting a real slotted page would do: a fixed header, a slot-table entry
and record header per record.  With the Wisconsin 208-byte tuple this yields
17 records on a 4 KB page — the paper's own number ("with 17 tuples per data
page, all 589 pages of data would be read").
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from ..errors import PageFullError, RecordNotFoundError, StorageError

#: Fixed page header (LSN, slot count, free-space pointer, ...).
PAGE_HEADER_BYTES = 32

#: Per-record overhead: slot-table entry + record header + alignment.
RECORD_OVERHEAD_BYTES = 30


def records_per_page(page_size: int, record_bytes: int) -> int:
    """How many records of ``record_bytes`` fit on one ``page_size`` page."""
    usable = page_size - PAGE_HEADER_BYTES
    per_record = record_bytes + RECORD_OVERHEAD_BYTES
    count = usable // per_record
    if count < 1:
        raise StorageError(
            f"record of {record_bytes}B does not fit a {page_size}B page"
        )
    return count


class Page:
    """One slotted page of records.

    Records are never moved between slots (RID stability); deletion leaves a
    hole that a later insert may reuse.
    """

    __slots__ = ("page_size", "_slots", "_free_slots", "used_bytes", "_live")

    def __init__(self, page_size: int) -> None:
        if page_size <= PAGE_HEADER_BYTES:
            raise StorageError(f"page_size {page_size} too small")
        self.page_size = page_size
        self._slots: list[Optional[tuple]] = []
        #: Slots a delete emptied; allocated by the first one, so a page
        #: nobody deletes from is two GC-tracked objects, not three.
        self._free_slots: Optional[list[int]] = None
        self.used_bytes = PAGE_HEADER_BYTES
        self._live = 0

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<Page {self._live} recs, {self.free_bytes}B free>"

    @classmethod
    def packed(
        cls, page_size: int, records: list[tuple], record_bytes: int
    ) -> "Page":
        """A page bulk-filled with ``records`` in slot order.

        Produces exactly the layout ``len(records)`` successive
        :meth:`insert` calls on a fresh page would, without the per-record
        ``fits`` checks — the bulk-load fast path.  The caller guarantees
        the records fit (at most :func:`records_per_page`).
        """
        page = cls(page_size)
        page._slots = list(records)
        page._live = len(page._slots)
        page.used_bytes = PAGE_HEADER_BYTES + page._live * (
            record_bytes + RECORD_OVERHEAD_BYTES
        )
        if page.used_bytes > page_size:
            raise PageFullError(
                f"{page._live} records of {record_bytes}B overflow a"
                f" {page_size}B page"
            )
        return page

    @property
    def free_bytes(self) -> int:
        return self.page_size - self.used_bytes

    @property
    def num_records(self) -> int:
        """Live (non-deleted) records on this page."""
        return self._live

    @property
    def num_slots(self) -> int:
        return len(self._slots)

    def fits(self, record_bytes: int) -> bool:
        return self.free_bytes >= record_bytes + RECORD_OVERHEAD_BYTES

    def insert(self, record: tuple, record_bytes: int) -> int:
        """Insert ``record``; returns its slot number.

        Raises:
            PageFullError: if the record does not fit.
        """
        if not self.fits(record_bytes):
            raise PageFullError(
                f"{record_bytes}B record does not fit ({self.free_bytes}B free)"
            )
        self.used_bytes += record_bytes + RECORD_OVERHEAD_BYTES
        self._live += 1
        if self._free_slots:
            slot = self._free_slots.pop()
            self._slots[slot] = record
            return slot
        self._slots.append(record)
        return len(self._slots) - 1

    def get(self, slot: int) -> tuple:
        """The record in ``slot``.

        Raises:
            RecordNotFoundError: for invalid or deleted slots.
        """
        record = self._slots[slot] if 0 <= slot < len(self._slots) else None
        if record is None:
            raise RecordNotFoundError(f"no record in slot {slot}")
        return record

    def delete(self, slot: int, record_bytes: int) -> tuple:
        """Remove and return the record in ``slot``."""
        record = self.get(slot)
        self._slots[slot] = None
        if self._free_slots is None:
            self._free_slots = [slot]
        else:
            self._free_slots.append(slot)
        self.used_bytes -= record_bytes + RECORD_OVERHEAD_BYTES
        self._live -= 1
        return record

    def replace(self, slot: int, record: tuple) -> tuple:
        """Overwrite ``slot`` in place (same byte width); returns the old
        record."""
        old = self.get(slot)
        self._slots[slot] = record
        return old

    def records(self) -> Iterator[tuple]:
        """Iterate live records in slot order."""
        for record in self._slots:
            if record is not None:
                yield record

    def live_records(self) -> list[tuple]:
        """The live records in slot order, as a list the caller owns: one
        C-speed copy of the slot table while the page has no hole."""
        if self._live == len(self._slots):
            return self._slots[:]  # type: ignore[return-value]
        return [record for record in self._slots if record is not None]

    def slotted_records(self) -> Iterator[tuple[int, tuple]]:
        """Iterate ``(slot, record)`` pairs for live records."""
        for slot, record in enumerate(self._slots):
            if record is not None:
                yield slot, record
