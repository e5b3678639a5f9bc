"""Heap files: unordered sequences of slotted pages.

A heap file is WiSS's "structured sequential file".  Records are addressed
by :class:`RID` (page number, slot).  The file also serves as the storage
for a *clustered* organisation — then records are loaded in key order and a
sparse B+-tree (see :mod:`repro.storage.btree`) sits on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..errors import RecordNotFoundError, StorageError
from .page import Page, RECORD_OVERHEAD_BYTES
from .schema import Schema


@dataclass(frozen=True, order=True, slots=True)
class RID:
    """Record identifier: page number and slot within the page."""

    page_no: int
    slot: int

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"RID({self.page_no},{self.slot})"


#: Bits of a packed RID that hold the slot; the page number sits above.
SLOT_BITS = 16
_SLOT_MASK = (1 << SLOT_BITS) - 1


def pack_rid(page_no: int, slot: int) -> int:
    """``RID(page_no, slot)`` as one plain int, ``page_no << SLOT_BITS |
    slot``: packed RIDs order as the RIDs do, and the collector tracks
    none of them (what a dense index holds per tuple).

    Raises:
        StorageError: if ``slot`` does not fit ``SLOT_BITS`` bits.
    """
    if slot >> SLOT_BITS:
        raise StorageError(
            f"slot {slot} does not fit a packed RID ({SLOT_BITS} bits)"
        )
    return page_no << SLOT_BITS | slot


def unpack_rid(packed: int) -> RID:
    """The RID :func:`pack_rid` packed."""
    return RID(packed >> SLOT_BITS, packed & _SLOT_MASK)


class HeapFile:
    """An append-oriented file of slotted pages holding one schema.

    The file id (its ``name``) plus a page number is what the timing plane
    hands to :class:`~repro.hardware.disk.DiskDrive` to decide sequential
    vs random access.
    """

    def __init__(self, name: str, schema: Schema, page_size: int) -> None:
        self.name = name
        self.schema = schema
        self.page_size = page_size
        self.record_bytes = schema.tuple_bytes
        self.pages: list[Page] = []
        self._record_count = 0

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"<HeapFile {self.name} {self._record_count} recs,"
            f" {len(self.pages)} pages>"
        )

    def __len__(self) -> int:
        return self._record_count

    @property
    def num_pages(self) -> int:
        return len(self.pages)

    @property
    def num_records(self) -> int:
        return self._record_count

    @property
    def records_per_full_page(self) -> int:
        from .page import records_per_page

        return records_per_page(self.page_size, self.record_bytes)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def append(self, record: tuple) -> RID:
        """Append ``record``, extending the file if the tail page is full."""
        if not self.pages or not self.pages[-1].fits(self.record_bytes):
            self.pages.append(Page(self.page_size))
        page_no = len(self.pages) - 1
        slot = self.pages[page_no].insert(record, self.record_bytes)
        self._record_count += 1
        return RID(page_no, slot)

    def bulk_append(self, records: Iterable[tuple]) -> None:
        """Append many records (used by loads and store operators).

        Bulk loads pack full pages directly instead of running the
        per-record ``fits``/``insert`` machinery; the resulting page layout
        is identical to repeated :meth:`append` calls.
        """
        records = list(records)
        if not records:
            return
        record_bytes = self.record_bytes
        # Top up the current tail page exactly as append() would.
        i = 0
        if self.pages:
            tail = self.pages[-1]
            while i < len(records) and tail.fits(record_bytes):
                tail.insert(records[i], record_bytes)
                self._record_count += 1
                i += 1
        per_page = self.records_per_full_page
        while i < len(records):
            chunk = records[i:i + per_page]
            self.pages.append(Page.packed(self.page_size, chunk, record_bytes))
            self._record_count += len(chunk)
            i += per_page

    def delete(self, rid: RID) -> tuple:
        """Delete the record at ``rid``; returns it."""
        page = self._page(rid.page_no)
        record = page.delete(rid.slot, self.record_bytes)
        self._record_count -= 1
        return record

    def replace(self, rid: RID, record: tuple) -> tuple:
        """Overwrite the record at ``rid`` in place; returns the old one."""
        return self._page(rid.page_no).replace(rid.slot, record)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def fetch(self, rid: RID) -> tuple:
        """The record stored at ``rid``."""
        return self._page(rid.page_no).get(rid.slot)

    def scan_pages(
        self, start_page: int = 0, end_page: Optional[int] = None
    ) -> Iterator[tuple[int, Page]]:
        """Iterate ``(page_no, page)`` over a contiguous page range."""
        end = len(self.pages) if end_page is None else min(end_page, len(self.pages))
        for page_no in range(start_page, end):
            yield page_no, self.pages[page_no]

    def records(self) -> Iterator[tuple]:
        """Iterate every live record (no timing; functional plane only)."""
        for _page_no, page in self.scan_pages():
            yield from page.records()

    def rids(self) -> Iterator[tuple[RID, tuple]]:
        """Iterate ``(rid, record)`` for every live record."""
        for page_no, page in self.scan_pages():
            for slot, record in page.slotted_records():
                yield RID(page_no, slot), record

    def _page(self, page_no: int) -> Page:
        if not 0 <= page_no < len(self.pages):
            raise RecordNotFoundError(
                f"page {page_no} out of range in {self.name}"
            )
        return self.pages[page_no]


def build_heap_file(
    name: str,
    schema: Schema,
    page_size: int,
    records: Iterable[tuple],
) -> HeapFile:
    """Create and bulk-load a heap file."""
    hf = HeapFile(name, schema, page_size)
    hf.bulk_append(records)
    return hf


def expected_pages(n_records: int, schema: Schema, page_size: int) -> int:
    """Pages a fully-packed file of ``n_records`` will occupy."""
    from .page import records_per_page

    per_page = records_per_page(page_size, schema.tuple_bytes)
    return (n_records + per_page - 1) // per_page if n_records else 0
