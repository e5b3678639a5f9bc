"""Heap files: unordered sequences of slotted pages.

A heap file is WiSS's "structured sequential file".  Records are addressed
by :class:`RID` (page number, slot).  The file also serves as the storage
for a *clustered* organisation — then records are loaded in key order and a
sparse B+-tree (see :mod:`repro.storage.btree`) sits on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional

from ..errors import RecordNotFoundError, StorageError
from .btree import POINTER_BYTES
from .column import ColumnFilter, PageHits, int_column
from .page import Page, records_per_page
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

#: Bits left for the page number: a packed RID is a non-negative signed
#: word of the payload width a B+-tree declares, which is what lets a
#: dense index keep its leaves' RIDs in an ``array('q')``.
PAGE_BITS = 8 * POINTER_BYTES - 1 - SLOT_BITS


def pack_rid(page_no: int, slot: int) -> int:
    """``RID(page_no, slot)`` as one plain int, ``page_no << SLOT_BITS |
    slot``: packed RIDs order as the RIDs do, and the collector tracks
    none of them (what a dense index holds per tuple).

    Raises:
        StorageError: if ``slot`` does not fit ``SLOT_BITS`` bits or
            ``page_no`` does not fit ``PAGE_BITS``.
    """
    if slot >> SLOT_BITS:
        raise StorageError(
            f"slot {slot} does not fit a packed RID ({SLOT_BITS} bits)"
        )
    if page_no >> PAGE_BITS:
        raise StorageError(
            f"page {page_no} does not fit a packed RID ({PAGE_BITS} bits)"
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

    The methods below are the only writers of the file's pages; each
    bumps :attr:`stamp` and drops every cached :meth:`column`.
    """

    def __init__(self, name: str, schema: Schema, page_size: int) -> None:
        self.name = name
        self.schema = schema
        self.page_size = page_size
        self.record_bytes = schema.tuple_bytes
        self.pages: list[Page] = []
        self._record_count = 0
        #: Write stamp: how many writes the file has seen.  A scan that
        #: filters through the column checks it before every page.
        self.stamp = 0
        #: pos → ``(values, starts)`` or None (not an int column), for
        #: the attributes scanned since the last write; None until then.
        self._columns: Optional[dict[int, Any]] = None

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
        return records_per_page(self.page_size, self.record_bytes)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _wrote(self) -> None:
        self.stamp += 1
        self._columns = None

    def append(self, record: tuple) -> RID:
        """Append ``record``, extending the file if the tail page is full."""
        if not self.pages or not self.pages[-1].fits(self.record_bytes):
            self.pages.append(Page(self.page_size))
        page_no = len(self.pages) - 1
        slot = self.pages[page_no].insert(record, self.record_bytes)
        self._record_count += 1
        self._wrote()
        return RID(page_no, slot)

    def insert_on(self, page_no: int, record: tuple) -> Optional[RID]:
        """Insert ``record`` on page ``page_no`` (a clustered file's place
        for its key); None, and nothing written, when it does not fit."""
        page = self._page(page_no)
        if not page.fits(self.record_bytes):
            return None
        slot = page.insert(record, self.record_bytes)
        self._record_count += 1
        self._wrote()
        return RID(page_no, slot)

    def split(
        self, page_no: int, lower: list[tuple], upper: list[tuple]
    ) -> tuple[int, list[int], list[int]]:
        """Empty page ``page_no``, refill it with ``lower`` and put
        ``upper`` on a new tail page (a clustered file's page split).

        Returns the new page's number and the slots ``lower`` and
        ``upper`` landed in, in their order.
        """
        page = self._page(page_no)
        record_bytes = self.record_bytes
        emptied = [slot for slot, _record in page.slotted_records()]
        for slot in emptied:
            page.delete(slot, record_bytes)
        new_page = Page(self.page_size)
        self.pages.append(new_page)
        lower_slots = [page.insert(record, record_bytes) for record in lower]
        upper_slots = [
            new_page.insert(record, record_bytes) for record in upper
        ]
        self._record_count += len(lower) + len(upper) - len(emptied)
        self._wrote()
        return len(self.pages) - 1, lower_slots, upper_slots

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
        self._wrote()

    def delete(self, rid: RID) -> tuple:
        """Delete the record at ``rid``; returns it."""
        page = self._page(rid.page_no)
        record = page.delete(rid.slot, self.record_bytes)
        self._record_count -= 1
        self._wrote()
        return record

    def replace(self, rid: RID, record: tuple) -> tuple:
        """Overwrite the record at ``rid`` in place; returns the old one."""
        old = self._page(rid.page_no).replace(rid.slot, record)
        self._wrote()
        return old

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

    def column(self, pos: int) -> Optional[tuple[Any, Any]]:
        """Attribute ``pos`` of every live record, in scan order, as an
        int array (:func:`~repro.storage.column.int_column`), with the
        column position of each page's first live record (``num_pages +
        1`` entries, the last one the record count); None when a value is
        not an int.

        Built by the first call after a write, from the page slots, and
        kept, one per attribute, until the next write.
        """
        if self._columns is None:
            self._columns = {}
        elif pos in self._columns:
            return self._columns[pos]
        pages = self.pages
        get = itemgetter(pos)

        def values() -> Iterator[Any]:
            return map(get, chain.from_iterable(
                page.live_records() for page in pages
            ))

        column = int_column(values, self._record_count)
        if column is not None:
            import numpy as np

            starts = np.zeros(len(pages) + 1, dtype=np.int64)
            np.cumsum([page.num_records for page in pages], out=starts[1:])
            column = (column, starts)
        self._columns[pos] = column
        return column

    def page_filter(
        self,
        batch: Callable[[list[tuple]], list[tuple]],
        column: Optional[ColumnFilter],
    ) -> Callable[[int], list[tuple]]:
        """A filter over this file's pages: ``keep(page_no)`` is the
        matching records of that page as it stands, in slot order, as a
        list the caller owns.

        ``column`` (``Predicate.compile_column``) is compared once, now,
        over :meth:`column` and answers every page while the file stays
        unwritten; ``batch`` (``Predicate.compile_batch``), the per-tuple
        loop, answers where the column cannot — a value or bound that is
        not an int, no ``column`` — and every page once a write has
        moved :attr:`stamp`.
        """
        hits: Optional[PageHits] = None
        if column is not None:
            pos, positions = column
            built = self.column(pos)
            found = None if built is None else positions(built[0])
            if found is not None:
                hits = PageHits(found, built[1])
        stamp = self.stamp
        pages = self.pages

        def keep(page_no: int) -> list[tuple]:
            if hits is not None and self.stamp == stamp:
                return hits.on(page_no, pages[page_no])
            return batch(pages[page_no].live_records())

        return keep

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
    per_page = records_per_page(page_size, schema.tuple_bytes)
    return (n_records + per_page - 1) // per_page if n_records else 0
