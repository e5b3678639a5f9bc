"""WiSS facade: stored relation fragments with optional indexes.

A :class:`StoredFile` is what one Gamma disk site keeps for one relation
fragment: a heap file, optionally organised as a *clustered* file (data
sorted on a key with a sparse B+-tree on top), plus any number of dense
*non-clustered* secondary indexes.

Every mutating method returns the list of :class:`PageAccess` records the
operation touched so the engine's timing plane can charge exactly those
I/Os.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from ..errors import RecordNotFoundError, StorageError
from .btree import BPlusTree, build_sparse_index
from .column import ColumnFilter, range_positions
from .heap import RID, HeapFile, pack_rid, unpack_rid
from .schema import Schema


@dataclass(frozen=True)
class PageAccess:
    """One page touch: which file/page, read or write, random or not."""

    file_id: str
    page_no: int
    write: bool = False
    random: bool = True


class StoredFile:
    """A relation fragment with heap/clustered organisation and indexes."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        page_size: int,
        clustered_on: Optional[str] = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self.page_size = page_size
        self.heap = HeapFile(name, schema, page_size)
        self.clustered_on = clustered_on
        self._sparse: Optional[BPlusTree] = None
        #: attr → dense index whose leaf payloads are RIDs packed into
        #: machine words (:func:`~repro.storage.heap.pack_rid`, leaves of
        #: ``array('q')``); the methods below take and return
        #: :class:`RID` objects.
        self.secondary: dict[str, BPlusTree] = {}
        self.deferred_update_entries = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        name: str,
        schema: Schema,
        page_size: int,
        records: Iterable[tuple],
        clustered_on: Optional[str] = None,
    ) -> "StoredFile":
        """Bulk-load a fragment, sorting first if clustered."""
        sf = cls(name, schema, page_size, clustered_on)
        records = list(records)
        if clustered_on is not None:
            get = schema.getter(clustered_on)
            records.sort(key=get)
        sf.heap.bulk_append(records)
        if clustered_on is not None:
            sf._rebuild_sparse_index()
        return sf

    def _rebuild_sparse_index(self) -> None:
        assert self.clustered_on is not None
        get = self.schema.getter(self.clustered_on)
        first_keys = []
        for page_no, page in self.heap.scan_pages():
            first = next(page.records(), None)
            if first is not None:
                first_keys.append((get(first), page_no))
        self._sparse = build_sparse_index(
            f"{self.name}.cidx", self.page_size, first_keys
        )

    def add_secondary_index(self, attr: str) -> None:
        """Build a dense non-clustered B+-tree on ``attr``."""
        if attr in self.secondary:
            raise StorageError(f"index on {attr!r} already exists")
        pos = self.schema.position(attr)
        keys: list[Any] = []
        # Machine words, as the leaves keep them: ``pack_rid`` bounds a
        # packed RID to the payload's signed 8 bytes.
        rids = array("q")
        for page_no, page in self.heap.scan_pages():
            # A page's packed RIDs are consecutive ints from its slot 0;
            # packing the last slot checks that all of them fit.
            first = pack_rid(page_no, 0)
            pack_rid(page_no, max(0, page.num_slots - 1))
            for slot, record in page.slotted_records():
                keys.append(record[pos])
                rids.append(first + slot)
        # Key order, heap order among equal keys (the sort is stable and
        # the entries above are in heap order).
        order = sorted(range(len(keys)), key=keys.__getitem__)
        tree = BPlusTree(f"{self.name}.idx.{attr}", self.page_size)
        tree.bulk_load_columns(
            [keys[i] for i in order], array("q", map(rids.__getitem__, order))
        )
        self.secondary[attr] = tree

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return self.heap.num_records

    @property
    def num_pages(self) -> int:
        return self.heap.num_pages

    @property
    def clustered_index(self) -> BPlusTree:
        if self._sparse is None:
            raise StorageError(f"{self.name} has no clustered index")
        return self._sparse

    def has_index_on(self, attr: str) -> bool:
        return attr == self.clustered_on or attr in self.secondary

    def records(self) -> Iterator[tuple]:
        return self.heap.records()

    # ------------------------------------------------------------------
    # scans (functional plane; callers charge I/O from the yields)
    # ------------------------------------------------------------------
    def filter_pages(
        self,
        batch: Callable[[list[tuple]], list[tuple]],
        column: Optional[ColumnFilter],
    ) -> Iterator[tuple[int, int, list[tuple]]]:
        """Full sequential scan through a filter: yields ``(page_no,
        live records on the page, matching records)``, each page as it
        stands when the iterator reaches it (:meth:`HeapFile.page_filter`
        of ``batch`` and ``column``).
        """
        keep = self.heap.page_filter(batch, column)
        for page_no, page in self.heap.scan_pages():
            yield page_no, page.num_records, keep(page_no)

    def clustered_scan(
        self, low: Any, high: Any
    ) -> tuple[list[int], Iterator[tuple[int, list[tuple]]]]:
        """Range scan through the clustered index.

        Returns the index page ids of the descent and an iterator of
        ``(data_page_no, matching_records)`` that stops at the first page
        past ``high`` (only the relevant portion of the file is read —
        Table 1 rows five and six), each page filtered as
        :meth:`filter_pages` filters it.
        """
        tree = self.clustered_index
        pos = self.schema.position(self.clustered_on)  # type: ignore[arg-type]
        try:
            _leaf, start_key, _page = tree.floor_entry(low)
        except RecordNotFoundError:
            start_key = low
        path = tree.search(low)

        def pages() -> Iterator[tuple[int, list[tuple]]]:
            keep = self.heap.page_filter(
                lambda records: [
                    r for r in records if low <= r[pos] <= high
                ],
                (pos, lambda column: range_positions(column, low, high)),
            )
            # Walk sparse-index entries in key order: after page splits the
            # physical order of data pages no longer matches key order, but
            # the index always does.
            for _leaf_pg, first_key, page_no in tree.range_entries(
                start_key, high
            ):
                if first_key > high:
                    return
                yield page_no, keep(page_no)

        return path.page_ids, pages()

    def secondary_range(
        self, attr: str, low: Any, high: Any
    ) -> tuple[list[int], Iterator[tuple[int, Any, RID]]]:
        """Range scan through a dense non-clustered index.

        Returns the descent page ids and an iterator of
        ``(index_leaf_page_id, key, rid)``; the caller fetches each data
        page with a random I/O — the behaviour that makes large pages hurt
        this access path (Figures 7-8).
        """
        tree = self._secondary(attr)
        path = tree.search(low)
        return path.page_ids, (
            (leaf_page, key, unpack_rid(packed))
            for leaf_page, key, packed in tree.range_entries(low, high)
        )

    def exact_match_clustered(
        self, value: Any
    ) -> tuple[list[PageAccess], Optional[tuple[RID, tuple]]]:
        """Single-tuple lookup through the clustered index."""
        tree = self.clustered_index
        get = self.schema.getter(self.clustered_on)  # type: ignore[arg-type]
        path = tree.search(value)
        accesses = [
            PageAccess(tree.name, pid) for pid in path.page_ids
        ]
        try:
            _leaf, _key, page_no = tree.floor_entry(value)
        except RecordNotFoundError:
            return accesses, None
        accesses.append(PageAccess(self.name, page_no))
        for slot, record in self.heap.pages[page_no].slotted_records():
            if get(record) == value:
                return accesses, (RID(page_no, slot), record)
        return accesses, None

    def exact_match_secondary(
        self, attr: str, value: Any
    ) -> tuple[list[PageAccess], Optional[tuple[RID, tuple]]]:
        """Single-tuple lookup through a non-clustered index."""
        tree = self._secondary(attr)
        path = tree.search(value)
        accesses = [PageAccess(tree.name, pid) for pid in path.page_ids]
        packed = tree.lookup(value)
        if not packed:
            return accesses, None
        rid = unpack_rid(packed[0])
        accesses.append(PageAccess(self.name, rid.page_no))
        return accesses, (rid, self.heap.fetch(rid))

    def fetch(self, rid: RID) -> tuple:
        return self.heap.fetch(rid)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def append(self, record: tuple) -> tuple[RID, list[PageAccess]]:
        """Insert one record, maintaining all indexes.

        Heap organisation appends to the tail; clustered organisation
        places the record on the correct data page (splitting it when
        full), exactly like a B-tree data file.
        """
        if self.clustered_on is None:
            rid = self.heap.append(record)
            accesses = [PageAccess(self.name, rid.page_no, write=True)]
        else:
            rid, accesses = self._clustered_insert(record)
        packed = pack_rid(rid.page_no, rid.slot)
        for attr, tree in self.secondary.items():
            get = self.schema.getter(attr)
            touched = tree.insert(get(record), packed)
            self.deferred_update_entries += 1
            accesses.extend(
                PageAccess(tree.name, pid, write=True) for pid in touched[-2:]
            )
        return rid, accesses

    def _clustered_insert(self, record: tuple) -> tuple[RID, list[PageAccess]]:
        get = self.schema.getter(self.clustered_on)  # type: ignore[arg-type]
        key = get(record)
        tree = self.clustered_index
        accesses: list[PageAccess] = []
        try:
            _leaf, _first, page_no = tree.floor_entry(key)
        except RecordNotFoundError:
            page_no = 0 if self.heap.pages else -1
        path = tree.search(key)
        accesses.extend(PageAccess(tree.name, pid) for pid in path.page_ids)
        if page_no < 0:
            rid = self.heap.append(record)
            tree.insert(key, rid.page_no)
            accesses.append(PageAccess(self.name, rid.page_no, write=True))
            return rid, accesses
        rid = self.heap.insert_on(page_no, record)
        if rid is not None:
            accesses.append(PageAccess(self.name, page_no, write=True))
            return rid, accesses
        # Page split: move the upper half to a fresh tail page and index it.
        rid = self._split_data_page(page_no, record, get, tree, accesses)
        return rid, accesses

    def _split_data_page(
        self,
        page_no: int,
        record: tuple,
        get: Callable[[tuple], Any],
        tree: BPlusTree,
        accesses: list[PageAccess],
    ) -> RID:
        # (slot before the split, record); the new record has no old slot.
        old = list(self.heap.pages[page_no].slotted_records())
        everything = sorted(
            [*old, (None, record)], key=lambda entry: get(entry[1])
        )
        half = len(everything) // 2
        # The lower half goes back on the original page, the upper half
        # to a brand-new tail page.
        new_page_no, lower_slots, upper_slots = self.heap.split(
            page_no,
            [rec for _slot, rec in everything[:half]],
            [rec for _slot, rec in everything[half:]],
        )
        # (old slot, record, packed RID after the split)
        placements = [
            (old_slot, rec, pack_rid(page_no, slot))
            for (old_slot, rec), slot in zip(everything[:half], lower_slots)
        ] + [
            (old_slot, rec, pack_rid(new_page_no, slot))
            for (old_slot, rec), slot in zip(everything[half:], upper_slots)
        ]
        tree.insert(get(everything[half][1]), new_page_no)
        accesses.append(PageAccess(self.name, page_no, write=True))
        accesses.append(PageAccess(self.name, new_page_no, write=True))
        # Re-file every record that was here under its new RID.  The old
        # entry is named by (key, old RID): the key alone would take some
        # other record's entry on a non-unique attribute.
        for attr, sec in self.secondary.items():
            sget = self.schema.getter(attr)
            for old_slot, rec, packed in placements:
                if old_slot is not None:
                    sec.delete(sget(rec), pack_rid(page_no, old_slot))
                    sec.insert(sget(rec), packed)
        return next(
            unpack_rid(packed)
            for old_slot, _rec, packed in placements if old_slot is None
        )

    def delete_record(self, rid: RID) -> tuple[tuple, list[PageAccess]]:
        """Delete the record at ``rid``, maintaining secondary indexes."""
        record = self.heap.delete(rid)
        accesses = [PageAccess(self.name, rid.page_no, write=True)]
        packed = pack_rid(rid.page_no, rid.slot)
        for attr, tree in self.secondary.items():
            get = self.schema.getter(attr)
            tree.delete(get(record), packed)
            self.deferred_update_entries += 1
            accesses.append(PageAccess(tree.name, 0, write=True))
        return record, accesses

    def replace_record(
        self, rid: RID, new_record: tuple
    ) -> tuple[tuple, list[PageAccess]]:
        """In-place modify, fixing any secondary index whose attr changed."""
        old = self.heap.replace(rid, new_record)
        accesses = [PageAccess(self.name, rid.page_no, write=True)]
        packed = pack_rid(rid.page_no, rid.slot)
        for attr, tree in self.secondary.items():
            get = self.schema.getter(attr)
            if get(old) != get(new_record):
                tree.delete(get(old), packed)
                tree.insert(get(new_record), packed)
                self.deferred_update_entries += 1
                accesses.append(PageAccess(tree.name, 0, write=True))
        return old, accesses

    def _secondary(self, attr: str) -> BPlusTree:
        try:
            return self.secondary[attr]
        except KeyError:
            raise StorageError(
                f"{self.name} has no secondary index on {attr!r}"
            ) from None
