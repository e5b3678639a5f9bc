"""Access Module Processors and their hash-key-ordered storage.

Every relation fragment on an AMP is kept in *hash-key order*: tuples are
placed by the hash of the primary key, so an exact-match on the key is one
disk access, but a range predicate — on any attribute — sees the file in
effectively random key order and must scan all of it.  Secondary indexes
are dense and themselves hash-organised, so a range query must scan the
whole index too (the behaviour behind rows 3-4 of Table 1).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..catalog import gamma_hash
from ..hardware import DiskDrive, TeradataConfig
from ..sim import Server, Simulation, Use, UseRun
from ..storage import BufferPool, HeapFile, Schema, records_per_page
from ..storage.column import (
    ColumnFilter,
    appended,
    int_column,
    range_positions,
    shared_ints,
)

#: Files and dense indexes are ordered by the low 30 bits of the mix.
HASH_ORDER_BUCKETS = 1 << 30


def hash_partition(
    records: Sequence[tuple], key_pos: int, n_amps: int
) -> list[list[tuple]]:
    """Deal ``records`` to AMPs by the hash of their key, each AMP's
    share in the order the DBC/1012 stores it: by key hash, then key,
    then load order.

    One :func:`~repro.catalog.gamma_mix` per record yields both its AMP
    (``mix % n_amps``, i.e. ``gamma_hash(key, n_amps)``) and its place in
    the hash-key order (:func:`hash_order`); a shared relation keeps both.
    """
    # Imported by the first load, not with the package: numpy comes with it.
    from ..engine.columnar import key_mixes, scatter

    order = hash_order(records, key_pos)
    amps = key_mixes(records, key_pos)[order] % n_amps
    return scatter(records, amps, n_amps, order)


def hash_order(records: Sequence[tuple], key_pos: int) -> Any:
    """Positions of ``records`` in hash-key order — by the low 30 bits of
    the key's mix, then key, then position — as an int32 array: a load
    artifact, so a shared relation sorts each key column once.

    All-int keys take one stable ``lexsort``; anything else (strings,
    out-of-range ints) two stable Python sorts, minor key first.
    """
    import numpy as np

    from ..catalog.artifacts import load_artifact
    from ..engine.columnar import int_array, key_mixes

    def build() -> Any:
        place = key_mixes(records, key_pos) & np.uint32(HASH_ORDER_BUCKETS - 1)
        keys = [record[key_pos] for record in records]
        column = int_array(keys)
        if column is not None:
            return np.lexsort((column, place)).astype(np.int32)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        order.sort(key=place.tolist().__getitem__)
        return np.array(order, dtype=np.int32)

    return load_artifact(records, ("hash order", key_pos), build)


def hash_key_order(records: Sequence[tuple], key_pos: int) -> list[tuple]:
    """Sort records the way the DBC/1012 stores them: by key hash."""
    return hash_partition(records, key_pos, 1)[0]


class DenseHashIndex:
    """A dense secondary index whose rows are hashed, NOT key-sorted.

    "whenever a range query over an indexed attribute is performed, the
    entire index must be scanned."

    The rows are two parallel columns in index (scan) order — tuple
    ordinals, and the values they are filed under — held as int arrays
    (the values in a list once one is not an int), so a scan is one
    compare over the value column (:mod:`repro.storage.column`).  A row is
    dropped, or re-filed at the end, by ordinal, without a rebuild.
    """

    ENTRY_BYTES = 16

    def __init__(self, name: str, attr: str, page_size: int) -> None:
        import numpy as np

        self.name = name
        self.attr = attr
        self.page_size = page_size
        self._ordinals: Any = np.empty(0, dtype=np.int32)
        self._values: Any = np.empty(0, dtype=np.int32)

    def __len__(self) -> int:
        return len(self._ordinals)

    @property
    def num_pages(self) -> int:
        per_page = records_per_page(self.page_size, self.ENTRY_BYTES)
        return (len(self) + per_page - 1) // per_page

    @property
    def entries(self) -> dict[int, Any]:
        """ordinal → value, in index order: a copy, for inspection."""
        return dict(zip(self._ordinals.tolist(), self._value_list()))

    def build(
        self, values: list[Any], ordinals: Optional[list[int]] = None
    ) -> None:
        """Index ``values[i]`` under ``ordinals[i]`` (default: ``i``)."""
        import numpy as np

        from ..engine.columnar import mix_column

        place = mix_column(values) & np.uint32(HASH_ORDER_BUCKETS - 1)
        order = np.argsort(place, kind="stable")
        column = int_column(lambda: iter(values), len(values))
        rows = order if ordinals is None else np.asarray(ordinals)[order]
        end = len(values) if ordinals is None else max(ordinals, default=-1) + 1
        self._ordinals = rows.astype(np.int32 if end <= 1 << 31 else np.int64)
        self._values = (
            [values[i] for i in order.tolist()] if column is None
            else column[order]
        )

    def put(self, ordinal: int, value: Any) -> None:
        """File ``ordinal`` under ``value`` at the end of the index,
        dropping the row it had."""
        at = self._row_of(ordinal)
        if at is not None:
            self._remove(at)
        self._ordinals = appended(self._ordinals, ordinal)
        values = self._values
        if type(values) is list:
            values.append(value)
            return
        grown = appended(values, value)
        self._values = [*values.tolist(), value] if grown is None else grown

    def drop(self, ordinal: int) -> None:
        at = self._row_of(ordinal)
        if at is None:
            raise KeyError(ordinal)
        self._remove(at)

    def matching(self, low: Any, high: Any) -> list[int]:
        """Ordinals of tuples with value in [low, high], in index order —
        found only by scanning every entry."""
        hits = self._scan(low, high)
        if hits is None:
            return [
                i for i, v in zip(self._ordinals.tolist(), self._value_list())
                if low <= v <= high
            ]
        return hits

    def exact(self, value: Any) -> list[int]:
        hits = self._scan(value, value)
        if hits is None:
            return [
                i for i, v in zip(self._ordinals.tolist(), self._value_list())
                if v == value
            ]
        return hits

    def _scan(self, low: Any, high: Any) -> Optional[list[int]]:
        """:meth:`matching` as one compare over the value column; None
        when the compare would not be exact."""
        if type(self._values) is list:
            return None
        positions = range_positions(self._values, low, high)
        if positions is None:
            return None
        return self._ordinals[positions].tolist()

    def _value_list(self) -> list[Any]:
        values = self._values
        return values if type(values) is list else values.tolist()

    def _row_of(self, ordinal: int) -> Optional[int]:
        import numpy as np

        rows = np.flatnonzero(self._ordinals == ordinal)
        return int(rows[0]) if len(rows) else None

    def _remove(self, at: int) -> None:
        import numpy as np

        self._ordinals = np.delete(self._ordinals, at)
        if type(self._values) is list:
            del self._values[at]
        else:
            self._values = np.delete(self._values, at)


class _FirstOrdinal:
    """value → lowest live ordinal holding it, for one attribute of one
    fragment: the answer a front-to-back scan of the fragment gives.  The
    ordinals are the process's shared ints
    (:func:`~repro.storage.column.shared_ints`), so the map costs its
    slots and no int object per entry."""

    def __init__(self, records: list[tuple], pos: int) -> None:
        self.pos = pos
        self.first: dict[Any, int] = {}
        #: Values some second ordinal has carried too; only these need a
        #: rescan when their first ordinal goes.
        self.repeated: set[Any] = set()
        first, repeated = self.first, self.repeated
        for ordinal, record in zip(shared_ints(len(records)), records):
            if record is not None:
                if first.setdefault(record[pos], ordinal) != ordinal:
                    repeated.add(record[pos])

    def add(self, value: Any, ordinal: int) -> None:
        known = self.first.setdefault(value, ordinal)
        if known != ordinal:
            self.repeated.add(value)
            if ordinal < known:
                self.first[value] = ordinal

    def drop(self, value: Any, ordinal: int, records: list[tuple]) -> None:
        """Forget ``ordinal``, which no longer holds ``value`` in
        ``records`` (removed, or replaced by a tuple with another value)."""
        if self.first.get(value) != ordinal:
            return
        del self.first[value]
        if value in self.repeated:
            pos = self.pos
            for later in range(ordinal + 1, len(records)):
                record = records[later]
                if record is not None and record[pos] == value:
                    self.first[value] = later
                    return


class AmpFragment:
    """One relation's data on one AMP.

    ``records`` are this AMP's tuples already in hash-key order
    (:func:`hash_partition` deals a relation out that way).
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        key_attr: str,
        page_size: int,
        records: list[tuple],
    ) -> None:
        self.name = name
        self.schema = schema
        self.key_attr = key_attr
        self.heap = HeapFile(name, schema, page_size)
        self.heap.bulk_append(records)
        self.records = records
        self.indexes: dict[str, DenseHashIndex] = {}
        self._holes = 0  # slots of ``records`` a delete has emptied
        #: Built per attribute by the first :meth:`locate` on it, then
        #: kept by append/remove/replace.
        self._located: dict[str, _FirstOrdinal] = {}
        #: pos → the cached :meth:`column` (None: not an int column);
        #: append/remove/replace drop them all.
        self._columns: dict[int, Any] = {}

    @property
    def num_pages(self) -> int:
        return self.heap.num_pages

    @property
    def num_records(self) -> int:
        """Live tuples: a delete's hole in ``records`` is not one."""
        return len(self.records) - self._holes

    def add_index(self, attr: str) -> None:
        index = DenseHashIndex(
            f"{self.name}.idx.{attr}", attr, self.heap.page_size
        )
        pos = self.schema.position(attr)
        records = self.records
        if self._holes:
            live = [i for i, r in enumerate(records) if r is not None]
            index.build([records[i][pos] for i in live], live)
        else:
            index.build([r[pos] for r in records])
        self.indexes[attr] = index

    def page_of_ordinal(self, ordinal: int) -> int:
        per_page = self.heap.records_per_full_page
        return ordinal // per_page

    def locate(self, attr: str, value: Any) -> Optional[int]:
        """Ordinal of the first live tuple whose ``attr`` equals
        ``value``, or None."""
        located = self._located.get(attr)
        if located is None:
            located = self._located[attr] = _FirstOrdinal(
                self.records, self.schema.position(attr)
            )
        return located.first.get(value)

    def append(self, record: tuple) -> None:
        ordinal = len(self.records)
        self.records.append(record)
        self.heap.append(record)
        self._columns.clear()
        for attr, index in self.indexes.items():
            index.put(ordinal, record[self.schema.position(attr)])
        for located in self._located.values():
            located.add(record[located.pos], ordinal)

    def remove(self, ordinal: int) -> tuple:
        record = self.records[ordinal]
        self.records[ordinal] = None  # type: ignore[call-overload]
        self._holes += 1
        self._columns.clear()
        for index in self.indexes.values():
            index.drop(ordinal)
        for located in self._located.values():
            located.drop(record[located.pos], ordinal, self.records)
        return record

    def replace(self, ordinal: int, record: tuple) -> None:
        old = self.records[ordinal]
        self.records[ordinal] = record
        self._columns.clear()
        for attr, index in self.indexes.items():
            pos = self.schema.position(attr)
            if old[pos] != record[pos]:
                # Re-filed at the end of the index, as a fresh entry is.
                index.put(ordinal, record[pos])
        for located in self._located.values():
            pos = located.pos
            if old[pos] != record[pos]:
                located.drop(old[pos], ordinal, self.records)
                located.add(record[pos], ordinal)

    def live_records(self) -> Sequence[tuple]:
        """The stored tuples, read-only: ``records`` itself until a
        delete leaves a hole in it."""
        if not self._holes:
            return self.records
        return [r for r in self.records if r is not None]

    def column(self, pos: int) -> Optional[Any]:
        """Attribute ``pos`` of :meth:`live_records`, in order, as an int
        array (:func:`~repro.storage.column.int_column`); None when a
        value is not an int.  Built by the first call after a write and
        kept, one per attribute, until the next."""
        if pos not in self._columns:
            live = self.live_records()
            get = itemgetter(pos)
            self._columns[pos] = int_column(lambda: map(get, live), len(live))
        return self._columns[pos]

    def select(
        self,
        batch: Callable[[Any], list[tuple]],
        column: Optional[ColumnFilter],
    ) -> list[tuple]:
        """The live records a predicate keeps, in order, as a list the
        caller owns: ``column``'s one compare over :meth:`column`
        (``Predicate.compile_column``) where it answers exactly, else
        ``batch``, the per-tuple loop (``Predicate.compile_batch``)."""
        live = self.live_records()
        if column is not None:
            pos, positions = column
            values = self.column(pos)
            hits = None if values is None else positions(values)
            if hits is not None:
                return [live[i] for i in hits.tolist()]
        matches = batch(live)
        # The 100 % selection hands its input back: never the fragment's
        # own list, which a local join would go on to sort.
        return list(matches) if matches is self.records else matches


class Amp:
    """One AMP: a CPU, two disk drives, a buffer pool."""

    def __init__(
        self, sim: Simulation, index: int, config: TeradataConfig,
        private: bool = False,
    ) -> None:
        """``private``: this AMP serves one request at a time (a
        standalone run), so its CPU and drives never see two requesters
        at once and their unobserved service runs cost one kernel event
        each."""
        self.sim = sim
        self.index = index
        self.name = f"amp{index}"
        self.config = config
        self.cpu = Server(f"{self.name}.cpu", private=private)
        self.drives = [
            DiskDrive(f"{self.name}.d{d}", config.disk, private=private)
            for d in range(config.disks_per_amp)
        ]
        self._next_drive = 0
        self._drive_of: dict[str, DiskDrive] = {}
        self.buffer = BufferPool(f"{self.name}.buf", 128)

    def work(self, instructions: float) -> Optional[Use]:
        """The effect that occupies this AMP's CPU for ``instructions``,
        or None for none (``yield amp.work(x)``; see ``Node.work``)."""
        if instructions <= 0:
            return None
        return Use(self.cpu, self.config.cpu.time_for(instructions))

    def _drive_for(self, file_id: str) -> DiskDrive:
        # Files are spread over the AMP's two DSUs by name hash, worked
        # out once per file rather than on every page access.
        drive = self._drive_of.get(file_id)
        if drive is None:
            drive = self._drive_of[file_id] = self.drives[
                gamma_hash(file_id, len(self.drives))
            ]
        return drive

    def read_run(
        self, file_id: str, page_nos: Iterable[int],
        sequential: Optional[bool] = None,
    ) -> UseRun:
        """Read ``page_nos`` of one file back to back: one hop on the
        file's drive per page the buffer pool does not hold."""
        drive = self._drive_for(file_id)
        access, nbytes = self.buffer.access, self.config.page_size
        return UseRun(drive.server, (
            drive.read_time(file_id, page_no, nbytes, sequential)
            for page_no in page_nos if not access(file_id, page_no)
        ))

    def write_run(
        self, file_id: str, page_nos: Iterable[int],
        sequential: Optional[bool] = None,
    ) -> UseRun:
        """Write ``page_nos`` of one file back to back, each page
        entering the buffer pool as its write completes."""
        drive = self._drive_for(file_id)
        access, nbytes = self.buffer.access, self.config.page_size

        def hops() -> Iterator[float]:
            for page_no in page_nos:
                yield drive.write_time(file_id, page_no, nbytes, sequential)
                access(file_id, page_no)

        return UseRun(drive.server, hops())
