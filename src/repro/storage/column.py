"""Int columns over stored records, and the one compare that filters them.

A selection that scans a whole fragment tests one attribute of every live
record.  Reading it out of the record tuples costs a cache miss a record;
a fragment instead keeps that attribute as a dense numpy array — built by
the first scan that filters on it, dropped by any write to the fragment —
and one vectorized compare over it yields the positions of the matches.

The array answers exactly only for ints, so :func:`int_column` and
:func:`range_positions` decline (return None) where it could not: a value that is not an ``int`` (strings,
floats, bools) or does not fit int64, a bound that is not an ``int``.  The
caller then runs the predicate's per-tuple loop, which is the definition.
numpy is imported by the first call, not with the storage package.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

if TYPE_CHECKING:
    from .page import Page


#: ``(attribute position, positions)``, what ``Predicate.compile_column``
#: gives: ``positions(column)`` is the ascending positions of the matches
#: in the attribute's int column, or None when the compare would not be
#: exact (a bound that is not an int).
ColumnFilter = tuple[int, Callable[[Any], Optional[Any]]]


#: ``_INTS[i]`` is the one ``int`` object :func:`shared_ints` hands out for
#: ``i``, process-wide (CPython itself only shares ints up to 256).
_INTS: list[int] = []

#: The most ints the table holds by default: as many as the Wisconsin
#: relation memo keeps tuples (``workloads.wisconsin.MEMO_MAX_TUPLES``).
SHARED_INTS_MAX = 2_200_000


def shared_ints(n: int, limit: int = SHARED_INTS_MAX) -> list[int]:
    """A fresh list ``[0, .., n-1]`` of the shared ``int`` objects.

    A column of ``range(n)`` values or a map to ordinals built from it
    then holds an 8-byte pointer per entry, not a 32-byte int of its own.
    The table grows to at most ``limit`` ints; past that the list holds
    private ones.
    """
    shared = min(n, limit)
    if shared > len(_INTS):
        _INTS.extend(range(len(_INTS), shared))
    values = _INTS[:n]
    values.extend(range(len(values), n))
    return values


def int_column(
    values: Callable[[], Iterator[Any]], count: int
) -> Optional[Any]:
    """The ``count`` values ``values()`` yields, as an int32 array when
    every one fits and int64 otherwise; None when one is not an ``int``
    or does not fit int64.

    ``values`` is called twice — once to check the types, once to fill
    the array — so no per-record list is ever built.
    """
    import numpy as np

    if not set(map(type, values())) <= {int}:
        return None
    for dtype in (np.int32, np.int64):
        try:
            return np.fromiter(values(), dtype=dtype, count=count)
        except OverflowError:
            continue
    return None


def appended(column: Any, value: Any) -> Optional[Any]:
    """A new array: ``column`` with ``value`` at its end, widened to int64
    when ``value`` does not fit the column's dtype; None when ``value`` is
    not an ``int`` or does not fit int64."""
    if type(value) is not int:
        return None
    import numpy as np

    for dtype in (column.dtype, np.dtype(np.int64)):
        info = np.iinfo(dtype)
        if int(info.min) <= value <= int(info.max):
            return np.concatenate((column, np.array([value], dtype=dtype)))
    return None


def range_positions(column: Any, low: Any, high: Any) -> Optional[Any]:
    """Ascending positions of ``column`` whose value lies in
    ``[low, high]``; None when a bound is not an ``int``.

    Bounds outside the column's dtype are clamped to it first, so the
    compare never depends on how numpy treats an out-of-range Python int
    (numpy 2 compares one exactly; ``pyproject.toml`` does not require
    numpy 2).
    """
    if type(low) is not int or type(high) is not int:
        return None
    import numpy as np

    info = np.iinfo(column.dtype)
    low, high = max(low, int(info.min)), min(high, int(info.max))
    if low > high:
        return np.empty(0, dtype=np.intp)
    if low == high:
        return np.flatnonzero(column == low)
    return np.flatnonzero((column >= low) & (column <= high))


class PageHits:
    """Match positions of a heap column, cut at its page boundaries.

    ``starts[k]`` is the column position of page ``k``'s first live
    record (one entry past the last page too), so page ``k``'s matches are
    the hits in ``[starts[k], starts[k + 1])``, at live positions
    ``hit - starts[k]`` of the page.
    """

    __slots__ = ("_hits", "_cuts", "_starts")

    def __init__(self, hits: Any, starts: Any) -> None:
        import numpy as np

        self._hits: list[int] = hits.tolist()
        self._cuts: list[int] = np.searchsorted(hits, starts).tolist()
        self._starts: list[int] = starts.tolist()

    def on(self, page_no: int, page: Page) -> list[tuple]:
        """The matching records of ``page`` (page ``page_no`` of the
        heap), in slot order, as a list the caller owns."""
        first, end = self._cuts[page_no], self._cuts[page_no + 1]
        if first == end:
            return []
        live = page.live_records()
        if end - first == len(live):
            return live
        start = self._starts[page_no]
        return [live[hit - start] for hit in self._hits[first:end]]
