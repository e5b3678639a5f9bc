"""LRU buffer pool.

The buffer pool belongs to the *timing* plane: page contents are always
reachable in the functional plane (this is a simulator), so the pool's only
job is to answer "would this page access have hit memory?" and thereby
decide whether a disk I/O is charged.  Hot index roots hitting the pool is
what makes repeated single-tuple operations cheap (Table 3).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

from ..errors import StorageError

PageKey = tuple[Hashable, int]


class BufferPool:
    """A page-granularity LRU cache with hit/miss accounting."""

    def __init__(self, name: str, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise StorageError("buffer pool needs capacity >= 1 page")
        self.name = name
        self.capacity_pages = capacity_pages
        self._lru: OrderedDict[PageKey, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"<BufferPool {self.name} {len(self._lru)}/{self.capacity_pages}"
            f" hit={self.hit_ratio:.2f}>"
        )

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def access(self, file_id: Hashable, page_no: int) -> bool:
        """Touch a page; returns True on a hit (no disk I/O needed)."""
        key = (file_id, page_no)
        if key in self._lru:
            self._lru.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._lru[key] = None
        if len(self._lru) > self.capacity_pages:
            self._lru.popitem(last=False)
        return False

    def contains(self, file_id: Hashable, page_no: int) -> bool:
        """Non-mutating membership probe (no statistics update)."""
        return (file_id, page_no) in self._lru

    def clear(self) -> None:
        self._lru.clear()
