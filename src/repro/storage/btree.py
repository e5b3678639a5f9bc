"""Paged B+-trees (the WiSS index structures).

Gamma uses two organisations (Section 5.1 of the paper):

* **clustered index** — the data file is sorted on the key and a *sparse*
  B+-tree (one entry per data page) sits on top; only the pages in the
  query range are read.
* **non-clustered index** — a *dense* B+-tree (one entry per tuple) whose
  leaf payloads are RIDs; every qualifying tuple costs a random data-page
  access.

Nodes are sized from the disk page size, so increasing the page size
increases fan-out — the effect Figures 7-8 of the paper measure.

Deletion is lazy (entries are removed, nodes are not rebalanced), matching
the common practice of production B-trees; the benchmarks only ever delete
a negligible fraction of entries.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import islice
from operator import gt
from typing import Any, Iterator, MutableSequence, Optional

from ..errors import RecordNotFoundError, StorageError

#: Node header bytes (level, count, sibling pointer, ...).
NODE_HEADER_BYTES = 32

#: Per-entry slot overhead inside a node.
ENTRY_OVERHEAD_BYTES = 4

#: Width of a child/page pointer or RID payload.
POINTER_BYTES = 8


class BTreeNode:
    """One node of the tree; occupies exactly one disk page."""

    __slots__ = ("page_id", "is_leaf", "keys", "payloads", "children", "next_leaf")

    def __init__(self, page_id: int, is_leaf: bool) -> None:
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.keys: list[Any] = []
        #: Leaf only: a list, or an ``array('q')`` of machine words where
        #: the tree was bulk-loaded from one (a dense index's packed RIDs).
        self.payloads: MutableSequence[Any] = []
        self.children: list["BTreeNode"] = []  # internal only
        self.next_leaf: Optional["BTreeNode"] = None

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        kind = "leaf" if self.is_leaf else "internal"
        return f"<BTreeNode #{self.page_id} {kind} n={len(self.keys)}>"


@dataclass
class SearchPath:
    """Result of descending to the leaf that may hold ``key``.

    Attributes:
        page_ids: Node page ids visited root→leaf (for I/O charging).
        leaf: The leaf node reached.
        index: Position of the first leaf entry with entry-key >= key.
    """

    page_ids: list[int]
    leaf: BTreeNode
    index: int


class BPlusTree:
    """A B+-tree mapping keys to payloads with page-based nodes.

    Args:
        name: File id of the index (for buffer/disk accounting).
        page_size: Bytes per node page.
        key_bytes: Declared key width (4 for Wisconsin integers).
        payload_bytes: Declared leaf-payload width (8 for a RID or page
            pointer).
        fill_factor: Leaf packing density used by :meth:`bulk_load`.
    """

    def __init__(
        self,
        name: str,
        page_size: int,
        key_bytes: int = 4,
        payload_bytes: int = POINTER_BYTES,
        fill_factor: float = 1.0,
    ) -> None:
        if not 0.5 <= fill_factor <= 1.0:
            raise StorageError("fill_factor must be in [0.5, 1.0]")
        usable = page_size - NODE_HEADER_BYTES
        leaf_entry = key_bytes + payload_bytes + ENTRY_OVERHEAD_BYTES
        internal_entry = key_bytes + POINTER_BYTES + ENTRY_OVERHEAD_BYTES
        self.leaf_capacity = usable // leaf_entry
        self.internal_fanout = usable // internal_entry
        if self.leaf_capacity < 2 or self.internal_fanout < 3:
            raise StorageError(f"page_size {page_size} too small for a node")
        self.name = name
        self.page_size = page_size
        self.fill_factor = fill_factor
        self._next_page = 0
        self.root = self._new_node(is_leaf=True)
        self.size = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _new_node(self, is_leaf: bool) -> BTreeNode:
        node = BTreeNode(self._next_page, is_leaf)
        self._next_page += 1
        return node

    @property
    def height(self) -> int:
        """Number of levels (a lone leaf has height 1)."""
        levels = 1
        node = self.root
        while not node.is_leaf:
            node = node.children[0]
            levels += 1
        return levels

    def bulk_load(self, pairs: list[tuple[Any, Any]]) -> None:
        """Load sorted ``(key, payload)`` pairs into an empty tree."""
        self.bulk_load_columns(
            [key for key, _payload in pairs],
            [payload for _key, payload in pairs],
        )

    def bulk_load_columns(
        self, keys: list[Any], payloads: MutableSequence[Any]
    ) -> None:
        """Load sorted ``keys`` and their ``payloads`` (one sequence each,
        so a caller holding columns builds no pair per entry) into an
        empty tree.  Each leaf holds slices of the two, so payloads given
        as an ``array('q')`` stay machine words in the leaves."""
        if self.size:
            raise StorageError("bulk_load requires an empty tree")
        if len(keys) != len(payloads):
            raise StorageError("bulk_load needs one payload per key")
        if any(map(gt, keys, islice(keys, 1, None))):
            raise StorageError("bulk_load input must be sorted by key")
        per_leaf = max(2, int(self.leaf_capacity * self.fill_factor))
        leaves: list[BTreeNode] = []
        for start in range(0, len(keys), per_leaf):
            leaf = self._new_node(is_leaf=True)
            leaf.keys = keys[start:start + per_leaf]
            leaf.payloads = payloads[start:start + per_leaf]
            if leaves:
                leaves[-1].next_leaf = leaf
            leaves.append(leaf)
        self.size = len(keys)
        if not leaves:
            return
        level = leaves
        fanout = self.internal_fanout
        while len(level) > 1:
            starts = list(range(0, len(level), fanout))
            if len(level) % fanout == 1:
                # A lone last node would be a one-child parent: split the
                # last two groups (fanout + 1 nodes) about evenly instead.
                starts[-1] -= fanout // 2
            parents: list[BTreeNode] = []
            for start, end in zip(starts, starts[1:] + [len(level)]):
                group = level[start:end]
                parent = self._new_node(is_leaf=False)
                parent.children = group
                parent.keys = [self._min_key(c) for c in group[1:]]
                parents.append(parent)
            level = parents
        self.root = level[0]

    def _min_key(self, node: BTreeNode) -> Any:
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(self, key: Any) -> SearchPath:
        """Descend to the leaf where ``key`` lives (or would live).

        The descent goes right of a separator equal to ``key``; for a
        duplicated key that is not the first leaf holding it, so readers
        of every entry start from :meth:`_leftmost_leaf` instead.
        """
        node = self.root
        page_ids = [node.page_id]
        while not node.is_leaf:
            child_idx = bisect_right(node.keys, key)
            node = node.children[child_idx]
            page_ids.append(node.page_id)
        index = bisect_left(node.keys, key)
        return SearchPath(page_ids, node, index)

    def _leftmost_leaf(self, key: Any) -> tuple[list[int], BTreeNode]:
        """Node page ids root→leaf and the first leaf that may hold ``key``.

        Descends left of a separator equal to ``key``: entries with a
        duplicated key sit on both sides of it.  For unique keys the
        leaf to the left holds nothing >= ``key``, so a scan from here
        yields exactly what a scan from :meth:`search` would.
        """
        node = self.root
        page_ids = [node.page_id]
        while not node.is_leaf:
            node = node.children[bisect_left(node.keys, key)]
            page_ids.append(node.page_id)
        return page_ids, node

    def lookup(self, key: Any) -> list[Any]:
        """All payloads stored under exactly ``key``."""
        return [p for _page, k, p in self.range_entries(key, key) if k == key]

    def range_entries(
        self, low: Any, high: Any
    ) -> Iterator[tuple[int, Any, Any]]:
        """Yield ``(leaf_page_id, key, payload)`` for low <= key <= high."""
        if low > high:
            return
        _page_ids, first = self._leftmost_leaf(low)
        leaf: Optional[BTreeNode] = first
        index = bisect_left(first.keys, low)
        while leaf is not None:
            keys = leaf.keys
            while index < len(keys):
                key = keys[index]
                if key > high:
                    return
                yield leaf.page_id, key, leaf.payloads[index]
                index += 1
            leaf = leaf.next_leaf
            index = 0

    def floor_entry(self, key: Any) -> tuple[int, Any, Any]:
        """The rightmost entry with entry-key <= key.

        Used by sparse (clustered) indexes to find the data page whose key
        range covers ``key``.

        Raises:
            RecordNotFoundError: if every key exceeds ``key`` (or empty).
        """
        node = self.root
        while not node.is_leaf:
            node = node.children[bisect_right(node.keys, key)]
        idx = bisect_right(node.keys, key) - 1
        if idx < 0:
            raise RecordNotFoundError(f"no entry <= {key!r} in {self.name}")
        return node.page_id, node.keys[idx], node.payloads[idx]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, key: Any, payload: Any) -> list[int]:
        """Insert ``(key, payload)``; returns the node page ids touched."""
        touched, split = self._insert_into(self.root, key, payload)
        if split is not None:
            sep_key, right = split
            new_root = self._new_node(is_leaf=False)
            new_root.children = [self.root, right]
            new_root.keys = [sep_key]
            self.root = new_root
            touched.append(new_root.page_id)
        self.size += 1
        return touched

    def _insert_into(
        self, node: BTreeNode, key: Any, payload: Any
    ) -> tuple[list[int], Optional[tuple[Any, BTreeNode]]]:
        if node.is_leaf:
            idx = bisect_right(node.keys, key)
            node.keys.insert(idx, key)
            node.payloads.insert(idx, payload)
            if len(node.keys) <= self.leaf_capacity:
                return [node.page_id], None
            mid = len(node.keys) // 2
            right = self._new_node(is_leaf=True)
            right.keys = node.keys[mid:]
            right.payloads = node.payloads[mid:]
            node.keys = node.keys[:mid]
            node.payloads = node.payloads[:mid]
            right.next_leaf = node.next_leaf
            node.next_leaf = right
            return [node.page_id, right.page_id], (right.keys[0], right)
        child_idx = bisect_right(node.keys, key)
        touched, split = self._insert_into(node.children[child_idx], key, payload)
        touched.append(node.page_id)
        if split is None:
            return touched, None
        sep_key, right_child = split
        node.keys.insert(child_idx, sep_key)
        node.children.insert(child_idx + 1, right_child)
        if len(node.children) <= self.internal_fanout:
            return touched, None
        mid = len(node.children) // 2
        right = self._new_node(is_leaf=False)
        promote = node.keys[mid - 1]
        right.keys = node.keys[mid:]
        right.children = node.children[mid:]
        node.keys = node.keys[:mid - 1]
        node.children = node.children[:mid]
        touched.append(right.page_id)
        return touched, (promote, right)

    def delete(self, key: Any, payload: Any = None) -> list[int]:
        """Delete one entry with ``key`` (and ``payload`` if given).

        Returns the node page ids touched.

        Raises:
            RecordNotFoundError: if no matching entry exists.
        """
        page_ids, first = self._leftmost_leaf(key)
        leaf: Optional[BTreeNode] = first
        while leaf is not None:
            keys = leaf.keys
            index = bisect_left(keys, key)
            while index < len(keys) and keys[index] == key:
                if payload is None or leaf.payloads[index] == payload:
                    del keys[index]
                    del leaf.payloads[index]
                    self.size -= 1
                    return page_ids
                index += 1
            if index < len(keys):
                break
            leaf = leaf.next_leaf
        raise RecordNotFoundError(f"key {key!r} not found in {self.name}")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[Any, Any]]:
        """All ``(key, payload)`` pairs in key order."""
        node = self.root
        while not node.is_leaf:
            node = node.children[0]
        leaf: Optional[BTreeNode] = node
        while leaf is not None:
            yield from zip(leaf.keys, leaf.payloads)
            leaf = leaf.next_leaf

    def check_invariants(self) -> None:
        """Validate ordering, linkage and capacities (used by tests).

        Raises:
            StorageError: if any structural invariant is violated.
        """
        keys = [k for k, _p in self.items()]
        if keys != sorted(keys):
            raise StorageError("leaf chain keys are not sorted")
        count = sum(1 for _ in self.items())
        if count != self.size:
            raise StorageError(f"size {self.size} != entry count {count}")
        self._check_node(self.root, None, None, is_root=True)

    def _check_node(
        self, node: BTreeNode, low: Any, high: Any, is_root: bool = False
    ) -> None:
        for key in node.keys:
            if low is not None and key < low:
                raise StorageError(f"key {key!r} below bound {low!r}")
            if high is not None and key > high:
                raise StorageError(f"key {key!r} above bound {high!r}")
        if node.is_leaf:
            if len(node.keys) > self.leaf_capacity:
                raise StorageError("leaf over capacity")
            if node.keys != sorted(node.keys):
                raise StorageError("leaf keys unsorted")
            return
        if len(node.children) != len(node.keys) + 1:
            raise StorageError("internal child/key count mismatch")
        if len(node.children) > self.internal_fanout:
            raise StorageError("internal node over fan-out")
        if not is_root and len(node.children) < 2:
            raise StorageError("non-root internal node with < 2 children")
        bounds = [low, *node.keys, high]
        for i, child in enumerate(node.children):
            self._check_node(child, bounds[i], bounds[i + 1])


def build_dense_index(
    name: str,
    page_size: int,
    entries: list[tuple[Any, Any]],
    key_bytes: int = 4,
) -> BPlusTree:
    """A dense (one entry per tuple) non-clustered index over RIDs."""
    tree = BPlusTree(name, page_size, key_bytes=key_bytes)
    tree.bulk_load(sorted(entries, key=lambda kp: kp[0]))
    return tree


def build_sparse_index(
    name: str,
    page_size: int,
    page_first_keys: list[tuple[Any, int]],
    key_bytes: int = 4,
) -> BPlusTree:
    """A sparse clustered index: one ``(first_key, data_page_no)`` entry per
    data page of a key-sorted heap file."""
    tree = BPlusTree(name, page_size, key_bytes=key_bytes)
    tree.bulk_load(page_first_keys)
    return tree
