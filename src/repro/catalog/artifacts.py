"""Load artifacts: what a load derives from an immutable relation.

Loading a relation computes pure functions of its tuples: the hash mix
of the key column (Gamma's site of a tuple is ``mix % sites``, the
DBC/1012's AMP is ``mix % amps``), the DBC/1012's hash-key order, the
catalog statistics.  A :class:`SharedRelation` — what the relation source
hands to every machine of a process — keeps each result, so only its
first load pays for one; any other sequence (a list, a plain tuple) runs
the same kernel and the result is dropped.  The relation cannot change,
so nothing kept can go stale, and the results are freed with it.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterator, Sequence, TypeVar

T = TypeVar("T")


class SharedRelation(Sequence):
    """An immutable relation, ``rows`` (a tuple of tuples), with the load
    artifacts derived from it in :attr:`artifacts` — keyed by what they
    were derived for (a key position, a schema), never by a relation or
    workload name.

    A sequence of the rows, so every loader takes it where it takes a
    list of tuples.  It wraps the tuple rather than subclassing it: a
    ``tuple`` subclass is built by copying a temporary tuple, and freeing
    that large block moves the allocator's heap-versus-mmap threshold,
    which cost the benchmark's peak RSS megabytes.
    """

    __slots__ = ("rows", "artifacts")

    def __init__(self, rows: tuple[tuple, ...]) -> None:
        self.rows = rows
        self.artifacts: dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __getitem__(self, index: Any) -> Any:
        return self.rows[index]


def rows_of(records: Sequence[tuple]) -> Sequence[tuple]:
    """The plain rows of ``records``: a shared relation's tuple, else
    ``records`` itself (for kernels that index record by record)."""
    return records.rows if isinstance(records, SharedRelation) else records


def load_artifact(
    records: Sequence[tuple], key: Hashable, build: Callable[[], T]
) -> T:
    """``build()``, computed once per :class:`SharedRelation` and kept
    on it under ``key``; for any other ``records``, computed every call."""
    if not isinstance(records, SharedRelation):
        return build()
    artifacts = records.artifacts
    if key not in artifacts:
        artifacts[key] = build()
    return artifacts[key]
