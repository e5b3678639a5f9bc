"""Plain-Python reference answers for the ledger's correctness check.

The oracle sees only what the machines see — the generated Wisconsin
tuples and the query parameters — and computes every expected answer
with a list filter or a dict join: no simulator, no storage layer, no
planner.  The workloads compare each cell's row count against it, the
full result multiset for one selection and one join per machine, and the
post-state of every update.  A mismatch is a failed operation: it counts
in ``ops_failed_share`` and makes the command exit non-zero.

``python benchmarks/ledger/oracle.py`` runs the self-test: hand-checked
answers on a twelve-tuple relation, and proof that a wrong expected
count is reported as a failure rather than absorbed.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

#: Attribute positions in a Wisconsin tuple (the only two the benchmark
#: queries select or join on).
UNIQUE1 = 0
UNIQUE2 = 1
POSITION = {"unique1": UNIQUE1, "unique2": UNIQUE2}


def select_range(
    rows: Iterable[tuple], pos: int, low: int, high: int
) -> list[tuple]:
    """Rows with ``low <= row[pos] <= high`` (both ends inclusive)."""
    return [row for row in rows if low <= row[pos] <= high]


def select_exact(rows: Iterable[tuple], pos: int, value: int) -> list[tuple]:
    return [row for row in rows if row[pos] == value]


def hash_join(
    left: Iterable[tuple], right: Iterable[tuple], left_pos: int,
    right_pos: int,
) -> list[tuple]:
    """Equi-join; each result row is the left tuple followed by the
    right tuple — the layout both machines store."""
    by_key: dict[int, list[tuple]] = {}
    for row in left:
        by_key.setdefault(row[left_pos], []).append(row)
    return [
        match + row
        for row in right
        for match in by_key.get(row[right_pos], ())
    ]


def same_multiset(got: Iterable[tuple], expected: Sequence[tuple]) -> bool:
    """True when ``got`` holds exactly the rows of ``expected``, with
    multiplicity, in any order."""
    return Counter(got) == Counter(expected)


class Tally:
    """Operations attempted and failed, with the reasons.

    ``fault`` makes the next count comparison expect one row too many —
    the self-test's deliberately wrong expectation.
    """

    def __init__(self, fault: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._fault = fault

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def check_count(self, name: str, got: int, expected: int) -> bool:
        if self._fault:
            self._fault = False
            expected += 1
        return self.check(
            name, got == expected, f"{got} rows, expected {expected}"
        )


def self_test() -> None:
    """Hand-checked answers on twelve tuples; raises AssertionError."""
    rows = [(i, (i * 5) % 12) for i in range(12)]
    assert select_range(rows, UNIQUE1, 3, 5) == [(3, 3), (4, 8), (5, 1)]
    assert select_range(rows, UNIQUE2, 0, 1) == [(0, 0), (5, 1)]
    assert select_exact(rows, UNIQUE2, 7) == [(11, 7)]
    small = [(0, 4), (1, 4), (2, 9)]
    joined = hash_join(small, rows, UNIQUE2, UNIQUE2)
    assert sorted(joined) == [(0, 4, 8, 4), (1, 4, 8, 4), (2, 9, 9, 9)]
    assert same_multiset(reversed(joined), joined)
    assert not same_multiset(joined[:-1], joined)
    assert not same_multiset(joined + joined[:1], joined)

    honest = Tally()
    assert honest.check_count("count", len(joined), 3)
    assert (honest.attempted, honest.failed) == (1, 0)
    wrong = Tally(fault=True)
    assert not wrong.check_count("count", len(joined), 3)
    assert wrong.check_count("count", len(joined), 3)
    assert (wrong.attempted, wrong.failed) == (2, 1)
    assert wrong.failures == ["count: 3 rows, expected 4"]


if __name__ == "__main__":
    self_test()
    print("oracle self-test passed")
