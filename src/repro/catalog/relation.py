"""Relations: a schema plus one stored fragment per disk site."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..errors import CatalogError
from ..storage import AttrType, Schema, StoredFile
from .artifacts import load_artifact
from .partitioning import PartitioningStrategy


@dataclass(frozen=True)
class AttrStats:
    """Catalog statistics for one integer attribute (Selinger-style).

    Collected at load time; the optimizer uses them for selectivity
    estimation and for range-slice boundaries.
    """

    minimum: int
    maximum: int
    distinct_hint: int

    @property
    def width(self) -> int:
        return self.maximum - self.minimum + 1

    def range_selectivity(self, low, high) -> float:
        """Fraction of tuples expected in [low, high] (uniform model)."""
        if high < self.minimum or low > self.maximum:
            return 0.0
        lo = max(low, self.minimum)
        hi = min(high, self.maximum)
        return (hi - lo + 1) / self.width


#: ``distinct_hint`` counts the distinct values among this many leading
#: tuples (all of them, for the relations of Tables 1-3 below 1 M).
DISTINCT_SAMPLE = 100_000


def collect_statistics(
    schema: Schema, records: Sequence[tuple]
) -> dict[str, AttrStats]:
    """Min/max/distinct statistics for every integer attribute: a load
    artifact, so a shared relation is summarised once per schema.  The
    dict is the caller's own."""
    return dict(load_artifact(
        records, ("statistics", schema, DISTINCT_SAMPLE),
        lambda: _statistics(schema, records),
    ))


def _statistics(
    schema: Schema, records: Sequence[tuple]
) -> dict[str, AttrStats]:
    stats: dict[str, AttrStats] = {}
    if not records:
        return stats
    # Min and max come from the distinct set whenever it covers the whole
    # column (eleven Wisconsin columns repeat a handful of values, and
    # the set has then done the work already).
    for pos, attribute in enumerate(schema.attributes):
        if attribute.type is not AttrType.INT:
            continue
        # One column at a time, never ``zip(*records)``: that keeps one
        # collector-tracked iterator per record alive.
        values = [record[pos] for record in records]
        distinct = set(values[:DISTINCT_SAMPLE])
        bounds = distinct if len(values) <= DISTINCT_SAMPLE else values
        stats[attribute.name] = AttrStats(
            minimum=min(bounds),
            maximum=max(bounds),
            distinct_hint=len(distinct),
        )
    return stats


class Relation:
    """A horizontally partitioned relation.

    Attributes:
        name: Relation name (unique within a catalog).
        schema: Tuple layout.
        partitioning: How tuples were declustered at load time.
        fragments: One :class:`StoredFile` per disk site, indexed by site.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        partitioning: PartitioningStrategy,
        fragments: Sequence[StoredFile],
        statistics: Optional[dict[str, AttrStats]] = None,
    ) -> None:
        if not fragments:
            raise CatalogError(f"relation {name!r} needs >= 1 fragment")
        self.name = name
        self.schema = schema
        self.partitioning = partitioning
        self.fragments = list(fragments)
        self.statistics: dict[str, AttrStats] = statistics or {}

    def stats_for(self, attr: str) -> Optional[AttrStats]:
        """Catalog statistics for ``attr``, if collected at load time."""
        return self.statistics.get(attr)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"<Relation {self.name} n={self.num_records}"
            f" sites={self.n_sites} {self.partitioning.kind}>"
        )

    @property
    def n_sites(self) -> int:
        return len(self.fragments)

    @property
    def num_records(self) -> int:
        return sum(f.num_records for f in self.fragments)

    @property
    def num_pages(self) -> int:
        return sum(f.num_pages for f in self.fragments)

    @property
    def clustered_on(self) -> Optional[str]:
        return self.fragments[0].clustered_on

    def indexed_attrs(self) -> set[str]:
        attrs = set(self.fragments[0].secondary)
        if self.clustered_on is not None:
            attrs.add(self.clustered_on)
        return attrs

    def has_index_on(self, attr: str) -> bool:
        return self.fragments[0].has_index_on(attr)

    def add_secondary_index(self, attr: str) -> None:
        """Build a dense non-clustered index on every fragment."""
        for fragment in self.fragments:
            fragment.add_secondary_index(attr)

    def records(self) -> Iterator[tuple]:
        """All tuples across all fragments (functional plane)."""
        for fragment in self.fragments:
            yield from fragment.records()

    def fragment_sizes(self) -> list[int]:
        return [f.num_records for f in self.fragments]
