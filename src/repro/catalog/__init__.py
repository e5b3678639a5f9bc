"""Catalog: relations, fragments and declustering strategies."""

from .catalog import Catalog
from .partitioning import (
    Hashed,
    PartitioningStrategy,
    RangePartitioned,
    RoundRobin,
    UniformRange,
    gamma_hash,
    gamma_mix,
    stable_hash,
)
from .relation import AttrStats, Relation, collect_statistics

__all__ = [
    "AttrStats",
    "Catalog",
    "Hashed",
    "PartitioningStrategy",
    "RangePartitioned",
    "Relation",
    "collect_statistics",
    "RoundRobin",
    "UniformRange",
    "gamma_hash",
    "gamma_mix",
    "stable_hash",
]
