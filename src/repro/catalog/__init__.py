"""Catalog: relations, fragments and declustering strategies."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".artifacts": ("SharedRelation",),
    ".catalog": ("Catalog",),
    ".partitioning": (
        "Hashed", "PartitioningStrategy", "RangePartitioned", "RoundRobin",
        "UniformRange", "gamma_hash", "gamma_mix", "stable_hash",
    ),
    ".relation": ("AttrStats", "Relation", "collect_statistics"),
})
