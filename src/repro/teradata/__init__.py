"""The Teradata DBC/1012 baseline (Section 3 of the paper)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".amp": ("Amp", "AmpFragment", "DenseHashIndex", "hash_key_order"),
    ".costs": ("DEFAULT_TERADATA_COSTS", "TeradataCosts"),
    ".machine": ("TeradataMachine", "TeradataRelation"),
})
