"""Workloads: the Wisconsin benchmark generator, the paper's queries, and
the multiuser workload subsystem (terminals, arrivals, query mixes)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".multiuser": (
        "MixEntry", "QueryMix", "WorkloadSpec", "drive_workload", "mixed_mix",
        "selection_mix", "update_mix",
    ),
    ".wisconsin": (
        "INT_ATTRS", "STRING_ATTRS", "SelectivityRange", "StringsMode",
        "TUPLE_BYTES", "generate_hot_key_tuples", "generate_skewed_tuples",
        "generate_tuples", "selection_range", "wisconsin_load_set",
        "wisconsin_relation", "wisconsin_schema",
    ),
})
