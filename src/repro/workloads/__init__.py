"""Workloads: the Wisconsin benchmark generator, the paper's queries, and
the multiuser workload subsystem (terminals, arrivals, query mixes)."""

# The Wisconsin names must bind before the multiuser import below: that
# import pulls in the engine package, whose machine module imports
# ``wisconsin_load_set`` back out of this (then still partially
# initialised) package.
from .wisconsin import (
    INT_ATTRS,
    STRING_ATTRS,
    TUPLE_BYTES,
    SelectivityRange,
    StringsMode,
    generate_hot_key_tuples,
    generate_skewed_tuples,
    generate_tuples,
    selection_range,
    wisconsin_load_set,
    wisconsin_relation,
    wisconsin_schema,
)

from .multiuser import (  # noqa: E402
    MixEntry,
    QueryMix,
    WorkloadSpec,
    drive_workload,
    mixed_mix,
    selection_mix,
    update_mix,
)

__all__ = [
    "INT_ATTRS",
    "MixEntry",
    "QueryMix",
    "STRING_ATTRS",
    "SelectivityRange",
    "StringsMode",
    "TUPLE_BYTES",
    "WorkloadSpec",
    "drive_workload",
    "generate_hot_key_tuples",
    "generate_skewed_tuples",
    "generate_tuples",
    "mixed_mix",
    "selection_mix",
    "selection_range",
    "update_mix",
    "wisconsin_load_set",
    "wisconsin_relation",
    "wisconsin_schema",
]
