"""Gamma operator processes."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".aggregate": (
        "combine_aggregate_operator", "grouped_aggregate_operator",
        "partial_aggregate_operator",
    ),
    ".base": ("DestSpec", "SpoolFile", "operator_done"),
    ".join": (
        "HashJoinDriver", "JoinState", "OverflowExchange", "build_consumer",
        "close_output", "probe_consumer",
    ),
    ".scan": (
        "clustered_index_scan_operator", "exact_match_operator",
        "file_scan_operator", "nonclustered_index_scan_operator",
    ),
    ".store": ("host_sink_operator", "make_result_fragment", "store_operator"),
    ".update": (
        "append_operator", "delete_operator", "modify_operator",
        "reinsert_operator",
    ),
})
