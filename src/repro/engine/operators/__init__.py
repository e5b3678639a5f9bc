"""Gamma operator processes."""

from .aggregate import (
    combine_aggregate_operator,
    grouped_aggregate_operator,
    partial_aggregate_operator,
)
from .base import DestSpec, SpoolFile, operator_done
from .join import (
    HashJoinDriver,
    JoinState,
    OverflowExchange,
    build_consumer,
    close_output,
    probe_consumer,
)
from .scan import (
    clustered_index_scan_operator,
    exact_match_operator,
    file_scan_operator,
    nonclustered_index_scan_operator,
)
from .store import host_sink_operator, make_result_fragment, store_operator
from .update import (
    append_operator,
    delete_operator,
    modify_operator,
    reinsert_operator,
)

__all__ = [
    "DestSpec",
    "HashJoinDriver",
    "JoinState",
    "OverflowExchange",
    "SpoolFile",
    "append_operator",
    "build_consumer",
    "close_output",
    "clustered_index_scan_operator",
    "combine_aggregate_operator",
    "delete_operator",
    "exact_match_operator",
    "file_scan_operator",
    "grouped_aggregate_operator",
    "host_sink_operator",
    "make_result_fragment",
    "modify_operator",
    "nonclustered_index_scan_operator",
    "operator_done",
    "partial_aggregate_operator",
    "probe_consumer",
    "reinsert_operator",
    "store_operator",
]
