"""The Gamma engine: machine, planner, scheduler, operators."""

from .admission import AdmissionController, AdmissionError, AdmissionTimeout
from .bitfilter import BitVectorFilter
from .locks import DeadlockError, LockManager, LockMode, LockTimeoutError
from .machine import GammaMachine
from .node import ExecutionContext, Node
from .plan import (
    AccessPath,
    AggregateNode,
    AppendTuple,
    DeleteTuple,
    ExactMatch,
    JoinMode,
    JoinNode,
    ModifyTuple,
    Query,
    RangePredicate,
    ScanNode,
    TruePredicate,
)
from .planner import Planner
from .results import QueryResult
from .split_table import Destination, SplitTable

__all__ = [
    "AccessPath",
    "AdmissionController",
    "AdmissionError",
    "AdmissionTimeout",
    "AggregateNode",
    "AppendTuple",
    "BitVectorFilter",
    "DeadlockError",
    "DeleteTuple",
    "Destination",
    "ExactMatch",
    "ExecutionContext",
    "GammaMachine",
    "LockManager",
    "LockMode",
    "LockTimeoutError",
    "JoinMode",
    "JoinNode",
    "ModifyTuple",
    "Node",
    "Planner",
    "Query",
    "QueryResult",
    "RangePredicate",
    "ScanNode",
    "SplitTable",
    "TruePredicate",
]
