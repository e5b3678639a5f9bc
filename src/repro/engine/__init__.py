"""The Gamma engine: machine, planner, scheduler, operators."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".admission": ("AdmissionController", "AdmissionError", "AdmissionTimeout"),
    ".bitfilter": ("BitVectorFilter",),
    ".locks": ("DeadlockError", "LockManager", "LockMode", "LockTimeoutError"),
    ".machine": ("GammaMachine",),
    ".node": ("ExecutionContext", "Node"),
    ".plan": (
        "AccessPath", "AggregateNode", "AppendTuple", "DeleteTuple",
        "ExactMatch", "JoinMode", "JoinNode", "ModifyTuple", "Query",
        "RangePredicate", "ScanNode", "TruePredicate",
    ),
    ".planner": ("Planner",),
    ".results": ("QueryResult",),
    ".split_table": ("Destination", "SplitTable"),
})
