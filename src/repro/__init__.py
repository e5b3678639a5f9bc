"""repro — a reproduction of the Gamma database machine performance study.

This package implements, from scratch, the systems evaluated in "A
Performance Analysis of the Gamma Database Machine" (DeWitt,
Ghandeharizadeh & Schneider, SIGMOD 1988): the Gamma shared-nothing
dataflow database machine, its WiSS storage substrate, the NOSE-style
process/communication layer (as a discrete-event simulation), the Teradata
DBC/1012 baseline, the Wisconsin benchmark workload, and a harness that
regenerates every table and figure of the paper.

Quick start::

    from repro import GammaMachine, Query, RangePredicate

    machine = GammaMachine()
    machine.load_wisconsin("tenk", 10_000, clustered_on="unique1")
    result = machine.run(
        Query.select("tenk", RangePredicate("unique1", 0, 99), into="out")
    )
    print(f"{result.response_time:.2f} modeled seconds")
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".catalog": ("Hashed", "RangePartitioned", "RoundRobin", "UniformRange"),
    ".engine": (
        "AccessPath", "AggregateNode", "AppendTuple", "DeleteTuple",
        "ExactMatch", "GammaMachine", "JoinMode", "JoinNode", "ModifyTuple",
        "Query", "QueryResult", "RangePredicate", "ScanNode", "TruePredicate",
    ),
    ".hardware": ("GammaConfig", "TeradataConfig"),
    ".metrics": ("MetricsRegistry", "TraceBuffer", "UtilisationReport"),
    ".quel": ("QuelSession",),
    ".workloads": ("generate_tuples", "selection_range", "wisconsin_schema"),
})
__all__ += ["__version__"]
