"""Discrete-event simulation kernel (the NOSE operating-system substitute).

Public surface::

    from repro.sim import Simulation, Server, Store
    from repro.sim import Delay, Use, Acquire, Release, Put, Get, Join, WaitAll
    from repro.sim import UseRun  # a run of back-to-back Uses on one server
"""

from .events import (
    Acquire,
    Delay,
    Get,
    Join,
    Put,
    Release,
    Use,
    UseRun,
    WaitAll,
)
from .kernel import Process, Simulation, run_to_completion
from .resources import IntervalStats, Server, Store

__all__ = [
    "Acquire",
    "Delay",
    "Get",
    "IntervalStats",
    "Join",
    "Process",
    "Put",
    "Release",
    "Server",
    "Simulation",
    "Store",
    "Use",
    "UseRun",
    "WaitAll",
    "run_to_completion",
]
