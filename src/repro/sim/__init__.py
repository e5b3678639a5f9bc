"""Discrete-event simulation kernel (the NOSE operating-system substitute).

Public surface::

    from repro.sim import Simulation, Server, Store, Mailbox
    from repro.sim import Delay, Use, Acquire, Release, Put, Get, Join, WaitAll
    from repro.sim import UseRun  # a run of back-to-back Uses on one server
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".events": (
        "Acquire", "Delay", "Get", "Join", "Put", "Release", "Use", "UseRun",
        "WaitAll",
    ),
    ".kernel": ("Process", "Simulation", "run_to_completion"),
    ".resources": ("IntervalStats", "Mailbox", "Server", "Store"),
})
