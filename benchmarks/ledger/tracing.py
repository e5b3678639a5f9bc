"""Per-layer attribution of one traced repetition.

Each timed cell of a traced repetition runs under its own
``cProfile.Profile``; every profiled function's self time and primitive
call count is credited to the layer that owns its source file.  Code
with no source file of its own — a C function (``sorted``,
``list.append``, a numpy ufunc) or a method generated at run time (a
dataclass ``__init__``) — is credited to the layer of the function that
called it.  Nothing inside ``src/`` is touched: the profiler is switched
on and off by the benchmark, around its calls into the program.

cProfile charges its per-call hook to the Python functions it observes
but not to work inside C code, so traced seconds are two to three times
real seconds and Python-call-heavy layers are over-weighted.  Read the
buckets as shares of a repetition, and read ``trace.overhead_x`` before
reading any of them as time.
"""

from __future__ import annotations

import cProfile
from typing import Any, Optional

#: Source path (relative to ``src/repro/``) -> layer.  A directory entry
#: ends in ``/`` and owns every file below it unless a longer entry
#: matches.  Everything else — the stdlib, numpy's Python code, the
#: ledger's own files, ``repro/__init__.py`` and ``errors.py`` — is
#: ``other``.
PATH_LAYERS = {
    "sim/kernel.py": "sim.kernel",
    "sim/events.py": "sim.kernel",
    "sim/resources.py": "sim.resources",
    "hardware/": "hardware",
    "storage/": "storage",
    "catalog/": "catalog",
    "workloads/": "workloads",
    "engine/ports.py": "engine.ports",
    "engine/split_table.py": "engine.ports",
    "engine/columnar.py": "engine.columnar",
    "engine/bitfilter.py": "engine.columnar",
    "engine/skew.py": "engine.columnar",
    "engine/operators/": "engine.operators",
    "engine/plan.py": "engine.planner",
    "engine/ir.py": "engine.planner",
    "engine/planner.py": "engine.planner",
    "engine/driver.py": "engine.planner",
    "engine/machine.py": "engine.planner",
    "engine/results.py": "engine.planner",
    "engine/scheduler.py": "engine.planner",
    "engine/node.py": "engine.node",
    "engine/loader.py": "engine.node",
    "engine/locks.py": "engine.control",
    "engine/admission.py": "engine.control",
    "engine/recovery.py": "engine.control",
    "teradata/": "teradata",
    "quel/": "quel",
    "metrics/": "metrics",
    "bench/": "bench",
}

LAYERS = tuple(dict.fromkeys(PATH_LAYERS.values())) + ("other",)

_PACKAGE_MARK = "/src/repro/"


def has_no_file(code: Any) -> bool:
    """True for a C function (cProfile names it with a string) and for
    code compiled from a string (``co_filename`` like ``<string>``)."""
    return isinstance(code, str) or code.co_filename.startswith("<")


def layer_of(filename: str) -> str:
    """The layer that owns ``filename`` (an absolute source path)."""
    at = filename.rfind(_PACKAGE_MARK)
    if at < 0:
        return "other"
    prefix = filename[at + len(_PACKAGE_MARK):]
    while prefix:
        layer = PATH_LAYERS.get(prefix)
        if layer is not None:
            return layer
        # "engine/operators/scan.py" -> "engine/operators/" -> "engine/"
        prefix = prefix[: prefix.rstrip("/").rfind("/") + 1]
    return "other"


class Tracer:
    """Profiles cells and keeps their spans in memory.

    Span tree: one ``repetition`` span (the id shared by everything under
    it), one ``cell`` span per timed call into a machine, and under each
    cell one ``layer`` span per layer that ran, carrying that layer's
    self seconds and primitive calls inside the cell.
    """

    def __init__(self, repetition_id: str) -> None:
        self.repetition_id = repetition_id
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.spans: list[dict[str, Any]] = [
            {"id": repetition_id, "parent": None, "kind": "repetition"}
        ]
        self._profile: Optional[cProfile.Profile] = None
        self._cache: dict[str, str] = {}

    def start(self) -> None:
        self._profile = cProfile.Profile()
        self._profile.enable()

    def stop(
        self, machine: str, name: str, start_s: float, end_s: float
    ) -> None:
        profile = self._profile
        assert profile is not None
        profile.disable()
        self._profile = None
        cell_id = f"{self.repetition_id}/{len(self.spans)}"
        self.spans.append({
            "id": cell_id, "parent": self.repetition_id, "kind": "cell",
            "machine": machine, "name": name,
            "start_s": start_s, "end_s": end_s,
        })
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        total_s, total_calls = 0.0, 0
        cache = self._cache
        for entry in profile.getstats():
            code = entry.code
            total_s += entry.inlinetime
            total_calls += entry.callcount - entry.reccallcount
            if has_no_file(code):
                continue  # credited to its callers, below
            layer = cache.get(code.co_filename)
            if layer is None:
                layer = cache[code.co_filename] = layer_of(code.co_filename)
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount - entry.reccallcount
            for callee in entry.calls or ():
                if has_no_file(callee.code):
                    self_s[layer] += callee.inlinetime
                    calls[layer] += callee.callcount - callee.reccallcount
        # What file-less code itself called has no layer to go to.
        self_s["other"] += total_s - sum(self_s.values())
        calls["other"] += total_calls - sum(calls.values())
        for layer, seconds in self_s.items():
            if not calls[layer]:
                continue
            self.self_s[layer] += seconds
            self.calls[layer] += calls[layer]
            self.spans.append({
                "id": f"{cell_id}/{layer}", "parent": cell_id,
                "kind": "layer", "layer": layer,
                "self_s": seconds, "calls": calls[layer],
            })
