"""Benchmark harness: machine construction, relation loading, sweeps.

Scale control: the environment variable ``GAMMA_BENCH_SIZES`` (comma
separated tuple counts, default ``10000,100000``) picks the relation sizes
for Tables 1-3.  Set ``GAMMA_BENCH_SIZES=10000,100000,1000000`` to
regenerate the full paper tables (the million-tuple column takes several
minutes of wall time).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import replace
from typing import Any, Callable, Iterable, Optional

from ..engine import GammaMachine, Query
from ..engine.results import QueryResult
from ..hardware import KB, GammaConfig, TeradataConfig
from ..metrics import TraceBuffer
from ..teradata import TeradataMachine
from .matrix import Grid
from .reporting import results_dir


def bench_sizes() -> list[int]:
    """Relation sizes for the table experiments (env-tunable)."""
    raw = os.environ.get("GAMMA_BENCH_SIZES", "10000,100000")
    return [int(part) for part in raw.split(",") if part.strip()]


def seed_for(name: str, n: int) -> int:
    """Deterministic per-relation generator seed.

    Uses :func:`zlib.crc32` over a canonical string rather than the builtin
    ``hash()``: string hashing is salted per interpreter process
    (``PYTHONHASHSEED``), so ``hash``-derived seeds would differ between the
    parallel sweep workers and the parent — and between any two runs.
    """
    return (zlib.crc32(f"{name}:{n}".encode("utf-8")) % 100_000) + 1


def build_gamma(
    config: Optional[GammaConfig] = None,
    relations: Iterable[tuple[str, int, str]] = (),
) -> GammaMachine:
    """A Gamma machine with the requested Wisconsin relations.

    ``relations`` entries are ``(name, n, organisation)`` with organisation
    one of ``heap`` (no indices — the join/selection copies) or ``indexed``
    (clustered on unique1 + non-clustered on unique2, Section 5's second
    copy).
    """
    return _loaded(
        GammaMachine(config or GammaConfig.paper_default()), relations,
        clustered_on="unique1", secondary_on=["unique2"],
    )


def build_teradata(
    config: Optional[TeradataConfig] = None,
    relations: Iterable[tuple[str, int, str]] = (),
) -> TeradataMachine:
    """A Teradata machine with the requested Wisconsin relations.

    The DBC/1012 only has hash-key-ordered files; ``indexed`` adds the
    dense non-clustered secondary index on unique2.
    """
    return _loaded(
        TeradataMachine(config or TeradataConfig.paper_default()), relations,
        secondary_on=["unique2"],
    )


def _loaded(machine, relations: Iterable[tuple[str, int, str]], **indexed):
    """``machine`` with each ``(name, n, organisation)`` Wisconsin relation
    loaded; an ``indexed`` one gets the ``indexed`` load options."""
    for name, n, organisation in relations:
        if organisation not in ("heap", "indexed"):
            raise ValueError(f"unknown organisation {organisation!r}")
        options = indexed if organisation == "indexed" else {}
        machine.load_wisconsin(name, n, seed=seed_for(name, n), **options)
    return machine


def run_stored(machine, make_query, name=None, **options) -> QueryResult:
    """Run a stored-result query, then drop the result relation.

    ``make_query(into_name)`` builds the query.  Dropping keeps repeated
    sweeps memory-flat, and mirrors Gamma's cheap recovery story (dropping
    a result relation is just deleting its files).  ``options`` go to
    ``machine.run``: a :class:`~repro.metrics.TraceBuffer` as ``trace``
    records the run's execution timeline (Gamma machines only),
    ``profile=True`` attaches a :class:`~repro.metrics.QueryProfile` to
    the result.

    The result-relation name defaults to a per-machine sequence
    (``bench_result_0``, ``bench_result_1``, …): each grid point builds
    its machine fresh, so the names a point produces depend only on the
    point itself — not on how many benchmarks ran earlier in the process
    — which keeps store keys and regenerated artifacts stable.  (Names
    never influence simulated timings; the sequence is bookkeeping only.)
    """
    if name is None:
        index = getattr(machine, "_bench_result_seq", 0)
        machine._bench_result_seq = index + 1
        name = f"bench_result_{index}"
    result = machine.run(make_query(name), **options)
    machine.drop_relation(name)
    return result


def build_abprime(config: Optional[GammaConfig], n: int) -> GammaMachine:
    """A Gamma machine holding joinABprime's heap relations ``A`` (``n``
    tuples) and ``Bp`` (``n // 10``)."""
    return build_gamma(
        config, relations=[("A", n, "heap"), ("Bp", n // 10, "heap")]
    )


def join_memory_config(n: int, ratio: float, **fields: Any) -> GammaConfig:
    """The paper-default Gamma config with join memory for ``ratio`` times
    the hash table of joinABprime's ``n // 10``-tuple building relation
    (208-byte tuples plus bucket/pointer overhead; never under 64 KB),
    and any other config ``fields`` replaced."""
    base = GammaConfig.paper_default()
    smaller_bytes = (n // 10) * 208 * base.hash_table_overhead
    return replace(
        base.with_join_memory(max(64 * KB, int(ratio * smaller_bytes))),
        **fields,
    )


def instrumented_rerun(
    machine, make_query: Callable[[str], Query], stem: str
) -> float:
    """Re-run a stored-result query with a trace and the profiler attached.

    Writes ``<stem>.trace.json`` (Chrome/Perfetto format) and
    ``<stem>.profile.json`` (the EXPLAIN ANALYZE payload) under
    :func:`~repro.bench.reporting.results_dir` and returns the run's
    response time, which the caller's report holds bit-identical to the
    uninstrumented run.
    """
    trace = TraceBuffer()
    result = run_stored(machine, make_query, trace=trace, profile=True)
    trace.write(os.path.join(results_dir(), f"{stem}.trace.json"))
    with open(os.path.join(results_dir(), f"{stem}.profile.json"), "w") as fh:
        fh.write(result.profile.to_json())
    return result.response_time


def by_config(grid: Grid, results: list[Any], *fields: str) -> dict[Any, Any]:
    """Each point's result keyed by its config's ``fields`` values (the
    bare value for one field, a tuple for several)."""
    out: dict[Any, Any] = {}
    for config, result in zip(grid.points(), results):
        key = tuple(config[name] for name in fields)
        out[key if len(fields) > 1 else key[0]] = result
    return out


def series(
    grid: Grid, results: list[Any], field: str
) -> dict[Any, dict[Any, Any]]:
    """``{label: {config[field]: value}}`` for points whose result maps
    each label to a value (a dict, or a list of ``[label, value]``)."""
    out: dict[Any, dict[Any, Any]] = {}
    for x, result in by_config(grid, results, field).items():
        for label, value in dict(result).items():
            out.setdefault(label, {})[x] = value
    return out


def speedup_series(times: dict[int, float], reference: int) -> dict[int, float]:
    """Speedup curve relative to ``times[reference]`` (Figures 2/4/11/12).

    The paper plots speedup against a reference configuration (1 processor
    for selections; 2 processors for joins, to factor out short-circuit
    skew): ``speedup(k) = time(reference) / time(k)``.
    """
    base = times[reference]
    return {k: base / v for k, v in times.items()}
