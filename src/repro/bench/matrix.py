"""Declarative experiment matrix: grids of configs, run once, stored.

The paper's evidence is a grid — machine × relation size × page size ×
index organisation × MPL × skew — and every benchmark in this repo is a
slice of it.  This module replaces the per-figure ad-hoc sweep loops
with three small objects:

* :class:`Axis` — one named dimension and its values.
* :class:`Grid` — the cartesian product of axes over a base config,
  with an optional ``derive`` hook for fields computed from the whole
  grid (e.g. "trace the widest configuration").
* :class:`ExperimentSpec` — a named, versioned experiment: a grid
  builder, a picklable **point function** (config dict in, JSON-safe
  result out), and a **summarise** function that folds the per-point
  results into a :class:`~repro.bench.reporting.Report`.

:func:`run_experiment` ties them to the persistent
:class:`~repro.bench.store.ResultStore`: every grid point already in
the store is *not* re-executed (resume), missing points fan out through
:func:`~repro.bench.sweep.run_sweep`, fresh results are appended, and
the report is summarised from stored results — so a warm store
regenerates every table byte-identically while executing zero points.
The store is the one machine-readable record of a grid point; the
report is its human-readable summary.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..errors import BenchmarkError
from .reporting import Report
from .store import Record, ResultStore
from .sweep import run_sweep


@dataclass(frozen=True)
class Axis:
    """One swept dimension: a name and its ordered values."""

    name: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise BenchmarkError("axis needs a name")
        if not self.values:
            raise BenchmarkError(f"axis {self.name!r} needs at least one value")


@dataclass(frozen=True)
class Grid:
    """A config grid: base fields × the cartesian product of the axes.

    ``derive`` (optional) maps each raw point dict to its final config —
    the place for fields that depend on the whole grid, like "profile
    only the widest configuration".  Derived fields are part of the
    config (and so of its store key): the point function stays a pure
    function of its config dict.
    """

    axes: tuple[Axis, ...]
    base: dict[str, Any] = field(default_factory=dict)
    derive: Optional[Callable[[dict[str, Any]], dict[str, Any]]] = None

    def __post_init__(self) -> None:
        names = [axis.name for axis in self.axes]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise BenchmarkError(f"duplicate axes: {sorted(dupes)}")
        clashes = set(names) & set(self.base)
        if clashes:
            raise BenchmarkError(
                f"axes shadow base fields: {sorted(clashes)}"
            )

    def points(self) -> list[dict[str, Any]]:
        """Every config dict, in axis-major (row-major) order."""
        out: list[dict[str, Any]] = []
        for combo in itertools.product(*(a.values for a in self.axes)):
            config = dict(self.base)
            config.update(zip((a.name for a in self.axes), combo))
            if self.derive is not None:
                config = self.derive(config)
            out.append(config)
        return out

    def axis(self, name: str) -> Axis:
        for ax in self.axes:
            if ax.name == name:
                return ax
        raise BenchmarkError(f"no axis named {name!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One named, versioned experiment over a config grid.

    Attributes:
        name: Store/report id, e.g. ``fig05_06_pagesize_select``.
        label: EXPERIMENTS.md section label, e.g. ``Figures 5-6``.
        kind: ``table`` / ``figure`` / ``ablation`` / ``extension``.
        grid: ``grid(**overrides) -> Grid`` — overrides are the
            experiment's tunable parameters (sizes, site counts, …);
            defaults reproduce the committed full-scale reports.
        point: Module-level picklable function, config dict → JSON-safe
            result (it crosses a process boundary under ``run_sweep``).
        summarise: ``summarise(grid, results) -> Report`` with
            ``results`` aligned to ``grid.points()``.
        version: Code-version tag.  Bump when the point function's
            semantics change: stored runs of older versions stop
            matching and the grid re-executes.
    """

    name: str
    label: str
    kind: str
    grid: Callable[..., Grid]
    point: Callable[[dict[str, Any]], Any]
    summarise: Callable[[Grid, list[Any]], Report]
    version: str = "v1"


@dataclass
class MatrixRun:
    """Outcome of one :func:`run_experiment` invocation.

    ``results`` are the raw point results, aligned with
    ``grid.points()`` — what the store holds for each point.
    """

    spec: ExperimentSpec
    grid: Grid
    report: Report
    results: list[Any]
    records: list[Optional[Record]]
    executed: int
    cached: int

    @property
    def total(self) -> int:
        return self.executed + self.cached


def _timed_point(
    point: Callable[[dict[str, Any]], Any], config: dict[str, Any]
) -> tuple[float, Any]:
    """Wrapper run in sweep workers: wall-clock the point function.

    Module-level (with the point function as data) so the pair stays
    picklable for :func:`run_sweep`'s process pool.
    """
    start = time.perf_counter()
    result = point(config)
    return time.perf_counter() - start, result


def run_experiment(
    spec: ExperimentSpec,
    store: Optional[ResultStore] = None,
    *,
    force: bool = False,
    jobs: Optional[int] = None,
    **overrides: Any,
) -> MatrixRun:
    """Run (or resume) one experiment's grid and summarise its report.

    With a ``store``, grid points whose ``(name, version, config-hash)``
    key is already present are **not** re-executed — their stored
    results feed the summary directly.  ``force=True`` re-executes every
    point and replaces the stored records.  Without a ``store`` the grid
    always runs fully in-memory (toy-scale tests, exploratory calls).

    ``overrides`` are forwarded to ``spec.grid``; note that non-default
    parameters change the configs and therefore the store keys, so a
    toy-scale run never collides with the committed full-scale results.
    """
    import functools

    grid = spec.grid(**overrides)
    configs = grid.points()
    hits: list[Optional[Record]] = [None] * len(configs)
    if store is not None and not force:
        for i, config in enumerate(configs):
            hits[i] = store.get(spec.name, spec.version, config)
    missing = [i for i, hit in enumerate(hits) if hit is None]

    outcomes = run_sweep(
        functools.partial(_timed_point, spec.point),
        [configs[i] for i in missing],
        jobs=jobs,
    )
    results: list[Any] = [
        None if hit is None else hit.result for hit in hits
    ]
    for i, (wall_s, result) in zip(missing, outcomes):
        results[i] = result
        if store is not None:
            hits[i] = store.append(
                spec.name, spec.version, configs[i], result,
                wall_s=wall_s, replace=force,
            )

    return MatrixRun(
        spec=spec, grid=grid, report=spec.summarise(grid, results),
        results=results,
        records=hits, executed=len(missing), cached=len(configs) - len(missing),
    )
