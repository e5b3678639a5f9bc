"""Experiment definitions: one spec per table/figure of the paper.

Each experiment is an :class:`~repro.bench.matrix.ExperimentSpec`: a
declarative config grid, a picklable *point function* (config dict in,
JSON-safe measurement out — it crosses a process boundary under
:func:`~repro.bench.sweep.run_sweep` and lands verbatim in the
persistent :class:`~repro.bench.store.ResultStore`), and a *summarise*
function that folds the stored per-point results into the paper-style
:class:`~repro.bench.reporting.Report`, re-asserting the paper's
qualitative claims as shape checks.

A spec is run by :func:`~repro.bench.matrix.run_experiment` — from the
command line as ``python -m repro matrix run|report <name>`` — with the
spec's grid parameters as keyword overrides.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import Any, Callable, Optional, Sequence

from ..engine import JoinMode, Query
from ..engine.plan import AccessPath
from ..hardware import KB, GammaConfig
from ..metrics import peak_utilisation
from ..workloads.queries import (
    join_abprime,
    join_aselb,
    join_cselaselb,
    selection_query,
    single_tuple_select,
    update_suite,
)
from .harness import (
    bench_sizes,
    build_abprime,
    build_gamma,
    build_teradata,
    by_config,
    instrumented_rerun,
    join_memory_config,
    run_stored,
    series,
    speedup_series,
)
from .matrix import Axis, ExperimentSpec, Grid
from .recorded import TABLE1_SELECTIONS, TABLE2_JOINS, TABLE3_UPDATES
from .reporting import Report, ratio_note


# ---------------------------------------------------------------------------
# Tables 1-3 — the paper's published seconds beside the measured ones
# ---------------------------------------------------------------------------

def _size_grid(sizes: Optional[Sequence[int]] = None) -> Grid:
    """Tables 1-3: one point per relation size (default
    ``GAMMA_BENCH_SIZES``), each measuring every row on both machines."""
    return Grid(axes=(Axis("n", tuple(sizes or bench_sizes())),))


def _paper_table(
    name: str,
    title: str,
    paper: dict[str, dict[int, dict[str, Optional[float]]]],
    grid: Grid,
    results: list[Any],
    ratio: bool = True,
) -> tuple[Report, Callable[..., float], Callable[[str], None]]:
    """One paper table's report, measured-cell lookup and scoped check.

    Each point's result is a list of ``[row label, machine, seconds]``.
    The report has a row per (paper row, size) with both machines' paper
    and measured seconds, plus, with ``ratio``, Gamma's measured/paper
    ratio.  The lookup is ``t(label, n, machine="gamma")``.
    ``gamma_faster(claim)`` checks that Gamma beats Teradata on exactly
    the cells where the paper's own numbers have Gamma faster, and names
    that scope in the check text.
    """
    sizes = grid.axis("n").values
    measured: dict[tuple[str, int, str], float] = {
        (label, n, machine): seconds
        for n, rows in by_config(grid, results, "n").items()
        for label, machine, seconds in rows
    }
    columns = ["query", "tuples", "teradata paper", "teradata",
               "gamma paper", "gamma"]
    if ratio:
        columns.append("gamma ratio")
    report = Report(name=name, title=title, columns=columns)
    for label, per_size in paper.items():
        for n in sizes:
            cell = per_size[n]
            gm = measured.get((label, n, "gamma"))
            row = [label, n, cell["teradata"],
                   measured.get((label, n, "teradata")), cell["gamma"], gm]
            if ratio:
                row.append(None if gm is None
                           else ratio_note(gm, cell["gamma"]))
            report.add_row(*row)

    def t(label: str, n: int, machine: str = "gamma") -> float:
        return measured[(label, n, machine)]

    def gamma_faster(claim: str) -> None:
        common = [(label, n) for label in paper for n in sizes
                  if paper[label][n]["teradata"] is not None]
        faster = [(label, n) for label, n in common
                  if paper[label][n]["gamma"] < paper[label][n]["teradata"]]
        scope = f"{len(faster)} of {len(common)} two-machine cells"
        slower = [f"{label} at {n:,}" for label, n in common
                  if (label, n) not in faster]
        if slower:
            scope += "; not " + ", ".join(slower)
        report.check(
            f"{claim} wherever the paper has it faster ({scope})",
            all(t(label, n) < t(label, n, "teradata") for label, n in faster),
        )

    return report, t, gamma_faster


def _table1_point(config: dict[str, Any]) -> list[list[Any]]:
    """Grid point: both machines at one relation size (picklable)."""
    n = config["n"]
    measured: list[list[Any]] = []
    rels = [(f"heap{n}", n, "heap"), (f"idx{n}", n, "indexed")]
    gamma, teradata = build_gamma(relations=rels), build_teradata(relations=rels)
    runs = {  # label: (relation, selectivity, attribute)
        "1% nonindexed selection": (f"heap{n}", 0.01, "unique2"),
        "10% nonindexed selection": (f"heap{n}", 0.10, "unique2"),
        "1% selection using non-clustered index": (f"idx{n}", 0.01, "unique2"),
        "10% selection using non-clustered index": (f"idx{n}", 0.10, "unique2"),
        "1% selection using clustered index": (f"idx{n}", 0.01, "unique1"),
        "10% selection using clustered index": (f"idx{n}", 0.10, "unique1"),
    }
    for label, (relation, sel, attr) in runs.items():
        def builder(into, r=relation, s=sel, a=attr):
            return selection_query(r, n, s, attr=a, into=into)

        measured.append(
            [label, "gamma", run_stored(gamma, builder).response_time]
        )
        if attr != "unique1":  # the DBC/1012 has no clustered indices
            measured.append(
                [label, "teradata",
                 run_stored(teradata, builder).response_time]
            )
    # Single-tuple select returns to the host.
    single = single_tuple_select(f"idx{n}", n // 2)
    for machine, tag in ((gamma, "gamma"), (teradata, "teradata")):
        measured.append(
            ["single tuple select", tag, machine.run(single).response_time]
        )
    return measured


def _table1_summarise(grid: Grid, results: list[Any]) -> Report:
    report, t, gamma_faster = _paper_table(
        "table1_selection", "Table 1 — Selection Queries (seconds)",
        TABLE1_SELECTIONS, grid, results,
    )
    sizes = grid.axis("n").values
    big = max(sizes)
    small = min(sizes)
    if len(sizes) > 1:
        report.check(
            "execution time scales linearly with relation size (Gamma)",
            0.5 * (big / small)
            <= t("1% nonindexed selection", big)
            / t("1% nonindexed selection", small)
            <= 1.5 * (big / small),
        )
    report.check(
        "clustered index is the fastest organisation (Gamma)",
        t("1% selection using clustered index", big)
        < t("1% selection using non-clustered index", big)
        < t("1% nonindexed selection", big),
    )
    report.check(
        "10% non-clustered-index selection equals a file scan"
        " (optimizer picks the segment scan)",
        abs(t("10% selection using non-clustered index", big)
            - t("10% nonindexed selection", big))
        < 0.25 * t("10% nonindexed selection", big),
    )
    gamma_faster("Gamma beats Teradata")
    report.check(
        "Teradata's non-clustered index barely helps at 10%"
        " (hash-ordered dense index)",
        abs(t("10% selection using non-clustered index", big, "teradata")
            - t("10% nonindexed selection", big, "teradata"))
        < 0.25 * t("10% nonindexed selection", big, "teradata"),
    )
    return report


TABLE1_SPEC = ExperimentSpec(
    name="table1_selection", label="Table 1", kind="table",
    grid=_size_grid, point=_table1_point, summarise=_table1_summarise,
)


def _table2_point(config: dict[str, Any]) -> list[list[Any]]:
    """Grid point: the six join variants at one size (picklable)."""
    n = config["n"]
    measured: list[list[Any]] = []
    tenth = n // 10
    rels = [
        (f"A{n}", n, "heap"), (f"B{n}", n, "heap"),
        (f"Bp{n}", tenth, "heap"), (f"C{n}", tenth, "heap"),
    ]
    gamma, teradata = build_gamma(relations=rels), build_teradata(relations=rels)
    for key in (False, True):
        attrs = "key attributes" if key else "non-key attributes"
        builders = {
            "joinABprime": lambda into, k=key: join_abprime(
                f"A{n}", f"Bp{n}", key=k, into=into),
            "joinAselB": lambda into, k=key: join_aselb(
                f"A{n}", f"B{n}", n, key=k, into=into),
            "joinCselAselB": lambda into, k=key: join_cselaselb(
                f"A{n}", f"B{n}", f"C{n}", n, key=k, into=into),
        }
        for query, builder in builders.items():
            for machine, tag in ((gamma, "gamma"), (teradata, "teradata")):
                measured.append([f"{query} ({attrs})", tag,
                                 run_stored(machine, builder).response_time])
    return measured


def _table2_summarise(grid: Grid, results: list[Any]) -> Report:
    report, t, gamma_faster = _paper_table(
        "table2_join",
        "Table 2 — Join Queries (seconds); Gamma Remote, 4 KB pages",
        TABLE2_JOINS, grid, results,
    )
    big = max(grid.axis("n").values)
    report.check(
        "Gamma: joinAselB FASTER than joinABprime (selection propagation)",
        t("joinAselB (non-key attributes)", big)
        < t("joinABprime (non-key attributes)", big),
    )
    report.check(
        "Teradata: joinABprime FASTER than joinAselB (no propagation)",
        t("joinABprime (non-key attributes)", big, "teradata")
        < t("joinAselB (non-key attributes)", big, "teradata"),
    )
    report.check(
        "Teradata gains 25-50% on key-attribute joins"
        " (redistribution skipped)",
        0.40
        <= t("joinABprime (key attributes)", big, "teradata")
        / t("joinABprime (non-key attributes)", big, "teradata")
        <= 0.90,
    )
    report.check(
        "Gamma key-attribute joins cost about the same as non-key"
        " (Remote mode still redistributes both relations)",
        0.80
        <= t("joinABprime (key attributes)", big)
        / t("joinABprime (non-key attributes)", big)
        <= 1.10,
    )
    gamma_faster("Gamma beats Teradata on joins")
    return report


TABLE2_SPEC = ExperimentSpec(
    name="table2_join", label="Table 2", kind="table",
    grid=_size_grid, point=_table2_point, summarise=_table2_summarise,
)


def _table3_point(config: dict[str, Any]) -> list[list[Any]]:
    """Grid point: the update mix at one size (picklable)."""
    n = config["n"]
    measured: list[list[Any]] = []
    rels = [(f"heap{n}", n, "heap"), (f"idx{n}", n, "indexed")]
    gamma, teradata = build_gamma(relations=rels), build_teradata(relations=rels)
    heap_suite = update_suite(f"heap{n}", n)
    idx_suite = update_suite(f"idx{n}", n)
    for machine, tag in ((gamma, "gamma"), (teradata, "teradata")):
        for label in TABLE3_UPDATES:
            suite = heap_suite if label == "append 1 tuple (no indices)" else idx_suite
            measured.append(
                [label, tag, machine.update(suite[label]).response_time]
            )
    return measured


def _table3_summarise(grid: Grid, results: list[Any]) -> Report:
    report, t, gamma_faster = _paper_table(
        "table3_update", "Table 3 — Update Queries (seconds)",
        TABLE3_UPDATES, grid, results, ratio=False,
    )
    big = max(grid.axis("n").values)
    report.check(
        "append through an index costs more than a bare append"
        " (deferred-update file)",
        t("append 1 tuple (one index)", big)
        > t("append 1 tuple (no indices)", big),
    )
    report.check(
        "modifying the key attribute is the most expensive update"
        " (tuple relocation + index maintenance)",
        t("modify 1 tuple (key attribute)", big)
        == max(t(label, big) for label in TABLE3_UPDATES),
    )
    gamma_faster(
        "Gamma is faster than Teradata on updates (partial recovery vs"
        " full logging)"
    )
    return report


TABLE3_SPEC = ExperimentSpec(
    name="table3_update", label="Table 3", kind="table",
    grid=_size_grid, point=_table3_point, summarise=_table3_summarise,
)


def _procs_grid(
    n: int = 100_000, processor_counts: Sequence[int] = (1, 2, 4, 8)
) -> Grid:
    """Processor counts swept over ``n``-tuple relations (Figures 3-4:
    indexed selections, incl. the 0% slowdown anomaly; Figures 9-12)."""
    return Grid(
        axes=(Axis("procs", tuple(processor_counts)),), base={"n": n},
    )


# ---------------------------------------------------------------------------
# Figures 1-2 — non-indexed selection speedup
# ---------------------------------------------------------------------------

_FIG01_02_SELECTIVITIES = (0.0, 0.01, 0.10)


def _heap_selections(
    machine_config: GammaConfig, n: int, selectivities: Sequence[float]
) -> tuple[Any, list[tuple[float, Any]]]:
    """A machine holding the ``n``-tuple heap relation ``rel``, and each
    selectivity's non-indexed selection result on it (Figures 1-2, 5-6)."""
    machine = build_gamma(machine_config, relations=[("rel", n, "heap")])
    return machine, [
        (sel, run_stored(machine, lambda into, s=sel: selection_query(
            "rel", n, s, into=into)))
        for sel in selectivities
    ]


def _fig01_02_point(config: dict[str, Any]) -> dict[str, Any]:
    """Grid point: one processor count, all selectivities (picklable)."""
    n = config["n"]
    machine, runs = _heap_selections(
        GammaConfig.paper_default().with_sites(config["procs"]), n,
        _FIG01_02_SELECTIVITIES,
    )
    sels = [[sel, r.response_time, r.utilisations] for sel, r in runs]
    traced_time: Optional[float] = None
    if config["traced"]:
        traced_time = instrumented_rerun(
            machine, lambda into: selection_query("rel", n, 0.01, into=into),
            "fig01_02_select_speedup",
        )
    return {"sels": sels, "traced_time": traced_time}


def _fig01_02_grid(
    n: int = 100_000, processor_counts: Sequence[int] = (1, 2, 4, 8)
) -> Grid:
    """Response time and speedup of 0/1/10% selections vs processors.

    Besides the paper's two figures, each row reports the busiest node's
    CPU/disk/network busy fractions, and the widest configuration's 1%
    selection is re-run with a :class:`~repro.metrics.TraceBuffer` and
    the query profiler attached to (a) export
    ``fig01_02_select_speedup.trace.json`` and ``.profile.json`` next to
    the markdown report and (b) assert that instrumentation leaves the
    simulated timeline bit-identical.
    """
    widest = max(processor_counts)

    def derive(config: dict[str, Any]) -> dict[str, Any]:
        # Two names for one flag: both are in the stored configs' keys.
        config["traced"] = config["procs"] == widest
        config["profiled"] = config["procs"] == widest
        return config

    return replace(_procs_grid(n, processor_counts), derive=derive)


def _fig01_02_summarise(grid: Grid, results: list[Any]) -> Report:
    n = grid.base["n"]
    processor_counts = grid.axis("procs").values
    report = Report(
        name="fig01_02_select_speedup",
        title=f"Figures 1-2 — Non-indexed selections on {n:,} tuples"
              " vs processors with disks",
        columns=["selectivity", "processors", "response (s)", "speedup",
                 "cpu util", "disk util", "net util"],
    )
    selectivities = _FIG01_02_SELECTIVITIES
    times: dict[float, dict[int, float]] = {s: {} for s in selectivities}
    utils: dict[tuple[float, int], dict[str, float]] = {}
    traced_pair: Optional[tuple[float, float]] = None
    for procs, point in by_config(grid, results, "procs").items():
        for sel, response, putils in point["sels"]:
            times[sel][procs] = response
            utils[(sel, procs)] = putils
        if point["traced_time"] is not None:
            traced_pair = (times[0.01][procs], point["traced_time"])
    for sel in selectivities:
        speedups = speedup_series(times[sel], min(processor_counts))
        for procs in processor_counts:
            u = utils[(sel, procs)]
            report.add_row(f"{sel:.0%}", procs, times[sel][procs],
                           speedups[procs],
                           peak_utilisation(u, "cpu"),
                           peak_utilisation(u, "disk"),
                           peak_utilisation(u, "nic"))

    lo, hi = min(processor_counts), max(processor_counts)
    ideal = hi / lo
    report.check(
        "the disk is the saturated bottleneck at every scale"
        " (busiest disk >= 90% busy and above every CPU/NIC)",
        all(
            peak_utilisation(utils[(sel, procs)], "disk") >= 0.90
            and peak_utilisation(utils[(sel, procs)], "disk")
            > max(peak_utilisation(utils[(sel, procs)], "cpu"),
                  peak_utilisation(utils[(sel, procs)], "nic"))
            for sel in selectivities for procs in processor_counts
        ),
    )
    if traced_pair is not None:
        report.check(
            "trace/profile collection does not perturb the simulated"
            " timeline (bit-identical response time with instrumentation"
            " on)",
            traced_pair[0] == traced_pair[1],
        )
    for sel in selectivities:
        report.check(
            f"{sel:.0%} selection speeds up with processors",
            times[sel][hi] < times[sel][lo],
        )
    report.check(
        "0% and 1% speedups are near-linear (>= 70% of ideal)",
        all(
            speedup_series(times[s], lo)[hi] >= 0.7 * ideal
            for s in (0.0, 0.01)
        ),
    )
    report.check(
        "the 10% query keeps a persistent penalty over 0% at full scale"
        " (result shipping/storing does not vanish with parallelism)",
        times[0.10][hi] > 1.08 * times[0.0][hi],
    )
    report.check(
        "10% speedup does not beat 0% by a meaningful margin",
        speedup_series(times[0.10], lo)[hi]
        <= 1.05 * speedup_series(times[0.0], lo)[hi],
    )
    report.notes.append(
        "Residual: the paper's Figure 2 shows the 10% speedup visibly"
        " below 0% because disk and network DMA shared the VAX's bus;"
        " this model keeps them independent, so the 10% penalty stays"
        " proportional instead of growing with the processor count."
    )
    return report


FIG01_02_SPEC = ExperimentSpec(
    name="fig01_02_select_speedup", label="Figures 1-2", kind="figure",
    grid=_fig01_02_grid, point=_fig01_02_point,
    summarise=_fig01_02_summarise,
)


# ---------------------------------------------------------------------------
# Figures 3-4 — indexed selection speedup
# ---------------------------------------------------------------------------

_FIG03_04_VARIANTS = {
    "1% clustered": ("unique1", 0.01, None),
    "10% clustered": ("unique1", 0.10, None),
    "1% non-clustered": ("unique2", 0.01, None),
    "0% non-clustered": ("unique2", 0.0, AccessPath.NONCLUSTERED_INDEX),
}


def _indexed_times(
    machine_config: GammaConfig,
    n: int,
    variants: dict[str, tuple[str, float, Optional[AccessPath]]],
) -> dict[str, float]:
    """Response time of each ``label: (attr, selectivity, forced path)``
    selection on an ``n``-tuple relation clustered on unique1 with a
    non-clustered index on unique2 (Figures 3-4 and 7-8)."""
    machine = build_gamma(machine_config, relations=[("rel", n, "indexed")])
    return {
        label: run_stored(
            machine,
            lambda into, a=attr, s=sel, f=forced: selection_query(
                "rel", n, s, attr=a, into=into, forced_path=f),
        ).response_time
        for label, (attr, sel, forced) in variants.items()
    }


def _fig03_04_point(config: dict[str, Any]) -> dict[str, float]:
    """Grid point: indexed-selection variants at one width (picklable)."""
    return _indexed_times(
        GammaConfig.paper_default().with_sites(config["procs"]),
        config["n"], _FIG03_04_VARIANTS,
    )


def _fig03_04_summarise(grid: Grid, results: list[Any]) -> Report:
    n = grid.base["n"]
    processor_counts = grid.axis("procs").values
    report = Report(
        name="fig03_04_indexed_speedup",
        title=f"Figures 3-4 — Indexed selections on {n:,} tuples"
              " vs processors with disks",
        columns=["query", "processors", "response (s)", "speedup"],
    )
    variants = _FIG03_04_VARIANTS
    times = series(grid, results, "procs")
    for label in variants:
        speedups = speedup_series(times[label], min(processor_counts))
        for procs in processor_counts:
            report.add_row(label, procs, times[label][procs], speedups[procs])

    lo, hi = min(processor_counts), max(processor_counts)
    report.check(
        "0% indexed selection SLOWS DOWN as processors are added"
        " (operator start-up dominates 1-2 index I/Os)",
        times["0% non-clustered"][hi] > times["0% non-clustered"][lo],
    )
    report.check(
        "1% non-clustered achieves the best speedup of the indexed queries"
        " (random seeks throttle each disk)",
        speedup_series(times["1% non-clustered"], lo)[hi]
        >= max(
            speedup_series(times["1% clustered"], lo)[hi],
            speedup_series(times["10% clustered"], lo)[hi],
        ),
    )
    report.check(
        "clustered selections speed up sub-linearly",
        speedup_series(times["1% clustered"], lo)[hi] < 0.9 * hi / lo,
    )
    return report


FIG03_04_SPEC = ExperimentSpec(
    name="fig03_04_indexed_speedup", label="Figures 3-4", kind="figure",
    grid=_procs_grid, point=_fig03_04_point,
    summarise=_fig03_04_summarise,
)


# ---------------------------------------------------------------------------
# Figures 5-6 — page size vs non-indexed selections
# ---------------------------------------------------------------------------

_FIG05_06_SELECTIVITIES = (0.0, 0.01, 0.10, 1.0)


def _fig05_06_point(config: dict[str, Any]) -> list[list[float]]:
    """Grid point: one page size, all selectivities (picklable)."""
    _machine, runs = _heap_selections(
        GammaConfig.paper_default().with_page_size(config["page_kb"] * KB),
        config["n"], _FIG05_06_SELECTIVITIES,
    )
    return [[sel, r.response_time] for sel, r in runs]


def _page_grid(
    n: int = 100_000, page_sizes_kb: Sequence[int] = (2, 4, 8, 16, 32)
) -> Grid:
    """Disk page sizes swept over ``n``-tuple relations on the default
    8 disk sites (Figures 5-6, 7-8 and 14-15)."""
    return Grid(
        axes=(Axis("page_kb", tuple(page_sizes_kb)),), base={"n": n},
    )


def _fig05_06_summarise(grid: Grid, results: list[Any]) -> Report:
    n = grid.base["n"]
    page_sizes_kb = grid.axis("page_kb").values
    report = Report(
        name="fig05_06_pagesize_select",
        title=f"Figures 5-6 — Non-indexed selections on {n:,} tuples"
              " vs disk page size (8 processors)",
        columns=["selectivity", "page KB", "response (s)", "speedup vs 2KB"],
    )
    selectivities = _FIG05_06_SELECTIVITIES
    times = series(grid, results, "page_kb")
    for sel in selectivities:
        base = times[sel][min(page_sizes_kb)]
        for kb in page_sizes_kb:
            report.add_row(f"{sel:.0%}", kb, times[sel][kb],
                           base / times[sel][kb])

    small, big = min(page_sizes_kb), max(page_sizes_kb)
    report.check(
        "2 KB pages are disk bound: growing the page helps the 0% query",
        times[0.0][small] > 1.3 * times[0.0][big],
    )
    report.check(
        "by 16 KB the system is CPU bound: 16->32 KB changes 0% little",
        abs(times[0.0][16] - times[0.0][32]) < 0.1 * times[0.0][16],
    )
    report.check(
        "the 10%-over-0% gap widens with page size (network interface"
        " becomes the bottleneck as tuples are produced faster)",
        (times[0.10][big] - times[0.0][big]) / times[0.0][big]
        > (times[0.10][small] - times[0.0][small]) / times[0.0][small],
    )
    return report


FIG05_06_SPEC = ExperimentSpec(
    name="fig05_06_pagesize_select", label="Figures 5-6", kind="figure",
    grid=_page_grid, point=_fig05_06_point,
    summarise=_fig05_06_summarise,
)


# ---------------------------------------------------------------------------
# Figures 7-8 — page size vs indexed selections
# ---------------------------------------------------------------------------

_FIG07_08_VARIANTS = {
    "1% non-clustered": ("unique2", 0.01, AccessPath.NONCLUSTERED_INDEX),
    "1% clustered": ("unique1", 0.01, None),
    "10% clustered": ("unique1", 0.10, None),
}


def _fig07_08_point(config: dict[str, Any]) -> dict[str, float]:
    """Grid point: indexed variants at one page size (picklable) — index
    fan-out against transfer time."""
    return _indexed_times(
        GammaConfig.paper_default().with_page_size(config["page_kb"] * KB),
        config["n"], _FIG07_08_VARIANTS,
    )


def _fig07_08_summarise(grid: Grid, results: list[Any]) -> Report:
    n = grid.base["n"]
    page_sizes_kb = grid.axis("page_kb").values
    report = Report(
        name="fig07_08_pagesize_indexed",
        title=f"Figures 7-8 — Indexed selections on {n:,} tuples"
              " vs disk page size (8 processors)",
        columns=["query", "page KB", "response (s)"],
    )
    variants = _FIG07_08_VARIANTS
    times = series(grid, results, "page_kb")
    for label in variants:
        for kb in page_sizes_kb:
            report.add_row(label, kb, times[label][kb])

    small, big = min(page_sizes_kb), max(page_sizes_kb)
    report.check(
        "any page-size increase degrades the 1% non-clustered selection"
        " (one random transfer per tuple; transfer time grows)",
        times["1% non-clustered"][big] > times["1% non-clustered"][small],
    )
    report.check(
        "the 10% clustered selection keeps improving with page size",
        times["10% clustered"][big] < times["10% clustered"][small],
    )
    report.check(
        "the 1% clustered selection stops improving past 16 KB",
        times["1% clustered"][32] >= 0.95 * times["1% clustered"][16],
    )
    return report


FIG07_08_SPEC = ExperimentSpec(
    name="fig07_08_pagesize_indexed", label="Figures 7-8", kind="figure",
    grid=_page_grid, point=_fig07_08_point,
    summarise=_fig07_08_summarise,
)


# ---------------------------------------------------------------------------
# Figures 9-12 — join placement vs processors
# ---------------------------------------------------------------------------

_FIG09_12_MODES = (JoinMode.LOCAL, JoinMode.REMOTE, JoinMode.ALLNODES)


def _fig09_12_point(config: dict[str, Any]) -> list[list[Any]]:
    """Grid point: every placement × join-attr pair at one width."""
    n, procs = config["n"], config["procs"]
    machine = build_abprime(GammaConfig.paper_default().with_sites(procs), n)
    out: list[list[Any]] = []
    for key in (True, False):
        for mode in _FIG09_12_MODES:
            out.append([key, mode.value, run_stored(
                machine,
                lambda into, k=key, md=mode: join_abprime(
                    "A", "Bp", key=k, mode=md, into=into),
            ).response_time])
    return out


def _fig09_12_summarise(grid: Grid, results: list[Any]) -> Report:
    n = grid.base["n"]
    processor_counts = grid.axis("procs").values
    report = Report(
        name="fig09_12_join_speedup",
        title=f"Figures 9-12 — joinABprime ({n:,} x {n // 10:,}) vs"
              " processors, by placement mode",
        columns=["join attr", "mode", "processors", "response (s)",
                 "speedup vs 2"],
    )
    modes = _FIG09_12_MODES
    times: dict[tuple[bool, JoinMode], dict[int, float]] = {}
    for procs, rows in by_config(grid, results, "procs").items():
        for key, mode_value, response in rows:
            times.setdefault((key, JoinMode(mode_value)), {})[procs] = response
    reference = min(processor_counts)
    for key in (True, False):
        for mode in modes:
            curve = times[(key, mode)]
            speedups = speedup_series(curve, reference)
            for procs in processor_counts:
                report.add_row(
                    "key" if key else "non-key", mode.value, procs,
                    curve[procs], speedups[procs],
                )

    hi = max(processor_counts)
    report.check(
        "key attributes: Local fastest, then Allnodes, then Remote",
        times[(True, JoinMode.LOCAL)][hi]
        < times[(True, JoinMode.ALLNODES)][hi]
        < times[(True, JoinMode.REMOTE)][hi],
    )
    report.check(
        "non-key attributes: Remote fastest, then Allnodes, then Local",
        times[(False, JoinMode.REMOTE)][hi]
        < times[(False, JoinMode.ALLNODES)][hi]
        < times[(False, JoinMode.LOCAL)][hi],
    )
    report.check(
        "near-linear speedup from the 2-processor reference",
        speedup_series(times[(True, JoinMode.LOCAL)], reference)[hi]
        >= 0.6 * hi / reference,
    )
    report.check(
        "single-processor behaviour aside, Remote response is insensitive"
        " to the join attribute",
        abs(times[(True, JoinMode.REMOTE)][hi]
            - times[(False, JoinMode.REMOTE)][hi])
        < 0.15 * times[(False, JoinMode.REMOTE)][hi],
    )
    return report


FIG09_12_SPEC = ExperimentSpec(
    name="fig09_12_join_speedup", label="Figures 9-12", kind="figure",
    # joinABprime under Local/Remote/Allnodes on key and non-key
    # attributes; speedup is measured from 2 processors.
    grid=functools.partial(_procs_grid, processor_counts=(2, 4, 8)),
    point=_fig09_12_point,
    summarise=_fig09_12_summarise,
)


# ---------------------------------------------------------------------------
# Figure 13 — join overflow
# ---------------------------------------------------------------------------

def _fig13_point(config: dict[str, Any]) -> dict[str, Any]:
    """Grid point: Local + Remote joins at one memory ratio (picklable)."""
    n = config["n"]
    machine = build_abprime(join_memory_config(n, config["ratio"]), n)

    def query(mode: JoinMode) -> Callable[[str], Query]:
        return lambda into: join_abprime(
            "A", "Bp", key=True, mode=mode, into=into)

    per_mode: list[list[Any]] = []
    for mode in (JoinMode.LOCAL, JoinMode.REMOTE):
        result = run_stored(machine, query(mode))
        per_mode.append(
            [mode.value, result.response_time, result.max_overflows]
        )
    profiled_time: Optional[float] = None
    if config["profiled"]:
        # The overflowing Remote join again: the trace carries the
        # hash-table/queue-depth counter tracks, the profile the
        # per-phase overflow story.
        profiled_time = instrumented_rerun(
            machine, query(JoinMode.REMOTE), "fig13_overflow"
        )
    return {"per_mode": per_mode, "profiled_time": profiled_time}


def _fig13_grid(
    n: int = 100_000,
    memory_ratios: Sequence[float] = (1.2, 1.0, 0.9, 0.8, 0.6, 0.45, 0.3, 0.2),
) -> Grid:
    """joinABprime response vs available-memory/smaller-relation ratio.

    Ratio 1.0 means hash-table capacity for exactly the building relation
    ("available memory was initially set to be sufficient to hold the
    total number of tuples required in the building phase"), so the
    bucket/pointer overhead factor is included in the budget.  The
    deepest overflow point is re-run with the profiler and a trace
    attached, writing ``fig13_overflow.profile.json`` and a Perfetto
    trace with hash-table/queue-depth counter tracks.
    """
    deepest = min(memory_ratios)

    def derive(config: dict[str, Any]) -> dict[str, Any]:
        config["profiled"] = config["ratio"] == deepest
        return config

    return Grid(
        axes=(Axis("ratio", tuple(memory_ratios)),),
        base={"n": n}, derive=derive,
    )


def _fig13_summarise(grid: Grid, results: list[Any]) -> Report:
    n = grid.base["n"]
    memory_ratios = grid.axis("ratio").values
    report = Report(
        name="fig13_overflow",
        title=f"Figure 13 — joinABprime ({n:,} x {n // 10:,}) under memory"
              " pressure (Simple hash-join overflow)",
        columns=["mode", "memory/|Bprime|", "response (s)",
                 "overflows per site"],
    )
    times: dict[tuple[JoinMode, float], float] = {}
    overflows: dict[tuple[JoinMode, float], int] = {}
    profiled_pair: Optional[tuple[float, float]] = None
    for ratio, point in by_config(grid, results, "ratio").items():
        for mode_value, response, ovf in point["per_mode"]:
            times[(JoinMode(mode_value), ratio)] = response
            overflows[(JoinMode(mode_value), ratio)] = ovf
        if point["profiled_time"] is not None:
            profiled_pair = (
                times[(JoinMode.REMOTE, ratio)], point["profiled_time"]
            )
    for mode in (JoinMode.LOCAL, JoinMode.REMOTE):
        for ratio in memory_ratios:
            report.add_row(mode.value, ratio, times[(mode, ratio)],
                           overflows[(mode, ratio)])

    high = max(memory_ratios)
    low = min(memory_ratios)
    if profiled_pair is not None:
        report.check(
            "profiling does not perturb the simulated timeline"
            " (bit-identical response time with profiler + trace on)",
            profiled_pair[0] == profiled_pair[1],
        )
    report.check(
        "no overflow at the highest memory ratio",
        overflows[(JoinMode.REMOTE, high)] == 0,
    )
    report.check(
        "response deteriorates rapidly once memory is scarce",
        times[(JoinMode.REMOTE, low)] > 1.6 * times[(JoinMode.REMOTE, high)],
    )
    flat_ratios = [r for r in memory_ratios
                   if overflows[(JoinMode.REMOTE, r)] <= 2]
    baseline = times[(JoinMode.REMOTE, high)]
    deepest = times[(JoinMode.REMOTE, low)]
    if len(flat_ratios) >= 2:
        report.check(
            "relatively flat from zero to two overflows, then rapid"
            " deterioration (optimizer may be off 2x without a blow-up)",
            max(times[(JoinMode.REMOTE, r)] for r in flat_ratios)
            < 2.2 * baseline < deepest,
        )
    report.check(
        "Local beats Remote before overflow (key attributes short-circuit)",
        times[(JoinMode.LOCAL, high)] < times[(JoinMode.REMOTE, high)],
    )
    crossed = any(
        times[(JoinMode.LOCAL, r)] > times[(JoinMode.REMOTE, r)]
        for r in memory_ratios
        if overflows[(JoinMode.LOCAL, r)] >= 1
    )
    report.check(
        "Local/Remote curves cross after overflow (hash-function switch)",
        crossed,
    )
    return report


FIG13_SPEC = ExperimentSpec(
    name="fig13_overflow", label="Figure 13", kind="figure",
    grid=_fig13_grid, point=_fig13_point, summarise=_fig13_summarise,
)


# ---------------------------------------------------------------------------
# Figures 14-15 — page size vs joinAselB
# ---------------------------------------------------------------------------

def _fig14_15_point(config: dict[str, Any]) -> float:
    """Grid point: joinAselB at one page size, ample memory (picklable)."""
    n, kb = config["n"], config["page_kb"]
    machine = build_gamma(
        GammaConfig.paper_default().with_page_size(kb * KB),
        relations=[("A", n, "heap"), ("B", n, "heap")],
    )
    return run_stored(
        machine,
        lambda into: join_aselb("A", "B", n, key=False, into=into),
    ).response_time


def _fig14_15_summarise(grid: Grid, results: list[Any]) -> Report:
    n = grid.base["n"]
    page_sizes_kb = grid.axis("page_kb").values
    report = Report(
        name="fig14_15_pagesize_join",
        title=f"Figures 14-15 — joinAselB on {n:,} tuples vs disk page size",
        columns=["page KB", "response (s)", "speedup vs 2KB"],
    )
    times: dict[int, float] = by_config(grid, results, "page_kb")
    base = times[min(page_sizes_kb)]
    for kb in page_sizes_kb:
        report.add_row(kb, times[kb], base / times[kb])

    report.check(
        "larger pages reduce joinAselB response time",
        times[16] < times[2],
    )
    report.check(
        "improvement levels off at 16 KB pages",
        abs(times[32] - times[16]) < 0.12 * times[16],
    )
    return report


FIG14_15_SPEC = ExperimentSpec(
    name="fig14_15_pagesize_join", label="Figures 14-15", kind="figure",
    grid=_page_grid, point=_fig14_15_point,
    summarise=_fig14_15_summarise,
)


# ---------------------------------------------------------------------------
# Aggregates ([DEWI88] companion experiment)
# ---------------------------------------------------------------------------

def _aggregate_point(config: dict[str, Any]) -> dict[str, Any]:
    """Grid point: the three aggregate queries on one machine."""
    n = config["n"]
    machine = build_gamma(relations=[("rel", n, "heap")])
    scalar = machine.run(Query.aggregate("rel", op="min", attr="unique2"))
    count = machine.run(Query.aggregate("rel", op="count"))
    grouped = machine.run(
        Query.aggregate("rel", op="sum", attr="unique1", group_by="ten")
    )
    return {
        "scalar": [scalar.response_time, scalar.tuples[0][0]],
        "count": [count.response_time, count.tuples[0][0]],
        "grouped": [grouped.response_time, len(grouped.tuples)],
    }


def _aggregate_grid(n: int = 10_000) -> Grid:
    """Scalar and grouped aggregates (run in the study, cut from the
    paper for space — reproduced from the companion TR's description)."""
    return Grid(axes=(Axis("n", (n,)),))


def _aggregate_summarise(grid: Grid, results: list[Any]) -> Report:
    (n,) = grid.axis("n").values
    (point,) = results
    report = Report(
        name="aggregate",
        title=f"Aggregates on {n:,} tuples (companion experiment)",
        columns=["query", "response (s)", "result"],
    )
    scalar_t, scalar_min = point["scalar"]
    count_t, count_value = point["count"]
    grouped_t, n_groups = point["grouped"]
    report.add_row("scalar min(unique2)", scalar_t, scalar_min)
    report.add_row("scalar count(*)", count_t, count_value)
    report.add_row("sum(unique1) group by ten", grouped_t,
                   f"{n_groups} groups")
    report.check("count(*) returns the cardinality", count_value == n)
    report.check("min(unique2) is 0", scalar_min == 0)
    report.check("group-by produces 10 groups", n_groups == 10)
    report.check(
        "grouped aggregate costs more than scalar (repartitioning)",
        grouped_t > scalar_t,
    )
    return report


AGGREGATE_SPEC = ExperimentSpec(
    name="aggregate", label="Aggregates (companion)", kind="table",
    grid=_aggregate_grid, point=_aggregate_point,
    summarise=_aggregate_summarise,
)
