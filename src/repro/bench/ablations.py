"""Ablation experiments for the design choices DESIGN.md calls out.

* **A1** — bit-vector filters in split tables (Section 2 mentions the
  optimizer can insert them; the paper never quantifies the gain).
* **A2** — Simple vs Hybrid hash join under memory pressure (the
  Conclusions announce the Hybrid replacement; this measures why).
* **A3** — the Conclusions' recommendation to raise the default page size
  from 4 KB to 8 KB, evaluated over a mixed query set.
* **A4** — the Hybrid join's spill policies under optimizer estimate
  error: the static plan trusts the (possibly wrong) cardinality
  estimate, ``demote`` reacts to actual build bytes, and ``dynamic``
  starts optimistic and recursively re-partitions.  Sweeps estimate
  error x memory budget x policy x bit-filters.
* **E1** — the multiuser experiment the paper defers ("The validity of
  this expectation will be determined in future multiuser benchmarks"):
  does off-loading joins to the diskless processors leave the disk sites
  capacity for concurrent selections?
* **E2** — the recovery server the Conclusions announce: write-ahead
  logging overhead on bulk stores and single-tuple appends.

Like :mod:`.experiments`, each is an :class:`~repro.bench.matrix.
ExperimentSpec` — a grid, a picklable point function, and a summarise
function — run by :func:`~repro.bench.matrix.run_experiment`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional, Sequence

from ..engine import JoinMode, Query
from ..engine.plan import RangePredicate, ScanNode
from ..hardware import KB, GammaConfig
from ..workloads import selection_range
from ..workloads.queries import join_abprime, join_aselb, selection_query
from .harness import (
    build_abprime,
    build_gamma,
    by_config,
    instrumented_rerun,
    join_memory_config,
    run_stored,
    series,
)
from .matrix import Axis, ExperimentSpec, Grid
from .recorded import TABLE1_SELECTIONS
from .reporting import Report


# ---------------------------------------------------------------------------
# A1 — bit-vector filters
# ---------------------------------------------------------------------------

def _a1_point(config: dict[str, Any]) -> dict[str, Any]:
    """Grid point: joinABprime with filters on or off (picklable)."""
    n = config["n"]
    machine = build_abprime(
        replace(GammaConfig.paper_default(),
                use_bit_filters=config["filters"]), n,
    )
    result = run_stored(
        machine,
        lambda into: join_abprime("A", "Bp", key=False, into=into),
    )
    return {
        "response": result.response_time,
        "shipped": result.stats.get("tuples_shipped", 0),
        "count": result.result_count,
    }


def _a1_grid(n: int = 100_000) -> Grid:
    return Grid(axes=(Axis("filters", (False, True)),), base={"n": n})


def _a1_summarise(grid: Grid, results: list[Any]) -> Report:
    n = grid.base["n"]
    report = Report(
        name="ablation_a1_bitfilter",
        title=f"Ablation A1 — bit-vector filters, joinABprime on {n:,}",
        columns=["filters", "response (s)", "tuples shipped",
                 "tuples dropped at scan"],
    )
    points = by_config(grid, results, "filters")
    for use in (False, True):
        point = points[use]
        report.add_row(
            "on" if use else "off",
            point["response"],
            point["shipped"],
            "n/a" if not use else point["shipped"],
        )
    report.check(
        "filters never change the answer",
        points[False]["count"] == points[True]["count"],
    )
    report.check(
        "filters cut shipped probe tuples by more than 2x",
        points[True]["shipped"] < points[False]["shipped"] / 2,
    )
    report.check(
        "filters reduce response time",
        points[True]["response"] < points[False]["response"],
    )
    return report


ABLATION_A1_SPEC = ExperimentSpec(
    name="ablation_a1_bitfilter", label="Ablation A1", kind="ablation",
    grid=_a1_grid, point=_a1_point, summarise=_a1_summarise,
)


# ---------------------------------------------------------------------------
# A2 — Simple vs Hybrid hash join
# ---------------------------------------------------------------------------

def _a2_point(config: dict[str, Any]) -> float:
    """Grid point: one (memory ratio, algorithm) cell (picklable)."""
    n = config["n"]
    machine_config = join_memory_config(
        n, config["ratio"],
        # The grid keeps its ``algorithm`` axis (and store hashes); the
        # Hybrid join is its default ``static`` policy.
        join_overflow="simple" if config["algorithm"] == "simple" else "static",
    )
    machine = build_abprime(machine_config, n)
    return run_stored(
        machine,
        lambda into: join_abprime(
            "A", "Bp", key=False, mode=JoinMode.REMOTE, into=into),
    ).response_time


def _a2_grid(
    n: int = 100_000,
    memory_ratios: Sequence[float] = (1.2, 0.8, 0.45, 0.2),
) -> Grid:
    """A2: the Figure 13 sweep re-run with the Hybrid hash join."""
    return Grid(
        axes=(
            Axis("ratio", tuple(memory_ratios)),
            Axis("algorithm", ("simple", "hybrid")),
        ),
        base={"n": n},
    )


def _a2_summarise(grid: Grid, results: list[Any]) -> Report:
    n = grid.base["n"]
    memory_ratios = grid.axis("ratio").values
    report = Report(
        name="ablation_a2_hybrid_join",
        title=f"Ablation A2 — Simple vs Hybrid hash join,"
              f" joinABprime on {n:,} under memory pressure",
        columns=["memory/|Bprime|", "simple (s)", "hybrid (s)", "hybrid gain"],
    )
    times: dict[tuple[str, float], float] = by_config(
        grid, results, "algorithm", "ratio"
    )
    for ratio in memory_ratios:
        simple = times[("simple", ratio)]
        hybrid = times[("hybrid", ratio)]
        report.add_row(ratio, simple, hybrid, simple / hybrid)

    high, low = max(memory_ratios), min(memory_ratios)
    report.check(
        "identical when memory suffices",
        abs(times[("simple", high)] - times[("hybrid", high)])
        < 0.05 * times[("simple", high)],
    )
    report.check(
        "hybrid degrades far more gracefully at the deepest shortfall"
        " (>= 1.8x faster than Simple)",
        times[("simple", low)] > 1.8 * times[("hybrid", low)],
    )
    report.check(
        "hybrid's own degradation is modest (< 3x from full memory)",
        times[("hybrid", low)] < 3.0 * times[("hybrid", high)],
    )
    return report


ABLATION_A2_SPEC = ExperimentSpec(
    name="ablation_a2_hybrid_join", label="Ablation A2", kind="ablation",
    grid=_a2_grid, point=_a2_point, summarise=_a2_summarise,
)


# ---------------------------------------------------------------------------
# A3 — default page size
# ---------------------------------------------------------------------------

def _a3_point(config: dict[str, Any]) -> dict[str, float]:
    """Grid point: the mixed query set at one page size (picklable)."""
    n, kb = config["n"], config["page_kb"]
    machine_config = GammaConfig.paper_default().with_page_size(kb * KB)
    machine = build_gamma(
        machine_config,
        relations=[
            ("heap", n, "heap"), ("idx", n, "indexed"), ("B", n, "heap"),
        ],
    )
    runs = {
        "10% file scan": lambda into: selection_query(
            "heap", n, 0.10, into=into),
        "1% non-clustered index": lambda into: selection_query(
            "idx", n, 0.01, into=into),
        "1% clustered index": lambda into: selection_query(
            "idx", n, 0.01, attr="unique1", into=into),
        "joinAselB": lambda into: join_aselb("heap", "B", n, key=False,
                                             into=into),
    }
    return {
        label: run_stored(machine, builder).response_time
        for label, builder in runs.items()
    }


def _a3_grid(n: int = 100_000) -> Grid:
    """A3: 4 KB vs 8 KB default pages over a mixed query set.

    The Conclusions: "we should increase the default page size from 4 to 8
    Kbytes.  While increasing the page size beyond 8 Kbytes provides slight
    improvement for some queries, the impact on queries that use indices
    (in particular, non-clustered indices) is very negative."
    """
    return Grid(axes=(Axis("page_kb", (4, 8, 32)),), base={"n": n})


def _a3_summarise(grid: Grid, results: list[Any]) -> Report:
    n = grid.base["n"]
    page_sizes = grid.axis("page_kb").values
    report = Report(
        name="ablation_a3_pagesize_default",
        title=f"Ablation A3 — default page size (mixed workload, {n:,})",
        columns=["query", "4 KB (s)", "8 KB (s)", "32 KB (s)"],
    )
    times = series(grid, results, "page_kb")
    total = {kb: 0.0 for kb in page_sizes}
    for label, per_kb in times.items():
        report.add_row(label, per_kb[4], per_kb[8], per_kb[32])
        for kb in page_sizes:
            total[kb] += per_kb[kb]
    report.add_row("TOTAL", total[4], total[8], total[32])
    report.check(
        "8 KB beats 4 KB on the mixed workload",
        total[8] < total[4],
    )
    report.check(
        "track-sized (32 KB) pages hurt the non-clustered index query",
        times["1% non-clustered index"][32]
        > times["1% non-clustered index"][8],
    )
    report.check(
        "8 KB is the best (or tied-best) overall default",
        total[8] <= min(total.values()) * 1.02,
    )
    return report


ABLATION_A3_SPEC = ExperimentSpec(
    name="ablation_a3_pagesize_default", label="Ablation A3",
    kind="ablation", grid=_a3_grid, point=_a3_point,
    summarise=_a3_summarise,
)


# ---------------------------------------------------------------------------
# A4 — Hybrid spill policies under estimate error
# ---------------------------------------------------------------------------

A4_ERRORS = (0.25, 1.0, 4.0)
A4_MEMORY_RATIOS = (1.0, 0.45, 0.2)
A4_POLICIES = ("static", "demote", "dynamic")


def _a4_point(config: dict[str, Any]) -> dict[str, Any]:
    """Grid point: one (error, ratio, policy, filters) cell (picklable).

    ``err`` scales the optimizer's build-cardinality estimate before it
    reaches the Hybrid join's partition plan: 0.25 means the plan sizes
    memory for a build side 4x smaller than reality (an underestimate),
    4.0 for one 4x larger (an overestimate).  The data itself never
    changes, so every cell must produce the same join answer.
    """
    n = config["n"]
    machine_config = join_memory_config(
        n, config["ratio"],
        use_bit_filters=config["filters"],
        join_overflow=config["policy"],
        join_estimate_factor=config["err"],
    )
    machine = build_abprime(machine_config, n)

    def query(into: str) -> Query:
        return join_abprime("A", "Bp", key=False, mode=JoinMode.REMOTE,
                            into=into)

    result = run_stored(machine, query)
    point = {
        "response": result.response_time,
        "count": result.result_count,
        "overflows": result.max_overflows,
        "partitions": result.max_partitions,
        "spool_pages": result.stats.get("spool_pages_written", 0),
    }
    if config["profiled"]:
        # Re-run the most-stressed dynamic cell with the profiler and a
        # trace attached: the trace carries the hash-table counter track
        # (bytes / overflow events / partition count as they evolve), the
        # profile the per-phase demotion and re-partitioning story.
        # Instrumentation is passive, so the timing must not move.
        point["profiled_identical"] = result.response_time == (
            instrumented_rerun(machine, query, "ablation_a4_hybrid_dynamic")
        )
    return point


def _a4_grid(
    n: int = 100_000,
    errors: Sequence[float] = A4_ERRORS,
    memory_ratios: Sequence[float] = A4_MEMORY_RATIOS,
    policies: Sequence[str] = A4_POLICIES,
) -> Grid:
    """A4: Hybrid spill policies under optimizer estimate error; the most
    stressed dynamic cell is re-run with the profiler and a trace."""
    worst_err, deepest = min(errors), min(memory_ratios)

    def derive(config: dict[str, Any]) -> dict[str, Any]:
        config["profiled"] = (
            config["err"] == worst_err
            and config["ratio"] == deepest
            and config["policy"] == "dynamic"
            and config["filters"] is False
        )
        return config

    return Grid(
        axes=(
            Axis("err", tuple(errors)),
            Axis("ratio", tuple(memory_ratios)),
            Axis("policy", tuple(policies)),
            Axis("filters", (False, True)),
        ),
        base={"n": n}, derive=derive,
    )


def _a4_summarise(grid: Grid, results: list[Any]) -> Report:
    n = grid.base["n"]
    errors = grid.axis("err").values
    memory_ratios = grid.axis("ratio").values
    policies = grid.axis("policy").values
    report = Report(
        name="ablation_a4_hybrid_dynamic",
        title=f"Ablation A4 — Hybrid spill policy under estimate error,"
              f" joinABprime on {n:,}",
        columns=["est err x", "memory/|Bprime|", "policy", "response (s)",
                 "+filters (s)", "overflow events", "planned parts"],
    )
    cells: dict[tuple[float, float, str, bool], dict[str, Any]] = by_config(
        grid, results, "err", "ratio", "policy", "filters"
    )
    counts: set[int] = set()
    profiled_identical: Optional[bool] = None
    for err in errors:
        for ratio in memory_ratios:
            for policy in policies:
                plain = cells[(err, ratio, policy, False)]
                filtered = cells[(err, ratio, policy, True)]
                counts.update((plain["count"], filtered["count"]))
                if plain.get("profiled_identical") is not None:
                    profiled_identical = plain["profiled_identical"]
                report.add_row(
                    err, ratio, policy, plain["response"],
                    filtered["response"], plain["overflows"],
                    plain["partitions"],
                )

    def t(err: float, ratio: float, policy: str) -> float:
        return cells[(err, ratio, policy, False)]["response"]

    worst_err, accurate = min(errors), 1.0
    over_err = max(errors)
    deepest, ample = min(memory_ratios), max(memory_ratios)
    has = set(policies)
    report.check(
        f"every (err, ratio, policy, filters) cell returns the same"
        f" join result ({n // 10:,} tuples)",
        counts == {n // 10},
    )
    if {"static", "demote"} <= has and worst_err < 1.0:
        report.check(
            f"a {1 / worst_err:.0f}x underestimate blows up the static"
            " plan at the deepest shortfall (demotion rescues >= 1.3x)",
            t(worst_err, deepest, "static")
            > 1.3 * t(worst_err, deepest, "demote"),
        )
    if {"static", "dynamic"} <= has and worst_err < 1.0:
        report.check(
            f"dynamic adaptation also beats static planning under the"
            f" {1 / worst_err:.0f}x underestimate (>= 1.1x at some"
            " memory shortfall)",
            any(
                t(worst_err, ratio, "static")
                > 1.1 * t(worst_err, ratio, "dynamic")
                for ratio in memory_ratios
            ),
        )
    if {"static", "dynamic"} <= has and over_err > 1.0:
        report.check(
            f"a {over_err:.0f}x overestimate makes the static plan spool"
            " needlessly with ample memory (dynamic >= 1.5x faster)",
            t(over_err, ample, "static")
            > 1.5 * t(over_err, ample, "dynamic"),
        )
    if {"static", "demote"} <= has and accurate in errors:
        report.check(
            "with an accurate estimate, demotion never fires: static and"
            " demote are identical at every memory ratio",
            all(
                t(accurate, ratio, "static") == t(accurate, ratio, "demote")
                for ratio in memory_ratios
            ),
        )
    if "dynamic" in has:
        report.check(
            "the dynamic policy ignores the estimate entirely: its"
            " response is bit-identical across every error factor",
            all(
                t(err, ratio, "dynamic") == t(errors[0], ratio, "dynamic")
                for err in errors for ratio in memory_ratios
            ),
        )
    if "static" in has and accurate in errors:
        report.check(
            "overflow accounting separates plan from reaction: the"
            " accurate static plan partitions under pressure yet reports"
            " zero overflow events",
            cells[(accurate, deepest, "static", False)]["partitions"] > 1
            and cells[(accurate, deepest, "static", False)]["overflows"]
            == 0,
        )
    if profiled_identical is not None:
        report.check(
            "trace + profile instrumentation does not perturb the"
            " profiled cell's response time",
            profiled_identical,
        )
    report.notes.append(
        "'est err x' scales the build-cardinality estimate the partition"
        " plan sees (0.25 = plan expects 4x fewer bytes than arrive)."
        "  'overflow events' counts actual reactions — static overflow"
        " activation, bucket demotions, recursive re-partitionings,"
        " extra resolve chunks — at the busiest site; 'planned parts'"
        " is what the estimate sized.  Bit filters ride along to show"
        " the policies compose with them."
    )
    return report


ABLATION_A4_SPEC = ExperimentSpec(
    name="ablation_a4_hybrid_dynamic", label="Ablation A4",
    kind="ablation", grid=_a4_grid, point=_a4_point,
    summarise=_a4_summarise,
)


# ---------------------------------------------------------------------------
# E1 — multiuser off-loading
# ---------------------------------------------------------------------------

def _e1_point(config: dict[str, Any]) -> dict[str, Any]:
    """Grid point: solo selection, or a join+selection pair (picklable)."""
    n, mode = config["n"], config["mode"]
    relations = [
        ("A", n, "heap"), ("Bp", n // 10, "heap"), ("S", n, "heap"),
    ]
    sel_range = selection_range(n, 0.10)
    sel_pred = RangePredicate(sel_range.attr, sel_range.low, sel_range.high)
    machine = build_gamma(relations=relations)
    if mode == "solo":
        solo = machine.run(Query.select("S", sel_pred, into="solo"))
        return {"selection": solo.response_time}
    join_result, sel_result = machine.run_concurrent([
        Query.join(ScanNode("Bp"), ScanNode("A"),
                   on=("unique2", "unique2"), mode=JoinMode(mode), into="j"),
        Query.select("S", sel_pred, into="s"),
    ])
    return {
        "join": join_result.response_time,
        "selection": sel_result.response_time,
        "join_count": join_result.result_count,
        "selection_count": sel_result.result_count,
    }


def _e1_grid(n: int = 50_000) -> Grid:
    """E1: the deferred multiuser benchmark — Remote-join off-loading.

    A joinABprime and an independent 10% selection are submitted
    together; the join's placement is varied.  The paper's expectation:
    "offloading the join operators to remote processors will allow the
    processors with disks to effectively support more concurrent
    selection and store operators."
    """
    return Grid(
        axes=(Axis("mode", ("solo", "local", "remote")),), base={"n": n},
    )


def _e1_summarise(grid: Grid, results: list[Any]) -> Report:
    n = grid.base["n"]
    report = Report(
        name="extension_e1_multiuser",
        title=f"Extension E1 — multiuser off-loading"
              f" (joinABprime + concurrent 10% selection, {n:,} tuples)",
        columns=["join mode", "join (s)", "concurrent selection (s)",
                 "selection alone (s)"],
    )
    points = by_config(grid, results, "mode")
    solo_time = points["solo"]["selection"]
    for mode in ("local", "remote"):
        report.add_row(mode, points[mode]["join"],
                       points[mode]["selection"], solo_time)

    report.check(
        "the concurrent selection finishes sooner when the join runs on"
        " the diskless processors (Remote off-loading)",
        points["remote"]["selection"] < points["local"]["selection"],
    )
    report.check(
        "contention is real: the concurrent selection is slower than solo",
        points["remote"]["selection"] > solo_time,
    )
    report.check(
        "both queries still complete correctly",
        points["remote"]["join_count"] == n // 10
        and points["remote"]["selection_count"] == n // 10,
    )
    return report


EXTENSION_E1_SPEC = ExperimentSpec(
    name="extension_e1_multiuser", label="Extension E1", kind="extension",
    grid=_e1_grid, point=_e1_point, summarise=_e1_summarise,
)


# ---------------------------------------------------------------------------
# E2 — recovery server
# ---------------------------------------------------------------------------

def _e2_point(config: dict[str, Any]) -> dict[str, Any]:
    """Grid point: bulk store + append, logging on or off (picklable)."""
    from ..engine.plan import AppendTuple
    from ..workloads import generate_tuples

    n, logging = config["n"], config["logging"]
    machine_config = replace(
        GammaConfig.paper_default(), use_recovery_server=logging
    )
    machine = build_gamma(machine_config, relations=[("r", n, "heap")])
    stored = run_stored(
        machine, lambda into: selection_query("r", n, 0.10, into=into)
    )
    record = (n + 5, n + 5) + next(iter(generate_tuples(1, seed=3)))[2:]
    append = machine.update(AppendTuple("r", record))
    return {
        "bulk": stored.response_time,
        "append": append.response_time,
        "log_records": stored.stats.get("log_records", 0),
    }


def _e2_grid(n: int = 50_000) -> Grid:
    """E2: write-ahead logging overhead of the recovery server on a bulk
    ``retrieve into`` and on a single-tuple append."""
    return Grid(axes=(Axis("logging", (False, True)),), base={"n": n})


def _e2_summarise(grid: Grid, results: list[Any]) -> Report:
    n = grid.base["n"]
    report = Report(
        name="extension_e2_recovery",
        title=f"Extension E2 — recovery server overhead ({n:,} tuples)",
        columns=["operation", "no logging (s)", "with logging (s)",
                 "overhead"],
    )
    points = by_config(grid, results, "logging")
    off, on = points[False], points[True]
    for label, field in (("bulk store (10% retrieve into)", "bulk"),
                         ("single-tuple append", "append")):
        report.add_row(label, off[field], on[field],
                       f"{(on[field] / off[field] - 1) * 100:.0f}%")

    report.check(
        "logging ships one record per stored tuple",
        on["log_records"] == round(0.10 * n),
    )
    report.check(
        "group commit keeps bulk-store overhead under 2x",
        on["bulk"] < 2.0 * off["bulk"],
    )
    report.check(
        "single-tuple appends pay a log force but stay cheap (< 50% over)",
        on["append"] < 1.5 * off["append"],
    )
    report.check(
        "Gamma with logging still beats Teradata's logged path",
        on["bulk"]
        < TABLE1_SELECTIONS["10% nonindexed selection"][100_000]["teradata"]
        * n / 100_000,
    )
    return report


EXTENSION_E2_SPEC = ExperimentSpec(
    name="extension_e2_recovery", label="Extension E2", kind="extension",
    grid=_e2_grid, point=_e2_point, summarise=_e2_summarise,
)
