"""Extension E5 — scaling the simulated machine to 1000 nodes.

The paper's largest Gamma configuration is 32 processors (17 in the
prototype, 30-40 planned); its speedup figures stop where the hardware
did.  This experiment keeps the workload fixed — the 1 % non-indexed
selection and the non-key joinABprime over the 100,000/10,000-tuple
Wisconsin relations the paper's figures use — and sweeps the *machine*
far past the paper: 8 → 64 → 256 → 1000 disk sites.

Two regimes show up, and both are the point of the table:

* Up to roughly one page of tuples per site, more sites still help —
  the scan and join work divides, so response time falls.
* Past that the fixed per-site costs take over: operator activation is
  per site, and every producer closes every consumer port, so the
  scheduling and EndOfStream traffic grows with the *square* of the
  site count while the useful work per site approaches zero.  Response
  time turns around and climbs — the rollover the paper's Section 4.5
  anticipates when it weighs "the potential for using the extra
  resources".

The simulator-side story is tracked alongside: the kernel event count
per configuration (deterministic) lands in the report and the JSON
profile.  Host seconds are not part of a point's result — a stored
result must re-execute equal — so they live only where
``run_experiment`` stamps them, in ``Record.wall_s``; how fast the
simulator runs at 256 sites is the perf ledger's ``scaleup_256``
workload (``benchmarks/ledger/README.md``).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..hardware import GammaConfig
from ..workloads.queries import join_abprime, selection_query
from .harness import build_gamma, run_stored
from .matrix import Axis, ExperimentSpec, Grid
from .reporting import Report

DEFAULT_SITE_COUNTS = (8, 64, 256, 1000)

#: Relation names used by the scaleup experiment.
PROBE_RELATION = "scaleup_a"
BUILD_RELATION = "scaleup_bprime"

_SCALEUP_QUERIES = ("selection", "joinABprime")


def _scaleup_point(config: dict[str, Any]) -> list[Any]:
    """[response s, result count, kernel events] for one cell."""
    n, sites, query = config["n"], config["sites"], config["query"]
    machine_config = GammaConfig.paper_default().with_sites(sites)
    if query == "selection":
        machine = build_gamma(
            machine_config, relations=[(PROBE_RELATION, n, "heap")]
        )
        make = lambda into: selection_query(  # noqa: E731
            PROBE_RELATION, n, 0.01, into=into
        )
    elif query == "joinABprime":
        machine = build_gamma(machine_config, relations=[
            (PROBE_RELATION, n, "heap"),
            (BUILD_RELATION, max(1, n // 10), "heap"),
        ])
        make = lambda into: join_abprime(  # noqa: E731
            PROBE_RELATION, BUILD_RELATION, key=False, into=into
        )
    else:  # pragma: no cover - guarded by the grid builder
        raise ValueError(f"unknown scaleup query {query!r}")
    result = run_stored(machine, make)
    return [
        result.response_time,
        result.result_count,
        result.stats["sim_events"],
    ]


def _scaleup_grid(
    n: int = 100_000, site_counts: Sequence[int] = DEFAULT_SITE_COUNTS
) -> Grid:
    """Selection + joinABprime swept over machine sizes; the summary's
    profile carries the per-point kernel event counts."""
    site_counts = sorted(set(int(s) for s in site_counts))
    if not site_counts:
        raise ValueError("scaleup needs at least one site count")
    return Grid(
        axes=(
            Axis("sites", tuple(site_counts)),
            Axis("query", _SCALEUP_QUERIES),
        ),
        base={"n": n},
    )


def _scaleup_summarise(
    grid: Grid, results: list[Any]
) -> tuple[Report, dict[str, Any]]:
    n = grid.base["n"]
    site_counts = list(grid.axis("sites").values)
    queries = _SCALEUP_QUERIES
    base = site_counts[0]
    report = Report(
        name="extension_e5_scaleup",
        title=(
            f"Extension E5 — 1 % selection and joinABprime ({n:,} ⋈"
            f" {max(1, n // 10):,} tuples) from {base} to"
            f" {site_counts[-1]} sites"
        ),
        columns=[
            "sites", "selection (s)", f"speedup @{base}",
            "joinABprime (s)", f"speedup @{base}", "kernel events",
        ],
    )
    profile: dict[str, Any] = {
        "experiment": "extension_e5_scaleup",
        "n": n,
        "site_counts": list(site_counts),
        "points": [],
    }
    cells = {
        (config["sites"], config["query"]): outcome
        for config, outcome in zip(grid.points(), results)
    }
    responses: dict[str, dict[int, float]] = {q: {} for q in queries}
    counts: dict[str, set[int]] = {q: set() for q in queries}
    for sites in site_counts:
        events_total = 0
        row: list[Any] = [sites]
        for query in queries:
            response, count, events = cells[(sites, query)]
            responses[query][sites] = response
            counts[query].add(count)
            events_total += events
            row.extend([
                response,
                responses[query][base] / response,
            ])
            profile["points"].append({
                "sites": sites, "query": query, "response": response,
                "result_count": count, "events": events,
            })
        row.append(events_total)
        report.add_row(*row)
    for query in queries:
        report.check(
            f"{query} returns the same result at every site count",
            len(counts[query]) == 1,
        )
    mid = min((s for s in site_counts if s > base), default=base)
    if mid > base:
        for query in queries:
            speedup = responses[query][base] / responses[query][mid]
            report.check(
                f"{query} still speeds up from {base} to {mid} sites"
                f" ({speedup:.2f}x)",
                speedup > 1.0,
            )
    widest = site_counts[-1]
    if widest >= 1000:
        report.check(
            f"the {widest}-site sweep completes (fixed per-site"
            " scheduling and EndOfStream costs now dominate: response"
            " rolls over instead of improving)",
            responses["selection"][widest]
            > responses["selection"][mid],
        )
    report.notes.append(
        "Per-site work shrinks as 1/sites while activation and"
        " port-close traffic grow as sites², so the response-time curve"
        " rolls over once fragments drop below about a page — the"
        " trade-off Section 4.5 of the paper weighs."
    )
    return report, profile


EXTENSION_E5_SPEC = ExperimentSpec(
    name="extension_e5_scaleup", label="Extension E5", kind="extension",
    grid=_scaleup_grid, point=_scaleup_point, summarise=_scaleup_summarise,
    version="v2",
)
