"""Extension E4 — data skew and the skew-aware Exchange strategies.

The paper's Wisconsin relations are deliberately uniform, so every hash
bucket holds the same tuple count and the speedup figures show nothing
about robustness.  This experiment makes skew the swept axis: the probe
relation's join attribute is drawn from Zipf(``skew``) (see
:func:`~repro.workloads.generate_skewed_tuples`), and joinABprime runs
under each redistribution strategy — the paper's plain hash split plus
the three skew-aware splits of :mod:`repro.engine.skew` — at the ends of
the processor-count range.

Evidence reported per (strategy, skew) cell: the speedup from the
smallest to the largest configuration, and the join's *per-node
utilisation spread* (busiest node's busy time over the mean — 1.0 is a
perfect balance) from the EXPLAIN ANALYZE profile of the widest run.
Under high skew the plain hash split's spread approaches the site count
while the skew-aware splits stay near 1, which is exactly why their
speedup survives.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..engine import GammaMachine
from ..engine.skew import SKEW_STRATEGIES
from ..hardware import GammaConfig
from ..workloads import (
    generate_skewed_tuples,
    generate_tuples,
    wisconsin_schema,
)
from ..workloads.queries import join_abprime
from .harness import run_stored
from .matrix import Axis, ExperimentSpec, Grid
from .reporting import Report

DEFAULT_SKEWS = (0.0, 0.75, 1.5)
DEFAULT_SITE_COUNTS = (1, 8)

#: Relation names used by the skew experiment.
PROBE_RELATION = "skew_a"
BUILD_RELATION = "skew_bprime"


def load_skew_machine(
    n: int,
    skew: float,
    sites: int,
    strategy: str,
    seed: int = 1988,
) -> GammaMachine:
    """A Gamma machine loaded for the skewed joinABprime.

    The probe relation's ``unique2`` is Zipf(``skew``) over the build
    relation's key domain ``0..n//10-1``, so every probe tuple matches
    exactly one build tuple and the join result is always ``n`` tuples —
    a correctness cross-check that holds for every strategy.
    """
    machine = GammaMachine(
        GammaConfig.paper_default().with_sites(sites),
        skew_strategy=strategy,
    )
    n_build = max(1, n // 10)
    machine.load_relation(
        PROBE_RELATION, wisconsin_schema(),
        list(generate_skewed_tuples(n, seed=seed, skew=skew,
                                    domain=n_build)),
    )
    machine.load_relation(
        BUILD_RELATION, wisconsin_schema(),
        list(generate_tuples(n_build, seed=seed + 1)),
    )
    return machine


def _join_op_id(profile: Any) -> Optional[str]:
    """The probe-join operator's op_id in an EXPLAIN ANALYZE profile."""
    candidates = [
        op_id for op_id in profile.placements
        if "join" in op_id and "join.build" not in op_id
    ]
    return min(candidates) if candidates else None


def _skew_point(config: dict[str, Any]) -> list[Any]:
    """[response time, result count, utilisation spread] for one cell."""
    machine = load_skew_machine(
        config["n"], config["skew"], config["sites"], config["strategy"],
        seed=config["seed"],
    )
    result = run_stored(
        machine,
        lambda into: join_abprime(
            PROBE_RELATION, BUILD_RELATION, key=False, into=into
        ),
        profile=config["profiled"],
    )
    spread: Optional[float] = None
    if config["profiled"] and result.profile is not None:
        op_id = _join_op_id(result.profile)
        if op_id is not None:
            spread = result.profile.utilisation_spread(op_id)
    return [result.response_time, result.result_count, spread]


def _skew_grid(
    n: int = 10_000,
    skews: Sequence[float] = DEFAULT_SKEWS,
    strategies: Sequence[str] = SKEW_STRATEGIES,
    site_counts: Sequence[int] = DEFAULT_SITE_COUNTS,
    seed: int = 1988,
) -> Grid:
    """joinABprime under every (skew, strategy) pair at both ends of the
    processor range; the summary's profile of every cell is written as
    ``extension_e4_skew.json``."""
    lo, hi = min(site_counts), max(site_counts)

    def derive(config: dict[str, Any]) -> dict[str, Any]:
        config["profiled"] = config["sites"] == hi
        return config

    return Grid(
        axes=(
            Axis("skew", tuple(skews)),
            Axis("strategy", tuple(strategies)),
            Axis("sites", (lo, hi) if lo != hi else (lo,)),
        ),
        base={"n": n, "seed": seed},
        derive=derive,
    )


def _skew_summarise(
    grid: Grid, results: list[Any]
) -> tuple[Report, dict[str, Any]]:
    n, seed = grid.base["n"], grid.base["seed"]
    skews = grid.axis("skew").values
    strategies = grid.axis("strategy").values
    lo = min(grid.axis("sites").values)
    hi = max(grid.axis("sites").values)
    report = Report(
        name="extension_e4_skew",
        title=(
            f"Extension E4 — joinABprime ({n:,} ⋈ {max(1, n // 10):,}"
            f" tuples) under Zipf skew, {lo}→{hi} sites"
        ),
        columns=[
            "skew", "strategy", f"response @{lo} (s)",
            f"response @{hi} (s)", "speedup", f"node spread @{hi}",
            "result tuples",
        ],
    )
    profile: dict[str, Any] = {
        "experiment": "extension_e4_skew",
        "n": n,
        "skews": list(skews),
        "strategies": list(strategies),
        "site_counts": [lo, hi],
        "seed": seed,
        "points": [],
    }
    cells: dict[tuple[float, str, int], list[Any]] = {
        (config["skew"], config["strategy"], config["sites"]): outcome
        for config, outcome in zip(grid.points(), results)
    }
    speedups: dict[tuple[float, str], float] = {}
    spreads: dict[tuple[float, str], Optional[float]] = {}
    counts: set[int] = set()
    for skew in skews:
        for strategy in strategies:
            t_lo, count_lo, _ = cells[(skew, strategy, lo)]
            t_hi, count_hi, spread = cells[(skew, strategy, hi)]
            counts.update((count_lo, count_hi))
            speedup = t_lo / t_hi
            speedups[(skew, strategy)] = speedup
            spreads[(skew, strategy)] = spread
            report.add_row(
                skew, strategy, t_lo, t_hi, speedup, spread, count_hi
            )
            profile["points"].append({
                "skew": skew, "strategy": strategy,
                "sites": [lo, hi], "response": [t_lo, t_hi],
                "speedup": speedup, "spread": spread,
                "result_count": count_hi,
            })

    report.check(
        "every (skew, strategy, sites) cell returns the same join"
        f" result ({n:,} tuples)",
        counts == {n},
    )
    high = max(skews)
    if "hash" in strategies and high >= 1.0:
        aware = [s for s in strategies if s != "hash"]
        best = max(aware, key=lambda s: speedups[(high, s)])
        report.check(
            f"at skew={high}, {best} beats plain hash on speedup"
            f" ({speedups[(high, best)]:.2f}x vs"
            f" {speedups[(high, 'hash')]:.2f}x)",
            speedups[(high, best)] > speedups[(high, "hash")],
        )
        hash_spread = spreads[(high, "hash")]
        best_spread = spreads[(high, best)]
        report.check(
            f"at skew={high}, {best} balances the join"
            f" (spread {best_spread:.2f} vs hash {hash_spread:.2f})",
            best_spread is not None and hash_spread is not None
            and best_spread < hash_spread,
        )
        report.check(
            f"skew degrades the plain hash split (speedup at"
            f" skew={high} below skew={min(skews)})",
            speedups[(high, "hash")] < speedups[(min(skews), "hash")],
        )
    report.notes.append(
        "Speedup is response(min sites)/response(max sites) per strategy;"
        " spread is the join's busiest-node busy time over the mean"
        " (1.0 = perfectly balanced).  The probe relation's unique2 is"
        " Zipf-distributed over the build relation's key domain, so the"
        " join result is the probe cardinality for every strategy —"
        " redistribution changes timing, never answers."
    )
    return report, profile


EXTENSION_E4_SPEC = ExperimentSpec(
    name="extension_e4_skew", label="Extension E4", kind="extension",
    grid=_skew_grid, point=_skew_point, summarise=_skew_summarise,
)
