"""Apply the ledger's regression rules to two sets of result files.

Two sets of ``run`` files compare every end-to-end metric of every
workload: host-clock metrics against the bound ``BENCHMARK.json`` fixes,
simulated metrics for exact equality (same seed, deterministic simulator
— any difference is a change to what the modelled machine is charged, and
must be argued as one).  Two sets of ``trace`` files compare the counts
that repeat exactly: ``count.*``, ``trace.*.calls`` and the simulated
metrics.

A set is one file or several.  One run cannot resolve less than a quarter
on this box (a neighbour slows whole runs by that much), so a finer claim
measures A and B alternately, several runs each, and the repetitions of
all of a side's runs are pooled into one sample here.

A is the base of every ratio: ``ratio = B / A``.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median, quantiles
from typing import Any, Optional

#: Metrics the ledger reports beside the ``end_to_end`` list of
#: ``BENCHMARK.json``, with their units.  They are end-to-end too, but
#: defined only on some workloads or always zero, which the driver's
#: contract rules out — so the driver sees them in the per-layer set.
LEDGER_ONLY = {
    "paper_log_err": "ln_ratio",
    "sim_qps": "1/s",
    "sim_p95_s": "s",
    "sim_p50_s": "s",
    "ops_failed_share": "share",
}

#: Simulated-clock and correctness metrics: exact between two runs of one
#: seed, whatever bound the driver's A/B across seeds allows ``sim_s``.
EXACT = ("sim_s", *LEDGER_ONLY)
HIGHER_IS_BETTER = {"sim_qps"}


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    a: Optional[float]
    b: Optional[float]
    bound: float
    spread: float
    verdict: str  # ok | worse | unresolved | changed

    @property
    def ratio(self) -> Optional[float]:
        if self.a is None or self.b is None or self.a == 0:
            return None
        return self.b / self.a


def relative_spread(samples: list[float]) -> float:
    """Distance between the quartiles as a share of the median.

    The samples may be one run's three repetitions, so the quartiles are
    taken of them as they stand (``inclusive``): one disturbed
    repetition, which the median already ignores, must not by itself
    make a comparison unresolvable.
    """
    if len(samples) < 2:
        return 0.0
    low, middle, high = quantiles(samples, n=4, method="inclusive")
    return (high - low) / middle if middle else 0.0


def exact_row(
    workload: str, metric: str, a: Optional[float], b: Optional[float]
) -> Row:
    if a == b:
        verdict = "ok"
    elif a is None or b is None or metric not in EXACT:
        # A metric appeared or vanished, or a count moved (counts have
        # no better direction: any difference breaks "repeats exactly").
        verdict = "worse"
    elif (b < a) if metric in HIGHER_IS_BETTER else (b > a):
        verdict = "worse"
    else:
        # A better simulated number is still a changed model: flagged,
        # not failed.
        verdict = "changed"
    return Row(workload, metric, a, b, 0.0, 0.0, verdict)


def host_row(
    workload: str, metric: str, bound: float,
    a_samples: list[float], b_samples: list[float],
) -> Row:
    """Lower is better for every host metric the ledger has."""
    a, b = median(a_samples), median(b_samples)
    spread = max(relative_spread(a_samples), relative_spread(b_samples))
    worse_by = (b - a) / a
    if worse_by > bound:
        separated = min(b_samples) > max(a_samples)
        verdict = "worse" if separated or spread <= bound else "unresolved"
    else:
        separated = max(b_samples) < min(a_samples)
        verdict = "ok" if separated or spread <= bound else "unresolved"
    return Row(workload, metric, a, b, bound, spread, verdict)


def compare_runs(
    spec: dict[str, Any], before: list[dict[str, Any]],
    after: list[dict[str, Any]],
) -> list[Row]:
    """Rows for set A (``before``) against set B (``after``)."""
    first = before[0]
    for report in (*before, *after):
        for key in ("command", "seed", "toy"):
            if report[key] != first[key]:
                raise SystemExit(
                    f"cannot compare: {key} is {first[key]!r} in one file"
                    f" and {report[key]!r} in another"
                )
    if first["command"] not in ("run", "trace"):
        raise SystemExit("compare takes `run` files or `trace` files")
    rows: list[Row] = []
    for workload in spec["workloads"]:
        name = workload["name"]
        a = [report["workloads"][name] for report in before]
        b = [report["workloads"][name] for report in after]
        if first["command"] == "run":
            for metric in spec["end_to_end"]:
                key = metric["name"]
                if key in EXACT:
                    continue
                pooled = [
                    [
                        sample for run in side for sample in
                        run["samples"].get(key, [run["metrics"][key]])
                    ]
                    for side in (a, b)
                ]
                rows.append(host_row(name, key, metric["bound"], *pooled))
            exact = EXACT
        else:
            exact = tuple(
                key for key in a[0]["metrics"]
                if key.startswith("count.") or key.endswith(".calls")
            ) + EXACT
        for key in exact:
            # Every run of both sets against A's first: a value that
            # differs inside one set does not repeat exactly either.
            value = a[0]["metrics"].get(key)
            others = [run["metrics"].get(key) for run in (*a[1:], *b)]
            if value is not None or any(v is not None for v in others):
                differing = [v for v in others if v != value]
                rows.append(exact_row(
                    name, key, value,
                    differing[0] if differing else others[-1],
                ))
    return rows


def format_rows(rows: list[Row]) -> str:
    def cell(value: Optional[float]) -> str:
        return f"{value:>16.6g}" if value is not None else f"{'-':>16}"

    lines = [
        f"{'workload':<16}{'metric':<34}{'A (base)':>16}{'B':>16}"
        f"{'B/A':>9}{'bound':>8}{'spread':>8}  verdict"
    ]
    for row in rows:
        ratio = f"{row.ratio:>9.4f}" if row.ratio is not None else f"{'-':>9}"
        bound = f"{row.bound:>8.0%}" if row.bound else f"{'exact':>8}"
        lines.append(
            f"{row.workload:<16}{row.metric:<34}{cell(row.a)}{cell(row.b)}"
            f"{ratio}{bound}{row.spread:>8.1%}  {row.verdict}"
        )
    counts = {
        verdict: sum(row.verdict == verdict for row in rows)
        for verdict in ("ok", "changed", "unresolved", "worse")
    }
    lines.append(
        "  ".join(f"{count} {verdict}" for verdict, count in counts.items())
    )
    return "\n".join(lines)
