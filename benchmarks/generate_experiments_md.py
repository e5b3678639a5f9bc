"""Assemble EXPERIMENTS.md from the persistent result store.

Every section is summarised from the stored grid-point runs under
``benchmarks/results/store/`` via the experiment registry
(:mod:`repro.bench.registry`): grid points already in the store are not
re-executed, so with the committed store this script regenerates every
table — and rewrites every ``benchmarks/results/*.md`` — byte-identically
without simulating anything.  Missing points (a cold store, or a changed
experiment version) are executed and appended first, which is the same
resume path ``python -m repro matrix run`` uses.

The registry is also the drift check: a ``benchmarks/results/*.md``
report with no registry entry, or a ``NOTES`` key naming an unregistered
experiment, is an error — new experiments must be registered, not
hand-appended.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = os.path.join(HERE, "..", "EXPERIMENTS.md")
_SRC = os.path.join(HERE, "..", "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# Hand-written framing around a saved report: (intro, outro).  An intro
# that opens with a heading replaces the report's own first line.
NOTES = {
    "ablation_a4_hybrid_dynamic": (
        """\
Section 3.4.2's Hybrid join plans its spool partitions from the
optimizer's build-cardinality estimate — a number the paper always has
exactly right because the Wisconsin relations are synthetic.  This
experiment makes the estimate wrong on purpose (`est err x` scales it
by 1/4x, 1x and 4x) and sweeps three spill policies: `static` trusts
the plan and falls back to Figure 13-style overflow chunking when the
build side doesn't fit; `demote` keeps the plan but evicts
hash-table buckets to a fresh spool partition the moment actual build
bytes exceed memory; `dynamic` ignores the estimate, starts fully
in-memory, demotes on demand and recursively re-partitions any spooled
partition that still won't fit.  Regenerate with
`python -m repro matrix run ablation_a4_hybrid_dynamic`.
""",
        """\
Reading the table: with an accurate estimate the reactive machinery is
pure insurance — `demote` never fires and its column is bit-identical
to `static`, which is why the default configuration keeps the static
policy and every previously published number.  Under a 4x
*underestimate* the static plan's resident fraction is sized for a
build side that never fits, and resolve-phase chunking re-scans the
probe spool per chunk; demotion reacts during the build instead and
wins.  Under a 4x *overestimate* the static plan spools most of the
build side that would have fit in memory — the dynamic policy's
optimistic start skips the spooling entirely and its response is
bit-identical across every error factor, because it never reads the
estimate.  Evidence per cell (overflow events, planned partitions,
spool pages) is stored per grid point in
`store/ablation_a4_hybrid_dynamic.jsonl`; the profiled cell also
exports a Perfetto trace whose hash-table counter track shows bytes,
overflow events and partition count evolving as demotions land.
""",
    ),
    "workload_mpl": (
        """\
### Extension E3 — multiuser benchmarks (MPL sweep, mixed workload)

Section 6.2.1 ends with the paper's open question: "The validity of this
expectation will be determined in future multiuser benchmarks of the
Gamma database machine."  This experiment runs those benchmarks: 16
closed-loop terminals (seeded exponential think times) submit a mixed
workload — single-tuple and 1%/10% range selections, non-indexed
modifies, and an occasional Remote-mode joinABprime — through an
admission controller whose multiprogramming level is swept 1→16, on
both machines.  Regenerate with
`python -m repro matrix run workload_mpl`; one MPL runs interactively
via `python -m repro workload --machine both --mpl 8`.
""",
        """\
Reading the curves: throughput climbs steeply while queue wait
dominates latency (MPL 1→8), then flattens as the disk sites saturate —
Gamma gains only 3% from MPL 8→16 while mean service time stretches
from 0.72 s to 0.86 s.  Teradata, slower per query, is still
queue-limited at MPL 16 and keeps scaling.  Both sweeps are seeded and
bit-identical across repeat runs (the CI `matrix-smoke` job asserts
this with `cmp` on a toy sweep).
""",
    ),
    "extension_e4_skew": (
        """\
Section 2.2.2 notes that Gamma "applies a hash function to the key
attribute of each tuple to distribute tuples" — a split that the paper
never stresses with a non-uniform attribute.  This experiment does: the
probe relation's join attribute is drawn from a Zipf distribution
(exponent 0 → uniform, 1.5 → one value holds >25 % of the tuples) and
joinABprime is re-run under four redistribution strategies — the
paper's plain `hash` split, equal-depth `range` boundaries,
virtual-processor hashing (`vhash`), and fragment-replicate
(`hot-broadcast`: hot build keys go everywhere, hot probe tuples are
sprayed round-robin).  Regenerate with
`python -m repro matrix run extension_e4_skew`.
""",
        """\
Reading the table: redistribution skew cannot be fixed by a smarter
*partitioning* — range and vhash splits still send every copy of the
hot value to one site, so their speedups collapse with plain hash.
Only replicating the hot build keys and spraying the matching probe
tuples (`hot-broadcast`) restores the uniform-case speedup, at the
price of duplicating a handful of build tuples per site.
""",
    ),
    "extension_e5_scaleup": (
        """\
Section 4.5 stops the speedup experiments at 32 processors — the
hardware Gamma had.  This experiment asks what the *model* predicts
beyond that: the same non-indexed selection and joinABprime
(100,000-tuple relations) declustered across 8, 64, 256 and 1,000
sites.  Regenerate with
`python -m repro matrix run extension_e5_scaleup`.
""",
        """\
Reading the table: the paper's near-linear regime survives well past
the hardware — 8→64 sites still buys a ~3x response-time win at this
relation size — but by 256 sites both queries *roll over*: each site
holds so few tuples that the fixed per-site costs (operator
activation, and the sites² end-of-stream port-close traffic of the
redistribution phase) dominate the shrinking per-site scan, and
response time climbs again.  That is Section 4.5's "diminishing
returns" argument taken to its asymptote, and the reason the 1,000-site
rows are slower than the 64-site ones despite 15x the hardware.  The
kernel-events column grows ~quadratically with sites while wall-clock
per event stays flat — scaling the *simulator* to 1,000 sites is a
throughput problem (see DESIGN.md's performance-engineering section),
not a semantic one.
""",
    ),
    "telemetry_knee": (
        """\
### Extension E6 — the latency knee (open-loop arrival-rate sweep)

Extension E3's closed-loop terminals bound concurrency by construction;
the overload question — *at what offered load does each machine fall
over?* — needs open-loop arrivals.  Here a Poisson stream submits the
mixed Wisconsin workload at a fixed rate (0.5 → 16 queries/s, mpl=8)
while a telemetry sampler records sliding-window latency percentiles,
admission-queue depth and per-node utilisation every 0.25 s of
simulated time; rule-based detectors stamp the simulated instant
overload onset (sustained queue growth) fires.  Regenerate with
`python -m repro matrix run telemetry_knee`; one rate runs interactively
via `python -m repro monitor mixed --rate 8`.
""",
        """\
Reading the table: both machines hold flat percentiles while the
offered rate stays below their saturation throughput — Gamma up to
~4.7 q/s served at rate 4, Teradata only ~3.9 — then the knee: at the
next rate the admission queue grows without bound, the overload
detector fires within the first seconds of the run, and p95 latency is
no longer a service time but a queueing delay that scales with run
length.  Gamma's knee sits roughly one octave to the right of
Teradata's, consistent with the single-user response-time gap of
Tables 1-3.  The time-resolved evidence (windowed p95 and queue-depth
tracks per point) is stored in `store/telemetry_knee.jsonl`; the sampler is
pulled by the kernel, never scheduled, so every number here is
bit-identical with telemetry on or off.
""",
    ),
}

PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of *"A Performance Analysis of the Gamma Database
Machine"* (DeWitt, Ghandeharizadeh & Schneider, SIGMOD 1988), regenerated
from the persistent result store by
`python benchmarks/generate_experiments_md.py`.  Measured values are
**modeled seconds** from the discrete-event simulation (see DESIGN.md §2
for the substitution rationale); `gamma ratio` columns give
measured/paper.  Shape checks are the paper's qualitative claims,
asserted by the benchmarks.

Store note: every measured grid point lives in
`benchmarks/results/store/` (JSON lines, keyed by canonical config hash
and experiment version — DESIGN.md §5.10).  Sweeps resume: re-running
any experiment (`python -m repro matrix run <name>`) executes only grid
points missing from the store, so a warm store regenerates this file
without simulating anything; `--force` re-measures.  `python -m repro
matrix list` shows per-experiment coverage.

Scale note: tables default to the 10,000- and 100,000-tuple relations; set
`GAMMA_BENCH_SIZES=10000,100000,1000000` to regenerate the million-tuple
columns (several minutes of wall time).  Figure experiments use the
100,000-tuple relations the paper uses.

Wall-clock note: every sweep (processor count, page size, memory ratio,
relation size) fans its points across CPU cores through a process pool;
`GAMMA_BENCH_JOBS=N` caps the workers and `GAMMA_BENCH_JOBS=1` forces
sequential in-process execution.  Parallel and sequential runs produce
**byte-identical** tables (per-relation seeds are `crc32`-derived, so they
do not depend on the process or execution order; asserted by
`tests/bench/test_sweep.py`).  How fast the simulator itself runs is
measured in one place, the perf ledger (`benchmarks/ledger/README.md`);
nothing in this file or the result store is a host time.

Profiling note: Figures 1-2, Figure 13 and Ablation A4 re-run one
representative point with the profiler attached (a field of that
point's config, so it is part of the committed grid) and
write `fig01_02_select_speedup.profile.json`,
`fig13_overflow.profile.json` and `ablation_a4_hybrid_dynamic.profile.json`
to `benchmarks/results/` — the `QueryProfile.to_json()` payload:
per-operator spans, phase timeline, critical path and verdict.  The
Figure 13 and A4 points also export a Perfetto trace with hash-table,
queue-depth and overflow counter tracks.  Each experiment asserts the
instrumented re-run's simulated response time is **bit-identical** to the
uninstrumented one, so profiling can never perturb a published number.

## Summary of fidelity

"""

# The Tables 1-3 bullets of the fidelity summary; the {placeholders}
# are measured/paper ratios computed from the reports' rows, and each
# filled bullet is re-wrapped.
TABLE_FIDELITY = """\
* **Table 1 (selections)** — Gamma measured/paper ratios land between
  {table1} on every comparable cell (single-tuple select {single}).
  All orderings hold: clustered < non-clustered < file scan, the
  optimizer's segment-scan choice at 10 %, and Gamma < Teradata on all
  rows.
* **Table 2 (joins)** — Gamma ratios {table2}. Both machines'
  signature asymmetries reproduce: Gamma joinAselB < joinABprime
  (selection propagation) and Teradata the reverse; Teradata's 25-50 %
  key-attribute gain reproduces via the skipped redistribution.
* **Table 3 (updates)** — all orderings hold (deferred-update surcharge,
  key-modify most expensive, Gamma < Teradata throughout); measured/paper
  ratios are Gamma {table3_gamma}, Teradata {table3_teradata}.
"""

FIDELITY_REST = """\
* **Figures** — every qualitative claim checks out: near-linear selection
  speedup; the 0 %-indexed slowdown (0.25 s → 0.6 s, the paper's own
  numbers); disk-bound→CPU-bound transition with page size; non-clustered
  degradation with large pages including the 16→32 KB clustered uptick;
  the Local/Allnodes/Remote mirror orderings; the overflow blow-up with
  the Local/Remote crossover and the flat ≤2-overflow region.
* **Ablation A4 (spill policies)** — with an accurate estimate the
  reactive policies are free insurance (`demote` is bit-identical to
  `static`); under a 4x cardinality underestimate reactive demotion
  beats the static plan 1.34x and full dynamic re-partitioning 1.13x,
  and under a 4x overestimate the dynamic policy's optimistic start is
  3.8x faster (49.6 s vs 189.1 s) because it never spools a build side
  that fits in memory.
* **Extension E4 (skew)** — with a Zipf-1.5 probe attribute the plain
  hash split's 8-site speedup collapses (6.8x → 3.7x) while
  fragment-replicate (`hot-broadcast`) holds 6.8x; range and
  virtual-processor splits barely help because a single hot *value*
  cannot be divided by any partitioning — the textbook case for
  replicating the build side's hot keys.
* **Known residuals** — (1) Figure 2's 10 %-selection speedup lag is
  muted because disk and network DMA are modeled as independent, not
  sharing the VAX bus; (2) the paper's 1 M-tuple column is not measured
  here — no committed grid runs it (`GAMMA_BENCH_SIZES` adds it), so
  neither machine's scaling past 100,000 tuples is checked; (3)
  deep-overflow Local joins drift back under Remote because diskless
  spooling pays the network both ways in this model.

---
"""


def _ratio(value: float) -> str:
    return f"{value:.3f}x" if value < 1 else f"{value:.2f}x"


def _ratios(report, machine, keep=lambda row: True):
    """``machine``'s measured/paper ratio on each of the report's rows
    that has both numbers and passes ``keep``."""
    measured = report.columns.index(machine)
    paper = report.columns.index(f"{machine} paper")
    return [
        row[measured] / row[paper] for row in report.rows
        if row[measured] is not None and row[paper] is not None and keep(row)
    ]


def _span(values):
    return f"{_ratio(min(values))}-{_ratio(max(values))}"


def table_fidelity(reports):
    """The Tables 1-3 fidelity bullets, filled from the table reports."""
    import re
    import textwrap

    table1, table2, table3 = (
        reports[name]
        for name in ("table1_selection", "table2_join", "table3_update")
    )
    single = lambda row: row[0] == "single tuple select"  # noqa: E731
    sizes = sorted({row[1] for row in table2.rows})
    text = TABLE_FIDELITY.format(
        table1=" and ".join(
            _ratio(f(_ratios(table1, "gamma", lambda r: not single(r))))
            for f in (min, max)
        ),
        single=" and ".join(
            _ratio(v) for v in _ratios(table1, "gamma", single)
        ),
        table2=" and ".join(
            f"{_span(_ratios(table2, 'gamma', lambda r: r[1] == n))}"
            f" at {n:,} tuples"
            for n in sizes
        ),
        table3_gamma=_span(_ratios(table3, "gamma")),
        table3_teradata=_span(_ratios(table3, "teradata")),
    )
    return "".join(
        textwrap.fill(" ".join(bullet.split()), 72, subsequent_indent="  ",
                      break_on_hyphens=False) + "\n"
        for bullet in re.split(r"\n(?=\* )", text)
    )


def check_registry_drift(results_directory, registered, notes=None):
    """Fail loudly when results and registry disagree.

    ``registered`` is the registry's name list.  Raises ``SystemExit``
    when a ``*.md`` report exists with no registry entry (a benchmark
    was added without registering it) or a ``NOTES`` key names an
    unregistered experiment (a registry entry was renamed or removed
    without updating the framing text).
    """
    registered = set(registered)
    on_disk = {
        name[:-len(".md")]
        for name in os.listdir(results_directory)
        if name.endswith(".md")
    }
    stray = sorted(on_disk - registered)
    if stray:
        raise SystemExit(
            f"results with no registry entry: {', '.join(stray)} — register"
            " the experiment in src/repro/bench/registry.py or delete the"
            " stale report"
        )
    unnoted = sorted(set(notes or NOTES) - registered)
    if unnoted:
        raise SystemExit(
            f"NOTES entries with no registry entry: {', '.join(unnoted)} —"
            " NOTES keys must name registered experiments"
        )


def main() -> None:
    from repro.bench.registry import ordered, run_registered
    from repro.bench.reporting import results_dir
    from repro.bench.store import ResultStore

    store = ResultStore()
    sections, reports = [], {}
    executed = 0
    for name, _label in ordered():
        run = run_registered(name, store)
        executed += run.executed
        reports[name] = run.report
        body = run.report.to_markdown().rstrip() + "\n"
        intro, outro = NOTES.get(name, ("", ""))
        if intro:
            heading, rest = body.split("\n", 1)
            if intro.startswith("#"):
                body = intro + rest  # intro supplies the heading
            else:
                body = heading + "\n\n" + intro + "\n" + rest.lstrip("\n")
        if outro:
            body = body + "\n" + outro
        sections.append(body)
    check_registry_drift(results_dir(), [name for name, _ in ordered()])
    preamble = PREAMBLE + table_fidelity(reports) + FIDELITY_REST
    with open(TARGET, "w") as fh:
        fh.write("\n".join([preamble, *sections]))
    print(
        f"wrote {os.path.normpath(TARGET)} from the result store"
        f" ({executed} grid points executed, rest summarised from"
        f" {os.path.relpath(store.directory)})"
    )


if __name__ == "__main__":
    main()
