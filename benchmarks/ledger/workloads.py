"""The ledger's five workloads.

Each workload is three functions over one ``Sizes`` and one seed:

``expect``  the oracle's answers (plain Python over the generated
            tuples; untimed, and run *before* set-up so its transient
            memory is reused by the builds and never raises the peak);
``setup``   everything a user pays before the first query — tuple
            generation, machine construction, declustering, heap and
            B+-tree builds (timed as ``setup_s``);
``body``    one repetition: the timed cells, each followed by its
            untimed check.

The seed reaches the program only through generated inputs: the
Wisconsin generator seeds, the selection-range offsets and the update
keys.  The request streams of the two closed-loop mixes are one fixed
script (``SPEC_SEED``): which of 512 requests are joins is a weighted
draw, and letting the seed redraw it moved host time by a fifth and
``sim_s`` by an eighth between seeds — more than any regression bound.
"""

from __future__ import annotations

import math
import random
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.bench.recorded import (
    TABLE1_SELECTIONS,
    TABLE2_JOINS,
    TABLE3_UPDATES,
)
from repro.catalog import Hashed
from repro.engine import ExactMatch, GammaMachine, Query, RangePredicate
from repro.hardware import KB, GammaConfig
from repro.metrics import peak_utilisation
from repro.teradata import TeradataMachine
from repro.workloads import (
    WorkloadSpec,
    generate_tuples,
    mixed_mix,
    selection_range,
    update_mix,
    wisconsin_schema,
)
from repro.workloads.queries import (
    join_abprime,
    join_aselb,
    join_cselaselb,
    update_suite,
)

import oracle
from tracing import Tracer

GAMMA = "gamma"
TERADATA = "teradata"

#: Name of the result relation every stored query writes and drops.
OUT = "ledger_out"

#: ``WorkloadSpec.seed`` of both closed-loop mixes, whatever ``--seed`` is.
SPEC_SEED = 1988

#: The Gamma counters summed into ``count.*`` (``QueryResult.stats``).
STAT_COUNTS = (
    "packets_sent", "tuples_shipped", "control_messages", "sched_messages",
)


@dataclass(frozen=True)
class Sizes:
    """Every size and repetition constant of the benchmark.  ``FULL`` is
    what every commit is measured at; ``TOY`` is the smoke test's."""

    n: int  # tuples in A/B and the selection copies; Bprime and C hold n/10
    multiuser_n: int
    scaleup_sites: int
    select_passes: int
    mixed_queries: int
    update_queries: int
    reps: dict[str, int]  # timed repetitions per run, by workload
    clients: int = 16
    mpl: int = 8
    think_time: float = 0.2


FULL = Sizes(
    n=100_000, multiuser_n=10_000, scaleup_sites=256, select_passes=3,
    mixed_queries=512, update_queries=1024,
    reps={
        "select_scan": 5, "join_suite": 3, "scaleup_256": 3,
        "multiuser_mixed": 5, "load_update": 5,
    },
)
TOY = Sizes(
    n=2_000, multiuser_n=2_000, scaleup_sites=32, select_passes=1,
    mixed_queries=32, update_queries=64,
    reps=dict.fromkeys(FULL.reps, 1),
)


def derive_seed(*parts: Any) -> int:
    """A process-stable seed from a name and the run seed (crc32, like
    ``repro.bench.harness.seed_for`` — never the salted builtin hash)."""
    text = ":".join(str(part) for part in parts)
    return zlib.crc32(text.encode("utf-8")) % 100_000 + 1


def wisconsin(name: str, n: int, seed: int) -> list[tuple]:
    """The tuples ``load_wisconsin(name, n, seed=derive_seed(...))`` loads."""
    return list(generate_tuples(n, seed=derive_seed(name, n, seed)))


def paper_value(
    table: dict[str, dict[int, dict[str, Optional[float]]]],
    label: str, n: int, machine: str,
) -> Optional[float]:
    return table.get(label, {}).get(n, {}).get(machine)


def stored_rows(machine: Any, name: str) -> Iterator[tuple]:
    """The tuples of a stored result relation on either machine."""
    if isinstance(machine, GammaMachine):
        return machine.catalog.lookup(name).records()
    return machine.lookup(name).records()


class Recorder:
    """What one repetition measured: host time per machine, simulated
    time per cell, the deterministic work counts, and — through the
    shared tally — every correctness check."""

    def __init__(
        self, tally: oracle.Tally, tracer: Optional[Tracer] = None,
        kernel_events: Optional[Callable[[], int]] = None,
    ) -> None:
        self.tally = tally
        self.tracer = tracer
        self.kernel_events = kernel_events
        self.wall_s = 0.0
        self.cpu_s = {GAMMA: 0.0, TERADATA: 0.0}
        self.events = {GAMMA: 0, TERADATA: 0}
        self.sim_s = 0.0
        self.paper_errors: list[float] = []
        self.counts = dict.fromkeys(
            (*STAT_COUNTS, "result_rows", "queries"), 0
        )
        self.gamma_workload: Optional[Any] = None
        # Response-time-weighted sums of each Gamma cell's busiest
        # CPU / disk / NIC and of the ring.
        self._util = {"cpu": 0.0, "disk": 0.0, "nic": 0.0, "ring": 0.0}
        self._util_weight = 0.0

    @contextmanager
    def cell(self, machine: str, name: str) -> Iterator[None]:
        """Time one call into a machine (and profile it when tracing)."""
        tracer = self.tracer
        events0 = self.kernel_events() if self.kernel_events else 0
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        if tracer is not None:
            tracer.start()
        try:
            yield
        finally:
            cpu1 = time.process_time()
            wall1 = time.perf_counter()
            if tracer is not None:
                tracer.stop(machine, name, wall0, wall1)
            self.wall_s += wall1 - wall0
            self.cpu_s[machine] += cpu1 - cpu0
            if self.kernel_events:
                self.events[machine] += self.kernel_events() - events0

    def query(
        self, machine: str, label: str, result: Any, expected_rows: int,
        paper: Optional[float] = None,
    ) -> None:
        """Account one finished query, update or timed load."""
        ok = self.tally.check(
            f"{machine} {label} completed", result.error is None,
            repr(result.error),
        )
        if ok:
            self.tally.check_count(
                f"{machine} {label}", result.result_count, expected_rows
            )
        self.sim_s += result.response_time
        if paper:
            self.paper_errors.append(
                abs(math.log(result.response_time / paper))
            )
        if machine != GAMMA:
            return
        for key in STAT_COUNTS:
            self.counts[key] += result.stats.get(key, 0)
        self.counts["result_rows"] += result.result_count
        self.counts["queries"] += 1
        if result.utilisations:
            weight = result.response_time
            for resource in self._util:
                self._util[resource] += weight * peak_utilisation(
                    result.utilisations, resource
                )
            self._util_weight += weight

    def workload(self, machine: str, label: str, result: Any) -> None:
        """Account one finished multiuser workload run."""
        self.tally.check(
            f"{machine} {label}",
            result.failed == 0 and result.completed == result.submitted,
            f"{result.completed}/{result.submitted} completed,"
            f" {result.failed} failed: {result.errors_by_type()}",
        )
        self.sim_s += result.elapsed
        if machine == GAMMA:
            self.counts["queries"] += result.submitted
            self.gamma_workload = result

    @property
    def paper_log_err(self) -> Optional[float]:
        if not self.paper_errors:
            return None
        return sum(self.paper_errors) / len(self.paper_errors)

    def utilisation(self, resource: str) -> float:
        if not self._util_weight:
            return 0.0
        return self._util[resource] / self._util_weight


def run_stored(
    rec: Recorder, machine_name: str, machine: Any, label: str,
    query: Query, expected_rows: int, paper: Optional[float] = None,
    expected_multiset: Optional[list[tuple]] = None,
) -> None:
    """One stored-result cell: timed run, untimed check, drop."""
    with rec.cell(machine_name, label):
        result = machine.run(query)
    rec.query(machine_name, label, result, expected_rows, paper)
    if expected_multiset is not None:
        rec.tally.check(
            f"{machine_name} {label} rows",
            oracle.same_multiset(
                stored_rows(machine, query.into), expected_multiset
            ),
            "stored result differs from the oracle's multiset",
        )
    machine.drop_relation(query.into)


def workload_spec(sizes: Sizes, queries: int) -> WorkloadSpec:
    """Closed loop: ``clients`` terminals each wait for their reply,
    then think; admission lets ``mpl`` requests run at once."""
    return WorkloadSpec(
        queries=queries, clients=sizes.clients, arrival="closed",
        think_time=sizes.think_time, mpl=sizes.mpl, policy="fifo",
        seed=SPEC_SEED,
    )


def load_both(
    relations: list[tuple[str, int, bool]], seed: int,
    gamma_config: Optional[GammaConfig] = None, teradata: bool = True,
) -> dict[str, Any]:
    """Gamma (and Teradata) with the given Wisconsin relations; an
    ``indexed`` copy is clustered on unique1 with a secondary index on
    unique2 (Teradata: the secondary index only — it has no clustered
    organisation)."""
    machines: dict[str, Any] = {GAMMA: GammaMachine(gamma_config)}
    if teradata:
        machines[TERADATA] = TeradataMachine()
    for name, n, indexed in relations:
        relation_seed = derive_seed(name, n, seed)
        secondary = ["unique2"] if indexed else []
        machines[GAMMA].load_wisconsin(
            name, n, seed=relation_seed,
            clustered_on="unique1" if indexed else None,
            secondary_on=secondary,
        )
        if teradata:
            machines[TERADATA].load_wisconsin(
                name, n, seed=relation_seed, secondary_on=secondary
            )
    return machines


class Workload:
    """One workload at one size and seed."""

    name: str
    #: True when the body mutates its relations, so every repetition
    #: runs on a freshly built state (each rebuild is a set-up sample).
    rebuilds = False
    #: True when Gamma's throughput and latency percentiles are reported.
    latency_metrics = False
    #: Set-ups per run when the state survives a repetition; ``setup_s``
    #: is their median (a short set-up is a noisy sample).
    setup_reps = 3

    def __init__(self, sizes: Sizes, seed: int) -> None:
        self.sizes = sizes
        self.seed = seed


# ---------------------------------------------------------------------------
# select_scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectCell:
    label: str
    relation: str
    attr: str
    low: int
    high: int
    gamma_only: bool
    expected_rows: int
    expected_multiset: Optional[list[tuple]] = None


class SelectScan(Workload):
    name = "select_scan"

    #: (Table 1 label, relation copy, attribute, selectivity)
    SELECTIONS = (
        ("1% nonindexed selection", "heap", "unique2", 0.01),
        ("10% nonindexed selection", "heap", "unique2", 0.10),
        ("1% selection using non-clustered index", "idx", "unique2", 0.01),
        ("10% selection using non-clustered index", "idx", "unique2", 0.10),
        ("1% selection using clustered index", "idx", "unique1", 0.01),
        ("10% selection using clustered index", "idx", "unique1", 0.10),
    )

    def expect(self) -> dict[str, Any]:
        n = self.sizes.n
        rng = random.Random(derive_seed(self.name, self.seed))
        tuples = {
            name: wisconsin(name, n, self.seed) for name in ("heap", "idx")
        }
        cells = []
        for pass_no in range(self.sizes.select_passes):
            for label, relation, attr, selectivity in self.SELECTIONS:
                r = selection_range(
                    n, selectivity, attr=attr,
                    offset_fraction=rng.uniform(0.0, 0.9),
                )
                rows = oracle.select_range(
                    tuples[relation], oracle.POSITION[attr], r.low, r.high
                )
                # The full multiset is compared once per machine, on the
                # first 10 % heap scan of the warm-up repetition.
                keep = pass_no == 0 and label == "10% nonindexed selection"
                cells.append(SelectCell(
                    label, relation, attr, r.low, r.high,
                    gamma_only=attr == "unique1",
                    expected_rows=len(rows),
                    expected_multiset=rows if keep else None,
                ))
        key = rng.randrange(n)
        return {
            "cells": cells,
            "single_key": key,
            "single_row": oracle.select_exact(
                tuples["idx"], oracle.UNIQUE1, key
            ),
        }

    def setup(self) -> dict[str, Any]:
        n = self.sizes.n
        return load_both([("heap", n, False), ("idx", n, True)], self.seed)

    def body(
        self, machines: dict[str, Any], expect: dict[str, Any],
        rec: Recorder, verify: bool,
    ) -> None:
        n = self.sizes.n
        for cell in expect["cells"]:
            for machine_name, machine in machines.items():
                if cell.gamma_only and machine_name == TERADATA:
                    continue
                run_stored(
                    rec, machine_name, machine, cell.label,
                    Query.select(
                        cell.relation,
                        RangePredicate(cell.attr, cell.low, cell.high),
                        into=OUT,
                    ),
                    cell.expected_rows,
                    paper_value(
                        TABLE1_SELECTIONS, cell.label, n, machine_name
                    ),
                    cell.expected_multiset if verify else None,
                )
        label = "single tuple select"
        query = Query.select(
            "idx", ExactMatch("unique1", expect["single_key"])
        )
        for machine_name, machine in machines.items():
            with rec.cell(machine_name, label):
                result = machine.run(query)
            rec.query(
                machine_name, label, result, 1,
                paper_value(TABLE1_SELECTIONS, label, n, machine_name),
            )
            rec.tally.check(
                f"{machine_name} {label} row",
                result.tuples == expect["single_row"],
                "returned tuple differs from the oracle's",
            )


# ---------------------------------------------------------------------------
# join_suite
# ---------------------------------------------------------------------------

class JoinSuite(Workload):
    name = "join_suite"
    #: One two-second set-up: three would push the run past its 30 s.
    setup_reps = 1

    #: Gamma memory-pressure cells: (label, join memory as a share of the
    #: build relation's hash-table bytes, hybrid spill policy or None for
    #: the simple hash join) — sized as in ``_fig13_point``.
    PRESSURE = (
        ("joinABprime simple @0.5", 0.5, None),
        ("joinABprime hybrid static @0.5", 0.5, "static"),
        ("joinABprime hybrid dynamic @0.3", 0.3, "dynamic"),
    )

    def joins(self, n: int) -> dict[str, Query]:
        return {
            "joinABprime (non-key attributes)":
                join_abprime("A", "Bprime", key=False, into=OUT),
            "joinAselB (non-key attributes)":
                join_aselb("A", "B", n, key=False, into=OUT),
            "joinCselAselB (non-key attributes)":
                join_cselaselb("A", "B", "C", n, key=False, into=OUT),
            "joinABprime (key attributes)":
                join_abprime("A", "Bprime", key=True, into=OUT),
        }

    def expect(self) -> dict[str, Any]:
        n = self.sizes.n
        a = wisconsin("A", n, self.seed)
        b = wisconsin("B", n, self.seed)
        bprime = wisconsin("Bprime", n // 10, self.seed)
        c = wisconsin("C", n // 10, self.seed)
        u1, u2 = oracle.UNIQUE1, oracle.UNIQUE2
        abprime = oracle.hash_join(bprime, a, u2, u2)
        r = selection_range(n, 0.10, attr="unique2")
        aselb = oracle.hash_join(
            oracle.select_range(b, u2, r.low, r.high), a, u2, u2
        )
        r = selection_range(n, 0.10, attr="unique2", offset_fraction=0.0)
        selaselb = oracle.hash_join(
            oracle.select_range(b, u2, r.low, r.high),
            oracle.select_range(a, u2, r.low, r.high), u2, u2,
        )
        return {
            "rows": {
                "joinABprime (non-key attributes)": len(abprime),
                "joinAselB (non-key attributes)": len(aselb),
                "joinCselAselB (non-key attributes)":
                    len(oracle.hash_join(c, selaselb, u2, u2)),
                "joinABprime (key attributes)":
                    len(oracle.hash_join(bprime, a, u1, u1)),
            },
            "abprime_multiset": abprime,
        }

    def setup(self) -> dict[str, Any]:
        n = self.sizes.n
        machines = load_both(
            [("A", n, False), ("B", n, False),
             ("Bprime", n // 10, False), ("C", n // 10, False)],
            self.seed,
        )
        base = GammaConfig.paper_default()
        build_bytes = (n // 10) * 208 * base.hash_table_overhead
        pressure = {}
        for label, ratio, policy in self.PRESSURE:
            config = base.with_join_memory(
                max(64 * KB, int(ratio * build_bytes))
            )
            if policy is not None:
                config = config.with_hybrid(spill_policy=policy)
            pressure[label] = load_both(
                [("A", n, False), ("Bprime", n // 10, False)], self.seed,
                gamma_config=config, teradata=False,
            )[GAMMA]
        return {"machines": machines, "pressure": pressure}

    def body(
        self, state: dict[str, Any], expect: dict[str, Any],
        rec: Recorder, verify: bool,
    ) -> None:
        n = self.sizes.n
        joins = self.joins(n)
        first = "joinABprime (non-key attributes)"
        for machine_name, machine in state["machines"].items():
            for label, query in joins.items():
                run_stored(
                    rec, machine_name, machine, label, query,
                    expect["rows"][label],
                    paper_value(TABLE2_JOINS, label, n, machine_name),
                    expect["abprime_multiset"]
                    if verify and label == first else None,
                )
        for label, machine in state["pressure"].items():
            run_stored(
                rec, GAMMA, machine, label, joins[first],
                expect["rows"][first],
            )


# ---------------------------------------------------------------------------
# scaleup_256
# ---------------------------------------------------------------------------

class Scaleup256(Workload):
    name = "scaleup_256"

    def expect(self) -> dict[str, Any]:
        n = self.sizes.n
        rng = random.Random(derive_seed(self.name, self.seed))
        a = wisconsin("A", n, self.seed)
        bprime = wisconsin("Bprime", n // 10, self.seed)
        r = selection_range(
            n, 0.01, offset_fraction=rng.uniform(0.0, 0.9)
        )
        u2 = oracle.UNIQUE2
        return {
            "range": (r.low, r.high),
            "selected": len(oracle.select_range(a, u2, r.low, r.high)),
            "joined": len(oracle.hash_join(bprime, a, u2, u2)),
        }

    def setup(self) -> Any:
        n = self.sizes.n
        config = GammaConfig.paper_default().with_sites(
            self.sizes.scaleup_sites
        )
        return load_both(
            [("A", n, False), ("Bprime", n // 10, False)], self.seed,
            gamma_config=config, teradata=False,
        )[GAMMA]

    def body(
        self, machine: Any, expect: dict[str, Any], rec: Recorder,
        verify: bool,
    ) -> None:
        low, high = expect["range"]
        run_stored(
            rec, GAMMA, machine, "1% nonindexed selection",
            Query.select("A", RangePredicate("unique2", low, high), into=OUT),
            expect["selected"],
        )
        run_stored(
            rec, GAMMA, machine, "joinABprime (non-key attributes)",
            join_abprime("A", "Bprime", key=False, into=OUT),
            expect["joined"],
        )


# ---------------------------------------------------------------------------
# multiuser_mixed
# ---------------------------------------------------------------------------

class MultiuserMixed(Workload):
    name = "multiuser_mixed"
    rebuilds = True  # the mix's updates mutate the relations
    latency_metrics = True

    def expect(self) -> None:
        return None  # every request is checked by the workload runner

    def setup(self) -> dict[str, Any]:
        n = self.sizes.multiuser_n
        return load_both(
            [("A", n, False), ("Bprime", n // 10, False)], self.seed
        )

    def body(
        self, machines: dict[str, Any], expect: None, rec: Recorder,
        verify: bool,
    ) -> None:
        n = self.sizes.multiuser_n
        spec = workload_spec(self.sizes, self.sizes.mixed_queries)
        for machine_name, machine in machines.items():
            with rec.cell(machine_name, "mixed workload"):
                result = machine.run_workload(
                    mixed_mix("A", "Bprime", n), spec
                )
            rec.workload(machine_name, "mixed workload", result)


# ---------------------------------------------------------------------------
# load_update
# ---------------------------------------------------------------------------

class LoadUpdate(Workload):
    name = "load_update"

    #: Position of ``odd100``, the attribute the non-indexed modify sets.
    ODD100 = 11

    def expect(self) -> None:
        return None  # loads and updates are checked by post-state lookups

    def setup(self) -> list[tuple]:
        return wisconsin("load", self.sizes.n, self.seed)

    def body(
        self, tuples: list[tuple], expect: None, rec: Recorder,
        verify: bool,
    ) -> None:
        n = self.sizes.n
        schema = wisconsin_schema()
        gamma, teradata = GammaMachine(), TeradataMachine()
        machines = {GAMMA: gamma, TERADATA: teradata}
        indexed = {"clustered_on": "unique1", "secondary_on": ["unique2"]}

        with rec.cell(GAMMA, "load heap"):
            gamma.load_relation(
                "heap", schema, tuples, partitioning=Hashed("unique1")
            )
        with rec.cell(GAMMA, "load indexed"):
            gamma.load_relation(
                "idx", schema, tuples, partitioning=Hashed("unique1"),
                **indexed,
            )
        with rec.cell(GAMMA, "timed load"):
            _relation, result = gamma.load_relation_timed(
                "idx_timed", schema, tuples,
                partitioning=Hashed("unique1"), **indexed,
            )
        rec.query(GAMMA, "timed load", result, n)
        with rec.cell(TERADATA, "load heap"):
            teradata.load_relation(
                "heap", schema, tuples, primary_key="unique1"
            )
        with rec.cell(TERADATA, "load indexed"):
            teradata.load_relation(
                "idx", schema, tuples, primary_key="unique1",
                secondary_on=["unique2"],
            )
        loaded = {
            GAMMA: [gamma.catalog.lookup(name)
                    for name in ("heap", "idx", "idx_timed")],
            TERADATA: [teradata.lookup(name) for name in ("heap", "idx")],
        }
        for machine_name, relations in loaded.items():
            for relation in relations:
                rec.tally.check_count(
                    f"{machine_name} load {relation.name}",
                    relation.num_records, n,
                )
        del loaded

        update_seed = derive_seed(self.name, "updates", self.seed) % 1000 + 1
        heap_suite = update_suite("heap", n, seed=update_seed)
        idx_suite = update_suite("idx", n, seed=update_seed)
        for machine_name, machine in machines.items():
            for label in TABLE3_UPDATES:
                suite = (
                    heap_suite if label == "append 1 tuple (no indices)"
                    else idx_suite
                )
                with rec.cell(machine_name, label):
                    result = machine.update(suite[label])
                rec.query(
                    machine_name, label, result, 1,
                    paper_value(TABLE3_UPDATES, label, n, machine_name),
                )
            self.check_post_state(rec, machine_name, machine, n, update_seed)

        spec = workload_spec(self.sizes, self.sizes.update_queries)
        for machine_name, machine in machines.items():
            with rec.cell(machine_name, "update workload"):
                result = machine.run_workload(update_mix("idx", n), spec)
            rec.workload(machine_name, "update workload", result)

        with rec.cell(GAMMA, "drop"):
            for name in ("heap", "idx", "idx_timed"):
                gamma.drop_relation(name)
        with rec.cell(TERADATA, "drop"):
            for name in ("heap", "idx"):
                teradata.drop_relation(name)

    def check_post_state(
        self, rec: Recorder, machine_name: str, machine: Any, n: int,
        update_seed: int,
    ) -> None:
        """What the six updates must have left behind (see
        ``update_suite``): the heap append is there; the indexed append
        was deleted again; ``n // 2`` moved to a new key; ``n // 3`` has
        ``odd100 = 13``; unique2 ``n // 4`` moved to a new value."""
        fresh = n + update_seed

        def rows(relation: str, attr: str, value: int) -> list[tuple]:
            return machine.run(
                Query.select(relation, ExactMatch(attr, value))
            ).tuples

        modified = rows("idx", "unique1", n // 3)
        for what, ok in (
            ("heap append kept", len(rows("heap", "unique1", fresh)) == 1),
            ("indexed append deleted",
             rows("idx", "unique1", fresh) == []),
            ("key modify left the old key",
             rows("idx", "unique1", n // 2) == []),
            ("key modify reached the new key",
             len(rows("idx", "unique1", fresh + 1)) == 1),
            ("non-indexed modify applied",
             len(modified) == 1 and modified[0][self.ODD100] == 13),
            ("indexed-attribute modify left the old value",
             rows("idx", "unique2", n // 4) == []),
            ("indexed-attribute modify reached the new value",
             len(rows("idx", "unique2", fresh + 2)) == 1),
        ):
            rec.tally.check(f"{machine_name} {what}", ok)


WORKLOADS = {
    workload.name: workload
    for workload in (
        SelectScan, JoinSuite, Scaleup256, MultiuserMixed, LoadUpdate,
    )
}
