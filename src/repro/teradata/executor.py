"""Query execution on the Teradata DBC/1012 model.

The executor is a driver over the shared physical IR
(:mod:`repro.engine.ir`): it walks the operator DAG produced by
:class:`~repro.teradata.planner.TeradataPlanner` and lowers each Exchange
edge to the DBC/1012's machinery — spool-file redistributions over the
Y-net (a :class:`~repro.sim.Server` moving 4 KB packages), with
``LOCAL`` edges consumed in place (the primary-key join shortcut).

Selections scan (or fully scan a dense index over) each AMP's fragment;
results are redistributed by hashing the result key and stored through the
single-tuple-optimised ``INSERT INTO`` path (≈3 random I/Os plus heavy CPU
per tuple — the dominant cost in Tables 1 and 2).  Joins redistribute both
source relations by hashing the join attribute (skipped when it is the
primary key), sort the spool files, then sort-merge.  Aggregates fold
accumulators AMP-locally and merge them on one AMP (scalar) or
redistribute on the grouping attribute first (grouped).
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import TYPE_CHECKING, Any, Generator, Optional

from ..engine.ir import (
    AggregateOp,
    Exchange,
    ExchangeKind,
    PhysicalIR,
    ScanOp,
    SortMergeJoinOp,
    UpdateIR,
)
from ..engine.operators.aggregate import _Accumulator
from ..engine.plan import (
    AccessPath,
    AppendTuple,
    DeleteTuple,
    ExactMatch,
    ModifyTuple,
)
from ..engine.skew import router
from ..errors import PlanError
from ..sim import Delay, Server, Simulation, Use, UseRun, WaitAll
from ..storage import Schema, external_sort, records_per_page
from .amp import Amp, AmpFragment, hash_partition

if TYPE_CHECKING:
    from ..metrics import Profiler

PACKAGE_BYTES = 4096  # Y-net moves spool pages


class TeradataRun:
    """One retrieval query on the DBC/1012."""

    def __init__(
        self, machine: "Any", sim: Simulation, amps: list[Amp],
        ir: PhysicalIR, profiler: Optional[Profiler] = None,
        ynet: Optional[Server] = None, tag: str = "",
    ) -> None:
        self.machine = machine
        self.costs = machine.costs
        self.config = machine.config
        self.sim = sim
        self.amps = amps
        self.ir = ir
        self.into = ir.into
        # Concurrent runs in one simulation share the single physical
        # Y-net (pass ``ynet``) and need distinct spool-file namespaces
        # (pass a per-request ``tag``); a standalone run owns both.
        self.ynet = Server("ynet") if ynet is None else ynet
        self.tag = tag
        self.profiler = profiler
        self.stats: Counter[str] = Counter()
        self.collected: list[tuple] = []
        self.result_count = 0
        self.result_relation: Optional[Any] = None
        self._tmp = 0

    def _ship(self, packages: int) -> UseRun:
        """Inject ``packages`` spool pages into the Y-net, back to back."""
        return UseRun(self.ynet, repeat(
            PACKAGE_BYTES / self.config.network.ring_bandwidth, packages
        ))

    def _step(
        self, label: str, op_id: str, phase: str, gens: dict[int, Any]
    ) -> WaitAll:
        """One bulk-synchronous step: a process per AMP of ``gens`` (AMP
        number → generator), attributed to IR node ``op_id``, and the
        barrier the coordinator waits at.  A request is a sequence of
        these, so each AMP has one requester at a time — what lets a
        standalone run build its AMPs private (DESIGN 5.6)."""
        procs = []
        for i, gen in gens.items():
            proc = self.sim.spawn(gen, name=f"{label}.{i}")
            if self.profiler is not None:
                self.profiler.register(
                    proc, op_id, phase, node=self.amps[i].name
                )
            procs.append(proc)
        return WaitAll(procs)

    def _count_tuples(
        self, op_id: str, tuples_in: int = 0, tuples_out: int = 0
    ) -> None:
        if self.profiler is not None:
            self.profiler.add_tuples(
                op_id, tuples_in=tuples_in, tuples_out=tuples_out
            )

    # ------------------------------------------------------------------
    def coordinator(self) -> Generator[Any, Any, None]:
        yield Delay(self.costs.host_roundtrip_s)
        per_amp, schema = yield from self._execute(self.ir.root)
        matches = sum(len(m) for m in per_amp)
        self.result_count = matches
        if self.into is not None:
            yield Delay(self.costs.result_table_create_s)
            yield from self._store_phase(per_amp, schema)
        else:
            for bucket in per_amp:
                self.collected.extend(bucket)
            nbytes = matches * schema.tuple_bytes
            yield Use(self.ynet, nbytes / self.config.network.ring_bandwidth)

    def _execute(
        self, node: Any
    ) -> Generator[Any, Any, tuple[list[list[tuple]], Schema]]:
        if isinstance(node, ScanOp):
            result = yield from self._select_phase(node)
            return result
        if isinstance(node, SortMergeJoinOp):
            result = yield from self._join_phase(node)
            return result
        if isinstance(node, AggregateOp):
            result = yield from self._aggregate_phase(node)
            return result
        raise PlanError(f"Teradata model cannot execute {node!r}")

    # ------------------------------------------------------------------
    # selections
    # ------------------------------------------------------------------
    def _select_phase(
        self, scan: ScanOp
    ) -> Generator[Any, Any, tuple[list[list[tuple]], Schema]]:
        relation = scan.relation
        predicate = scan.predicate
        schema = scan.schema
        out: list[list[tuple]] = [[] for _ in self.amps]

        if scan.path is AccessPath.CLUSTERED_EXACT:
            # Hash-addressed single-tuple retrieval: one AMP, one access.
            amp_no = scan.sites[0]
            yield self._step("exact", scan.op_id, "scan", {
                amp_no: self._amp_exact(
                    self.amps[amp_no], relation.fragments[amp_no],
                    predicate, out, amp_no,
                )
            })
            self._count_tuples(scan.op_id, tuples_out=len(out[amp_no]))
            return out, schema

        amp_select = (
            self._amp_index_select if scan.path in (
                AccessPath.NONCLUSTERED_EXACT, AccessPath.NONCLUSTERED_INDEX
            ) else self._amp_scan
        )
        yield self._step("sel", scan.op_id, "scan", {
            i: amp_select(self.amps[i], relation.fragments[i], predicate, out, i)
            for i in scan.sites
        })
        self._count_tuples(
            scan.op_id,
            tuples_in=sum(
                relation.fragments[i].num_records for i in scan.sites
            ),
            tuples_out=sum(len(bucket) for bucket in out),
        )
        return out, schema

    def _amp_exact(
        self, amp: Amp, fragment: AmpFragment, predicate: ExactMatch,
        out: list[list[tuple]], i: int,
    ) -> Generator[Any, Any, None]:
        yield amp.work(self.costs.exact_match_cpu)
        schema = fragment.schema
        hits = fragment.select(
            predicate.compile_batch(schema), predicate.compile_column(schema)
        )
        yield amp.read_run(fragment.name, (0,), sequential=False)
        out[i] = hits
        self.stats["pages_read"] += 1

    def _amp_scan(
        self, amp: Amp, fragment: AmpFragment, predicate: Any,
        out: list[list[tuple]], i: int,
    ) -> Generator[Any, Any, None]:
        schema = fragment.schema
        out[i] = fragment.select(
            predicate.compile_batch(schema), predicate.compile_column(schema)
        )
        n = fragment.num_records
        pages = fragment.num_pages
        self.stats["pages_read"] += pages
        yield amp.read_run(fragment.name, range(pages))
        yield amp.work(
            self.costs.scan_tuple * n + self.costs.page_io_setup * pages
        )

    def _amp_index_select(
        self, amp: Amp, fragment: AmpFragment, predicate: Any,
        out: list[list[tuple]], i: int,
    ) -> Generator[Any, Any, None]:
        attr = predicate.attr
        index = fragment.indexes[attr]
        if isinstance(predicate, ExactMatch):
            ordinals = index.exact(predicate.value)
        else:
            ordinals = index.matching(predicate.low, predicate.high)
        # The whole index is scanned sequentially (hash order, not key
        # order), then each qualifying tuple costs a random data access.
        yield amp.read_run(index.name, range(index.num_pages))
        yield amp.work(self.costs.index_entry * len(index))
        yield amp.read_run(
            fragment.name, map(fragment.page_of_ordinal, ordinals),
            sequential=False,
        )
        yield amp.work(self.costs.scan_tuple * len(ordinals))
        out[i] = [fragment.records[ordinal] for ordinal in ordinals]
        self.stats["pages_read"] += index.num_pages + len(ordinals)

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def _join_phase(
        self, join: SortMergeJoinOp
    ) -> Generator[Any, Any, tuple[list[list[tuple]], Schema]]:
        left_per_amp, left_schema = yield from self._execute(join.left)
        right_per_amp, right_schema = yield from self._execute(join.right)
        left_pos = left_schema.position(join.left_attr)
        right_pos = right_schema.position(join.right_attr)

        left_spools = yield from self._redistribute(
            left_per_amp, left_pos, left_schema,
            exchange=join.left_exchange,
            op_id=join.op_id,
        )
        right_spools = yield from self._redistribute(
            right_per_amp, right_pos, right_schema,
            exchange=join.right_exchange,
            op_id=join.op_id,
        )

        out: list[list[tuple]] = [[] for _ in self.amps]
        yield self._step("smj", join.op_id, "merge", {
            i: self._amp_sort_merge(
                amp, left_spools[i], right_spools[i], left_pos, right_pos,
                left_schema, right_schema, out, i,
            )
            for i, amp in enumerate(self.amps)
        })
        self._count_tuples(
            join.op_id,
            tuples_in=sum(len(s) for s in left_spools)
            + sum(len(s) for s in right_spools),
            tuples_out=sum(len(bucket) for bucket in out),
        )
        return out, join.schema

    def _redistribute(
        self,
        per_amp: list[list[tuple]],
        pos: int,
        schema: Schema,
        exchange: Exchange,
        op_id: str,
    ) -> Generator[Any, Any, list[list[tuple]]]:
        n_amps = len(self.amps)
        if exchange.kind is ExchangeKind.LOCAL:
            self.stats["redistributions_skipped"] += 1
            return per_amp
        route = router(exchange, n_amps)
        buckets: list[list[tuple]] = [[] for _ in range(n_amps)]
        for source in per_amp:
            for record, dest in zip(source, route(source, pos)):
                if type(dest) is int:
                    buckets[dest].append(record)
                else:
                    # Fragment-replicate broadcast of a hot key: one
                    # spool copy per AMP.
                    for amp_no in dest:
                        buckets[amp_no].append(record)
        per_page = max(1, records_per_page(self.config.page_size,
                                           schema.tuple_bytes))
        yield self._step("redist", op_id, "redistribute", {
            i: self._amp_redistribute(
                amp, len(per_amp[i]), len(buckets[i]), per_page, i
            )
            for i, amp in enumerate(self.amps)
        })
        self.stats["tuples_redistributed"] += sum(len(b) for b in buckets)
        return buckets

    def _amp_redistribute(
        self, amp: Amp, n_sent: int, n_received: int, per_page: int, i: int
    ) -> Generator[Any, Any, None]:
        # Sending side: hash and inject into the Y-net page by page.
        yield amp.work(self.costs.redistribute_tuple * n_sent)
        yield self._ship((n_sent + per_page - 1) // per_page)
        # Receiving side: append to a local spool file.
        yield amp.work(self.costs.receive_tuple * n_received)
        spool_pages = (n_received + per_page - 1) // per_page
        yield amp.write_run(
            f"spool.{i}.{self.tag}{self._tmp}", range(spool_pages)
        )
        self.stats["spool_pages"] += spool_pages

    def _amp_sort_merge(
        self,
        amp: Amp,
        left: list[tuple],
        right: list[tuple],
        left_pos: int,
        right_pos: int,
        left_schema: Schema,
        right_schema: Schema,
        out: list[list[tuple]],
        i: int,
    ) -> Generator[Any, Any, None]:
        sorted_left, lstats = external_sort(
            left, key=lambda r: r[left_pos],
            record_bytes=left_schema.tuple_bytes,
            page_size=self.config.page_size,
            memory_bytes=self.config.sort_memory_per_amp,
        )
        sorted_right, rstats = external_sort(
            right, key=lambda r: r[right_pos],
            record_bytes=right_schema.tuple_bytes,
            page_size=self.config.page_size,
            memory_bytes=self.config.sort_memory_per_amp,
        )
        sort_pass_tuples = (
            len(left) * (1 + lstats.merge_passes)
            + len(right) * (1 + rstats.merge_passes)
        )
        yield amp.work(self.costs.sort_tuple_pass * sort_pass_tuples)
        io_pages = lstats.total_page_ios + rstats.total_page_ios
        for spool_no, stats in (("l", lstats), ("r", rstats)):
            file_id = f"sort.{i}.{spool_no}.{self.tag}{self._tmp}"
            n_pages = max(1, stats.n_pages or 1)
            yield amp.write_run(file_id, range(stats.pages_written))
            yield amp.read_run(
                file_id, (p % n_pages for p in range(stats.pages_read))
            )
        self.stats["sort_page_ios"] += io_pages

        matches = _merge_join(sorted_left, sorted_right, left_pos, right_pos)
        yield amp.work(
            self.costs.merge_tuple * (len(left) + len(right))
            + self.costs.join_result_tuple * len(matches)
        )
        out[i] = matches

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def _aggregate_phase(
        self, agg: AggregateOp
    ) -> Generator[Any, Any, tuple[list[list[tuple]], Schema]]:
        if agg.stage == "grouped":
            result = yield from self._grouped_aggregate(agg)
            return result
        if agg.stage == "combine":
            result = yield from self._scalar_aggregate(agg)
            return result
        raise PlanError(f"Teradata model cannot execute stage {agg.stage!r}")

    def _grouped_aggregate(
        self, agg: AggregateOp
    ) -> Generator[Any, Any, tuple[list[list[tuple]], Schema]]:
        """Redistribute on the grouping attribute, then fold per AMP."""
        per_amp, child_schema = yield from self._execute(agg.source)
        group_pos = child_schema.position(agg.group_by)
        value_pos = (
            child_schema.position(agg.attr) if agg.attr is not None else None
        )
        spools = yield from self._redistribute(
            per_amp, group_pos, child_schema,
            exchange=agg.exchange,
            op_id=agg.op_id,
        )
        out: list[list[tuple]] = [[] for _ in self.amps]
        yield self._step("agg", agg.op_id, "fold", {
            i: self._amp_grouped_fold(
                amp, spools[i], group_pos, value_pos, agg.op, out, i
            )
            for i, amp in enumerate(self.amps)
        })
        self._count_tuples(
            agg.op_id,
            tuples_in=sum(len(s) for s in spools),
            tuples_out=sum(len(bucket) for bucket in out),
        )
        return out, agg.schema

    def _amp_grouped_fold(
        self, amp: Amp, rows: list[tuple], group_pos: int,
        value_pos: Optional[int], op: str, out: list[list[tuple]], i: int,
    ) -> Generator[Any, Any, None]:
        yield amp.work(self.costs.aggregate_tuple * len(rows))
        groups: dict[Any, _Accumulator] = {}
        for record in rows:
            acc = groups.setdefault(record[group_pos], _Accumulator())
            acc.fold(record[value_pos] if value_pos is not None else None)
        out[i] = [(group, acc.result(op)) for group, acc in groups.items()]
        self.stats["tuples_aggregated"] += len(rows)

    def _scalar_aggregate(
        self, agg: AggregateOp
    ) -> Generator[Any, Any, tuple[list[list[tuple]], Schema]]:
        """Fold a partial accumulator on every AMP, combine on AMP 0."""
        partial = agg.source
        assert isinstance(partial, AggregateOp)
        per_amp, child_schema = yield from self._execute(partial.source)
        value_pos = (
            child_schema.position(agg.attr) if agg.attr is not None else None
        )
        partials: list[Optional[tuple]] = [None] * len(self.amps)
        yield self._step("agg", partial.op_id, "fold", {
            i: self._amp_partial_fold(amp, per_amp[i], value_pos, partials, i)
            for i, amp in enumerate(self.amps)
        })
        out: list[list[tuple]] = [[] for _ in self.amps]
        yield self._step("agg.combine", agg.op_id, "combine", {
            0: self._amp_combine(self.amps[0], partials, agg.op, out)
        })
        self._count_tuples(
            agg.op_id,
            tuples_in=sum(len(bucket) for bucket in per_amp),
            tuples_out=1,
        )
        return out, agg.schema

    def _amp_partial_fold(
        self, amp: Amp, rows: list[tuple], value_pos: Optional[int],
        partials: list[Optional[tuple]], i: int,
    ) -> Generator[Any, Any, None]:
        yield amp.work(self.costs.aggregate_tuple * len(rows))
        acc = _Accumulator()
        for record in rows:
            acc.fold(record[value_pos] if value_pos is not None else None)
        partials[i] = acc.as_tuple()
        self.stats["tuples_aggregated"] += len(rows)
        # The four-field accumulator ships to the combiner in one package.
        yield self._ship(1)

    def _amp_combine(
        self, amp: Amp, partials: list[Optional[tuple]], op: str,
        out: list[list[tuple]],
    ) -> Generator[Any, Any, None]:
        yield amp.work(self.costs.aggregate_tuple * len(partials))
        total = _Accumulator()
        for values in partials:
            if values is not None:
                total.merge(_Accumulator.from_tuple(values))
        out[0] = [(total.result(op),)]

    # ------------------------------------------------------------------
    # storing results
    # ------------------------------------------------------------------
    def _store_phase(
        self, per_amp: list[list[tuple]], schema: Schema
    ) -> Generator[Any, Any, None]:
        """Redistribute result tuples on the result key and INSERT them.

        "the Teradata insert code is currently optimized for single tuple
        and not bulk updates, at least 3 I/Os are incurred for each tuple
        inserted."
        """
        n_amps = len(self.amps)
        buckets = hash_partition(
            [record for source in per_amp for record in source], 0, n_amps
        )
        per_page = max(
            1, records_per_page(self.config.page_size, schema.tuple_bytes)
        )
        yield self._step("store", self.ir.sink.op_id, "store", {
            i: self._amp_store(amp, per_amp[i], buckets[i], per_page, i)
            for i, amp in enumerate(self.amps)
        })
        self._count_tuples(
            self.ir.sink.op_id,
            tuples_in=sum(len(bucket) for bucket in buckets),
        )
        fragments = [
            AmpFragment(
                f"{self.into}.a{i}", schema, schema.names()[0],
                self.config.page_size, buckets[i],
            )
            for i in range(n_amps)
        ]
        from .machine import TeradataRelation

        self.result_relation = TeradataRelation(
            self.into, schema, schema.names()[0], fragments
        )

    def _amp_store(
        self, amp: Amp, outgoing: list[tuple], incoming: list[tuple],
        per_page: int, i: int,
    ) -> Generator[Any, Any, None]:
        yield amp.work(self.costs.redistribute_tuple * len(outgoing))
        yield self._ship((len(outgoing) + per_page - 1) // per_page)
        # The logged single-tuple INSERT path.
        yield amp.work(self.costs.insert_tuple_cpu * len(incoming))
        io_count = int(len(incoming) * self.config.insert_ios_per_tuple)
        yield amp.write_run(
            f"{self.into}.a{i}", range(io_count), sequential=False
        )
        self.stats["insert_ios"] += io_count


def _merge_join(
    left: list[tuple], right: list[tuple], lpos: int, rpos: int
) -> list[tuple]:
    """Classic sort-merge equi-join with duplicate-run handling."""
    out: list[tuple] = []
    li = ri = 0
    nl, nr = len(left), len(right)
    while li < nl and ri < nr:
        lv = left[li][lpos]
        rv = right[ri][rpos]
        if lv < rv:
            li += 1
        elif lv > rv:
            ri += 1
        else:
            lrun_end = li
            while lrun_end < nl and left[lrun_end][lpos] == lv:
                lrun_end += 1
            rrun_end = ri
            while rrun_end < nr and right[rrun_end][rpos] == rv:
                rrun_end += 1
            for a in range(li, lrun_end):
                for b in range(ri, rrun_end):
                    out.append(left[a] + right[b])
            li, ri = lrun_end, rrun_end
    return out


class TeradataUpdateRun:
    """One single-tuple update on the DBC/1012 (full logging).

    Consumes a compiled :class:`~repro.engine.ir.UpdateIR`: the target
    AMPs, the append's home AMP and whether a modify relocates were all
    decided by the planner; the executor charges the runtime costs.
    """

    #: Updates never cross the Y-net.
    ynet: Optional[Server] = None

    def __init__(
        self, machine: "Any", sim: Simulation, amps: list[Amp],
        update: UpdateIR,
    ) -> None:
        self.machine = machine
        self.costs = machine.costs
        self.config = machine.config
        self.sim = sim
        self.amps = amps
        self.update = update
        self.request = update.request
        self.stats: Counter[str] = Counter()
        self.affected = 0

    def coordinator(self) -> Generator[Any, Any, None]:
        yield Delay(self.costs.update_host_s)
        request = self.request
        if isinstance(request, AppendTuple):
            yield from self._append(request)
        elif isinstance(request, DeleteTuple):
            yield from self._delete(request)
        elif isinstance(request, ModifyTuple):
            yield from self._modify(request)
        else:  # pragma: no cover - closed union
            raise PlanError(f"unknown update {request!r}")

    def _locate(
        self, relation: Any, where: ExactMatch
    ) -> tuple[int, Optional[int]]:
        """(amp, ordinal) of the target tuple, or (amp, None).

        The candidate AMPs were decided at compile time: the key's home
        AMP for a hash-addressed match, every AMP otherwise.
        """
        for amp_no in self.update.sites:
            ordinal = relation.fragments[amp_no].locate(
                where.attr, where.value
            )
            if ordinal is not None:
                return amp_no, ordinal
        return 0, None

    def _update_io(self, amp: Amp, file_id: str) -> UseRun:
        return amp.write_run(
            file_id, range(int(self.costs.update_ios)), sequential=False
        )

    def _append(self, request: AppendTuple) -> Generator[Any, Any, None]:
        relation = self.update.relation
        amp_no = self.update.append_site
        assert amp_no is not None
        amp = self.amps[amp_no]
        fragment = relation.fragments[amp_no]
        fragment.append(request.record)
        yield amp.work(self.costs.update_tuple_cpu)
        yield self._update_io(amp, fragment.name)
        if fragment.indexes:
            yield amp.work(
                self.costs.index_maintenance_cpu * len(fragment.indexes)
            )
            yield self._update_io(amp, fragment.name + ".idx")
        self.affected = 1

    def _delete(self, request: DeleteTuple) -> Generator[Any, Any, None]:
        relation = self.update.relation
        amp_no, ordinal = self._locate(relation, request.where)
        amp = self.amps[amp_no]
        fragment = relation.fragments[amp_no]
        use_index = (
            request.where.attr == relation.key_attr
            or request.where.attr in fragment.indexes
        )
        yield amp.work(
            self.costs.exact_match_cpu if use_index
            else self.costs.scan_tuple * fragment.num_records
        )
        yield amp.read_run(fragment.name, (0,), sequential=False)
        if ordinal is None:
            return
        fragment.remove(ordinal)
        yield amp.work(self.costs.update_tuple_cpu)
        yield self._update_io(amp, fragment.name)
        if fragment.indexes:
            yield amp.work(
                self.costs.index_maintenance_cpu * len(fragment.indexes)
            )
            yield self._update_io(amp, fragment.name + ".idx")
        self.affected = 1

    def _modify(self, request: ModifyTuple) -> Generator[Any, Any, None]:
        relation = self.update.relation
        amp_no, ordinal = self._locate(relation, request.where)
        if ordinal is None:
            yield self.amps[amp_no].work(self.costs.exact_match_cpu)
            return
        amp = self.amps[amp_no]
        fragment = relation.fragments[amp_no]
        yield amp.work(self.costs.exact_match_cpu)
        yield amp.read_run(fragment.name, (0,), sequential=False)
        pos = relation.schema.position(request.attr)
        old = fragment.records[ordinal]
        new_record = old[:pos] + (request.value,) + old[pos + 1:]
        if self.update.relocate:
            # Relocation: delete here, re-hash, insert at the new AMP,
            # and fix every secondary index.
            fragment.remove(ordinal)
            yield amp.work(self.costs.update_tuple_cpu)
            yield self._update_io(amp, fragment.name)
            new_amp_no = relation.amp_of_key(
                request.value, len(self.amps)
            )
            new_amp = self.amps[new_amp_no]
            relation.fragments[new_amp_no].append(new_record)
            yield new_amp.work(self.costs.update_tuple_cpu)
            yield self._update_io(
                new_amp, relation.fragments[new_amp_no].name
            )
            n_indexes = len(fragment.indexes)
            if n_indexes:
                yield new_amp.work(
                    self.costs.index_maintenance_cpu * n_indexes * 2
                )
                yield self._update_io(new_amp, fragment.name + ".idx")
        else:
            index_touched = request.attr in fragment.indexes
            fragment.replace(ordinal, new_record)
            yield amp.work(self.costs.update_tuple_cpu)
            yield self._update_io(amp, fragment.name)
            if index_touched:
                yield amp.work(self.costs.index_maintenance_cpu)
                yield self._update_io(amp, fragment.name + ".idx")
        self.affected = 1
