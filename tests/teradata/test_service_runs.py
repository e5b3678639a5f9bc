"""Service runs on the DBC/1012: the executor's page and package loops
are ``UseRun``s, and a standalone request serves them on private AMPs.

The reference is the executor as it was before runs existed, kept here:
``read_page`` / ``write_page`` generators and one ``yield Use`` per page
or package, on shared servers.  Every query shape of Tables 1-2, two
aggregates and the six Table 3 updates must charge the simulated machine
exactly what the reference charges it — response time, utilisations,
stats, drive counters, buffer-pool traffic and the LRU's final order.
"""

import pytest

from repro import ExactMatch, Query, RangePredicate, TeradataConfig
from repro.engine.plan import AppendTuple, DeleteTuple, ModifyTuple
from repro.errors import PlanError
from repro.metrics import TelemetrySampler
from repro.sim import Delay, Simulation, Use
from repro.storage import external_sort
from repro.teradata import TeradataMachine
from repro.teradata import machine as machine_module
from repro.teradata.amp import Amp
from repro.teradata.executor import (
    PACKAGE_BYTES,
    TeradataRun,
    TeradataUpdateRun,
    _merge_join,
)
from repro.workloads import WorkloadSpec, mixed_mix, update_mix
from repro.workloads.queries import (
    join_abprime,
    join_aselb,
    join_cselaselb,
    selection_query,
    single_tuple_select,
    update_suite,
)

N = 2_000


# ---------------------------------------------------------------------------
# the per-page reference (the pre-run executor, verbatim where it differed)
# ---------------------------------------------------------------------------


class SpyAmp(Amp):
    """An Amp that leaves itself where the test can inspect it."""

    built: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        SpyAmp.built.append(self)


class ReferenceAmp(SpyAmp):
    def __init__(self, sim, index, config, private=False):
        super().__init__(sim, index, config)  # never private

    def read_page(self, file_id, page_no, sequential=None):
        if self.buffer.access(file_id, page_no):
            return
        yield from self._drive_for(file_id).read(
            file_id, page_no, self.config.page_size, sequential
        )

    def write_page(self, file_id, page_no, sequential=None):
        yield from self._drive_for(file_id).write(
            file_id, page_no, self.config.page_size, sequential
        )
        self.buffer.access(file_id, page_no)


class ReferenceRun(TeradataRun):
    def _amp_exact(self, amp, fragment, predicate, out, i):
        yield amp.work(self.costs.exact_match_cpu)
        pos = fragment.schema.position(predicate.attr)
        hits = [
            r for r in fragment.live_records() if r[pos] == predicate.value
        ]
        yield from amp.read_page(fragment.name, 0, sequential=False)
        out[i] = hits
        self.stats["pages_read"] += 1

    def _amp_scan(self, amp, fragment, predicate, out, i):
        matches = predicate.compile_batch(fragment.schema)(
            list(fragment.live_records())
        )
        out[i] = matches
        n = fragment.num_records
        pages = fragment.num_pages
        self.stats["pages_read"] += pages
        for page_no in range(pages):
            yield from amp.read_page(fragment.name, page_no)
        yield amp.work(
            self.costs.scan_tuple * n + self.costs.page_io_setup * pages
        )

    def _amp_index_select(self, amp, fragment, predicate, out, i):
        attr = predicate.attr
        index = fragment.indexes[attr]
        if isinstance(predicate, ExactMatch):
            ordinals = index.exact(predicate.value)
        else:
            ordinals = index.matching(predicate.low, predicate.high)
        for page_no in range(index.num_pages):
            yield from amp.read_page(index.name, page_no)
        yield amp.work(self.costs.index_entry * len(index.entries))
        hits = []
        for ordinal in ordinals:
            page_no = fragment.page_of_ordinal(ordinal)
            yield from amp.read_page(fragment.name, page_no, sequential=False)
            hits.append(fragment.records[ordinal])
        yield amp.work(self.costs.scan_tuple * len(hits))
        out[i] = hits
        self.stats["pages_read"] += index.num_pages + len(ordinals)

    def _amp_redistribute(self, amp, n_sent, n_received, per_page, i):
        yield amp.work(self.costs.redistribute_tuple * n_sent)
        sent_pages = (n_sent + per_page - 1) // per_page
        for _ in range(sent_pages):
            yield Use(
                self.ynet,
                PACKAGE_BYTES / self.config.network.ring_bandwidth,
            )
        yield amp.work(self.costs.receive_tuple * n_received)
        spool_pages = (n_received + per_page - 1) // per_page
        spool = f"spool.{i}.{self.tag}{self._tmp}"
        for page_no in range(spool_pages):
            yield from amp.write_page(spool, page_no)
        self.stats["spool_pages"] += spool_pages

    def _amp_sort_merge(
        self, amp, left, right, left_pos, right_pos, left_schema,
        right_schema, out, i,
    ):
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
            for page_no in range(stats.pages_written):
                yield from amp.write_page(file_id, page_no)
            for page_no in range(stats.pages_read):
                yield from amp.read_page(
                    file_id, page_no % max(1, stats.n_pages or 1)
                )
        self.stats["sort_page_ios"] += io_pages
        matches = _merge_join(sorted_left, sorted_right, left_pos, right_pos)
        yield amp.work(
            self.costs.merge_tuple * (len(left) + len(right))
            + self.costs.join_result_tuple * len(matches)
        )
        out[i] = matches

    def _amp_partial_fold(self, amp, rows, value_pos, partials, i):
        from repro.engine.operators.aggregate import _Accumulator

        yield amp.work(self.costs.aggregate_tuple * len(rows))
        acc = _Accumulator()
        for record in rows:
            acc.fold(record[value_pos] if value_pos is not None else None)
        partials[i] = acc.as_tuple()
        self.stats["tuples_aggregated"] += len(rows)
        yield Use(
            self.ynet, PACKAGE_BYTES / self.config.network.ring_bandwidth
        )

    def _amp_store(self, amp, outgoing, incoming, per_page, i):
        yield amp.work(self.costs.redistribute_tuple * len(outgoing))
        pages = (len(outgoing) + per_page - 1) // per_page
        for _ in range(pages):
            yield Use(
                self.ynet,
                PACKAGE_BYTES / self.config.network.ring_bandwidth,
            )
        yield amp.work(self.costs.insert_tuple_cpu * len(incoming))
        file_id = f"{self.into}.a{i}"
        io_count = int(len(incoming) * self.config.insert_ios_per_tuple)
        for k in range(io_count):
            yield from amp.write_page(file_id, k, sequential=False)
        self.stats["insert_ios"] += io_count


class ReferenceUpdateRun(TeradataUpdateRun):
    def coordinator(self):
        yield Delay(self.costs.update_host_s)
        request = self.request
        if isinstance(request, AppendTuple):
            yield from self._append(request)
        elif isinstance(request, DeleteTuple):
            yield from self._delete(request)
        elif isinstance(request, ModifyTuple):
            yield from self._modify(request)
        else:
            raise PlanError(f"unknown update {request!r}")

    def _update_io(self, amp, file_id):
        for k in range(int(self.costs.update_ios)):
            yield from amp.write_page(file_id, k, sequential=False)

    def _append(self, request):
        relation = self.update.relation
        amp_no = self.update.append_site
        amp = self.amps[amp_no]
        fragment = relation.fragments[amp_no]
        fragment.append(request.record)
        yield amp.work(self.costs.update_tuple_cpu)
        yield from self._update_io(amp, fragment.name)
        if fragment.indexes:
            yield amp.work(
                self.costs.index_maintenance_cpu * len(fragment.indexes)
            )
            yield from self._update_io(amp, fragment.name + ".idx")
        self.affected = 1

    def _delete(self, request):
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
        yield from amp.read_page(fragment.name, 0, sequential=False)
        if ordinal is None:
            return
        fragment.remove(ordinal)
        yield amp.work(self.costs.update_tuple_cpu)
        yield from self._update_io(amp, fragment.name)
        if fragment.indexes:
            yield amp.work(
                self.costs.index_maintenance_cpu * len(fragment.indexes)
            )
            yield from self._update_io(amp, fragment.name + ".idx")
        self.affected = 1

    def _modify(self, request):
        relation = self.update.relation
        amp_no, ordinal = self._locate(relation, request.where)
        if ordinal is None:
            yield self.amps[amp_no].work(self.costs.exact_match_cpu)
            return
        amp = self.amps[amp_no]
        fragment = relation.fragments[amp_no]
        yield amp.work(self.costs.exact_match_cpu)
        yield from amp.read_page(fragment.name, 0, sequential=False)
        pos = relation.schema.position(request.attr)
        old = fragment.records[ordinal]
        new_record = old[:pos] + (request.value,) + old[pos + 1:]
        if self.update.relocate:
            fragment.remove(ordinal)
            yield amp.work(self.costs.update_tuple_cpu)
            yield from self._update_io(amp, fragment.name)
            new_amp_no = relation.amp_of_key(request.value, len(self.amps))
            new_amp = self.amps[new_amp_no]
            relation.fragments[new_amp_no].append(new_record)
            yield new_amp.work(self.costs.update_tuple_cpu)
            yield from self._update_io(
                new_amp, relation.fragments[new_amp_no].name
            )
            n_indexes = len(fragment.indexes)
            if n_indexes:
                yield new_amp.work(
                    self.costs.index_maintenance_cpu * n_indexes * 2
                )
                yield from self._update_io(new_amp, fragment.name + ".idx")
        else:
            index_touched = request.attr in fragment.indexes
            fragment.replace(ordinal, new_record)
            yield amp.work(self.costs.update_tuple_cpu)
            yield from self._update_io(amp, fragment.name)
            if index_touched:
                yield amp.work(self.costs.index_maintenance_cpu)
                yield from self._update_io(amp, fragment.name + ".idx")
        self.affected = 1


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def _machine(n_amps):
    m = TeradataMachine(TeradataConfig(n_amps=n_amps))
    m.load_wisconsin("A", N, seed=1, secondary_on=["unique2"])
    m.load_wisconsin("B", N, seed=2)
    m.load_wisconsin("Bprime", N // 10, seed=3)
    m.load_wisconsin("C", N // 10, seed=4)
    return m


def _hardware(amps):
    """Everything a run leaves behind on the AMPs."""
    return [
        {
            "drives": [
                (d.pages_read, d.pages_written, d.bytes_moved,
                 d._last_file, d._last_page,
                 d.server.requests, d.server.busy_time,
                 d.server.wait_stats.as_dict())
                for d in amp.drives
            ],
            "cpu": (amp.cpu.requests, amp.cpu.busy_time),
            "buffer": (amp.buffer.hits, amp.buffer.misses,
                       list(amp.buffer._lru)),
        }
        for amp in amps
    ]


def _observe(monkeypatch, reference, call):
    """Run ``call()`` on the current executor or on the reference;
    returns (result, hardware state of the AMPs it built, events)."""
    events = []
    real_run = Simulation.run

    def counting_run(sim, until=None):
        try:
            return real_run(sim, until)
        finally:
            events.append(sim.events_processed)

    with monkeypatch.context() as patch:
        patch.setattr(Simulation, "run", counting_run)
        patch.setattr(
            machine_module, "Amp", ReferenceAmp if reference else SpyAmp
        )
        if reference:
            patch.setattr(machine_module, "TeradataRun", ReferenceRun)
            patch.setattr(
                machine_module, "TeradataUpdateRun", ReferenceUpdateRun
            )
        SpyAmp.built = []
        result = call()
        return result, _hardware(SpyAmp.built), events[-1]


RETRIEVALS = {
    "1% scan": lambda: selection_query("B", N, 0.01, into="out"),
    "10% scan": lambda: selection_query("B", N, 0.10, into="out"),
    "1% index": lambda: selection_query("A", N, 0.01, into="out"),
    "10% index (rejected)": lambda: selection_query("A", N, 0.10, into="out"),
    "0% index": lambda: Query.select(
        "A", RangePredicate("unique2", N + 5, N + 9), into="out"),
    "exact on index": lambda: Query.select("A", ExactMatch("unique2", 77)),
    "single tuple": lambda: single_tuple_select("A", 77),
    "100% to host": lambda: Query.select("Bprime"),
    "joinABprime": lambda: join_abprime("A", "Bprime", key=False, into="out"),
    "joinABprime key": lambda: join_abprime(
        "A", "Bprime", key=True, into="out"),
    "joinAselB": lambda: join_aselb("A", "B", N, key=False, into="out"),
    "joinAselB key": lambda: join_aselb("A", "B", N, key=True, into="out"),
    "joinCselAselB": lambda: join_cselaselb(
        "A", "B", "C", N, key=False, into="out"),
    "joinCselAselB key": lambda: join_cselaselb(
        "A", "B", "C", N, key=True, into="out"),
    "scalar aggregate": lambda: Query.aggregate("A", op="sum", attr="unique2"),
    "grouped aggregate": lambda: Query.aggregate(
        "A", op="count", group_by="ten"),
}


def _same_result(new, old):
    assert new.response_time == old.response_time
    assert new.utilisations == old.utilisations
    assert new.stats == old.stats
    assert new.result_count == old.result_count


@pytest.mark.parametrize("n_amps", [4, 20])
@pytest.mark.parametrize("shape", sorted(RETRIEVALS))
def test_retrieval_matches_the_per_page_reference(
    monkeypatch, shape, n_amps
):
    query = RETRIEVALS[shape]()
    new_m, old_m = _machine(n_amps), _machine(n_amps)
    new, new_hw, new_events = _observe(
        monkeypatch, False, lambda: new_m.run(query))
    old, old_hw, old_events = _observe(
        monkeypatch, True, lambda: old_m.run(query))
    _same_result(new, old)
    assert new_hw == old_hw
    assert new_events <= old_events
    if query.into is None:
        assert sorted(new.tuples) == sorted(old.tuples)
    else:
        assert sorted(new_m.lookup("out").records()) == sorted(
            old_m.lookup("out").records())
    # Watched runs serve hop by hop on the same private AMPs: the same
    # machine to the bit, and the reference's event count exactly.
    for kwargs in ({"profile": True},
                   {"telemetry": TelemetrySampler(interval=0.5)}):
        watched_m = _machine(n_amps)
        watched, hw, events = _observe(
            monkeypatch, False, lambda: watched_m.run(query, **kwargs))
        _same_result(watched, old)
        assert hw == old_hw
        assert events == old_events


@pytest.mark.parametrize("n_amps", [4, 20])
@pytest.mark.parametrize("name", sorted(update_suite("A", N)))
def test_update_matches_the_per_page_reference(monkeypatch, name, n_amps):
    request = update_suite("A", N)[name]
    new_m, old_m, prof_m = (_machine(n_amps) for _ in range(3))
    new, new_hw, new_events = _observe(
        monkeypatch, False, lambda: new_m.update(request))
    old, old_hw, old_events = _observe(
        monkeypatch, True, lambda: old_m.update(request))
    prof, prof_hw, prof_events = _observe(
        monkeypatch, False, lambda: prof_m.update(request, profile=True))
    for result, hw in ((new, new_hw), (prof, prof_hw)):
        _same_result(result, old)
        assert hw == old_hw
    assert new_events <= old_events == prof_events
    if new.result_count:  # three log/data I/Os per touched file: one event
        assert new_events < old_events
    assert sorted(new_m.lookup("A").records()) == sorted(
        old_m.lookup("A").records())


def test_profile_attribution_survives_hop_by_hop_service(monkeypatch):
    """The hook of every hop sees the AMP process that asked for it."""
    query = RETRIEVALS["joinAselB"]()
    new, _, _ = _observe(
        monkeypatch, False, lambda: _machine(4).run(query, profile=True))
    old, _, _ = _observe(
        monkeypatch, True, lambda: _machine(4).run(query, profile=True))
    assert new.profile.to_dict() == old.profile.to_dict()


@pytest.mark.parametrize("mix_name", ["mixed", "updates"])
def test_multiuser_mix_matches_the_per_page_reference(monkeypatch, mix_name):
    """Requests share AMPs here, so nothing is private: every run is
    served hop by hop and the whole timeline is the reference's."""
    spec = WorkloadSpec(
        queries=48, clients=6, think_time=0.05, mpl=4, seed=1988)

    def mix():
        if mix_name == "mixed":
            return mixed_mix("A", "Bprime", N)
        return update_mix("A", N)

    new_m, old_m = _machine(5), _machine(5)
    new, new_hw, new_events = _observe(
        monkeypatch, False, lambda: new_m.run_workload(mix(), spec))
    old, old_hw, old_events = _observe(
        monkeypatch, True, lambda: old_m.run_workload(mix(), spec))
    assert new.to_dict() == old.to_dict()
    assert new.failed == 0
    assert new_hw == old_hw
    assert new_events == old_events
    assert sorted(new_m.lookup("A").records()) == sorted(
        old_m.lookup("A").records())


def test_stored_selection_costs_events_per_amp_not_per_tuple(monkeypatch):
    """A stored 10 % selection inserts ~3 I/Os per result tuple; on
    private AMPs each AMP's share of them is one kernel event."""
    counts = {}
    for n in (N, 4 * N):
        m = TeradataMachine(TeradataConfig(n_amps=8))
        m.load_wisconsin("R", n, seed=5)
        query = selection_query("R", n, 0.10, into="out")
        result, _, events = _observe(monkeypatch, False, lambda: m.run(query))
        assert result.stats["insert_ios"] >= 3 * (n // 10) - 8
        counts[n] = events
    # scan: spawn + read run + cpu; store: spawn + cpu + Y-net packages
    # + cpu + insert run; the coordinator's handful.  Quadrupling the
    # relation adds Y-net packages only.
    assert counts[N] <= 12 * 8 + 8
    assert counts[4 * N] - counts[N] <= (4 * N - N) // 10 // 8 + 8
