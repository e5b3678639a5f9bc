"""The column filter against the per-tuple loop it stands in for.

A full-fragment selection compares one int column (``storage/column.py``)
instead of every record, on both machines.  These properties hold it,
through random interleavings of writes, to the per-tuple definition
written out here:

* Gamma: every ``StoredFile.filter_pages`` page — ``(page_no, live
  records, matches)`` — and every ``clustered_scan`` page, also when a
  write lands in the middle of the scan;
* Teradata: ``_amp_scan`` and ``_amp_exact`` (what a fragment's
  ``select`` hands back), and the dense index's ``matching``/``exact``
  against a model of its rows in index order.

Values and bounds are drawn to reach every fallback: bounds that are
negative, at 2**31 - 1 and 2**31, past int64, floats and bools; attribute
values past int32 (an int64 column), past int64, bools and strings (no
column at all).
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.plan import ExactMatch, RangePredicate, TruePredicate
from repro.hardware import TeradataConfig
from repro.sim import Simulation
from repro.storage import Schema, StoredFile, int_attr, string_attr
from repro.storage.column import appended, int_column, range_positions
from repro.teradata import hash_key_order
from repro.teradata.amp import Amp, AmpFragment
from repro.teradata.costs import DEFAULT_TERADATA_COSTS
from repro.teradata.executor import TeradataRun

INT32_MAX = 2**31 - 1

#: Values of the filtered attribute, by kind: ``small`` and ``wide``
#: (past int32: an int64 column) take the column; ``huge`` (past int64),
#: ``bool`` and ``str`` take the per-tuple loop.
VALUES = {
    "small": st.integers(-3, 40),
    "wide": st.one_of(
        st.integers(-3, 40),
        st.sampled_from([INT32_MAX, INT32_MAX + 1, -(2**31) - 1, 2**40]),
    ),
    "huge": st.one_of(st.integers(-3, 40), st.just(2**63 + 5)),
    "bool": st.one_of(st.integers(-3, 40), st.booleans()),
    "str": st.text("abc", max_size=2),
}

INT_BOUNDS = st.one_of(
    # Twice, so half the bounds are ints the column answers.
    st.integers(-5, 45),
    st.integers(-5, 45),
    st.sampled_from([
        -1, -(2**31), -(2**31) - 1, INT32_MAX, INT32_MAX + 1,
        2**63, -(2**63) - 1,
    ]),
    st.floats(-5, 45, allow_nan=False),
    st.booleans(),
)


def schema(kind):
    other = string_attr("other", 4) if kind == "str" else int_attr("other")
    return Schema([int_attr("key"), other, int_attr("payload")])


def bound(data, kind):
    return data.draw(st.text("abc", max_size=2) if kind == "str" else INT_BOUNDS)


def predicate(data, kind, attr=None):
    """A predicate on ``attr``: by default ``other`` or, on int kinds,
    ``key``."""
    if attr is None:
        attr = data.draw(st.sampled_from(
            ["other"] if kind == "str" else ["other", "key"]
        ))
    if data.draw(st.booleans()):
        return RangePredicate(attr, bound(data, kind), bound(data, kind))
    return ExactMatch(attr, bound(data, kind))


def per_tuple(predicate, pos, records):
    """The definition: the records the predicate keeps, one by one."""
    if isinstance(predicate, RangePredicate):
        low, high = predicate.low, predicate.high
        return [r for r in records if low <= r[pos] <= high]
    return [r for r in records if r[pos] == predicate.value]


# ---------------------------------------------------------------------------
# the kernels
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.one_of(
        st.integers(-50, 50),
        st.sampled_from([INT32_MAX, INT32_MAX + 1, -(2**31), -(2**31) - 1]),
    ), max_size=40),
    low=INT_BOUNDS,
    high=INT_BOUNDS,
)
def test_range_positions_is_the_comparison(values, low, high):
    column = int_column(lambda: iter(values), len(values))
    fits = all(-(2**31) <= v <= INT32_MAX for v in values)
    assert column.dtype == (np.int32 if fits else np.int64)
    positions = range_positions(column, low, high)
    if type(low) is not int or type(high) is not int:
        assert positions is None
    else:
        assert positions.tolist() == [
            i for i, v in enumerate(values) if low <= v <= high
        ]


@pytest.mark.parametrize("value", [True, 1.0, "1", 2**63, -(2**63) - 1])
def test_int_column_declines_what_it_cannot_hold(value):
    values = [1, value, 2]
    assert int_column(lambda: iter(values), len(values)) is None


@pytest.mark.parametrize("value", [7, INT32_MAX + 1, 2**63 - 1])
def test_appended_widens_only_when_it_must(value):
    column = np.array([1, 2], dtype=np.int32)
    grown = appended(column, value)
    assert grown.tolist() == [1, 2, value]
    assert grown.dtype == (np.int32 if value <= INT32_MAX else np.int64)


@pytest.mark.parametrize("value", [True, 2.0, "x", 2**63])
def test_appended_declines_what_it_cannot_hold(value):
    assert appended(np.array([1], dtype=np.int32), value) is None


# ---------------------------------------------------------------------------
# Gamma: heap and clustered fragments
# ---------------------------------------------------------------------------

def expected_pages(sf, predicate):
    """``filter_pages`` written out: every page, live count, matches."""
    pos = sf.schema.position(predicate.attr)
    return [
        (page_no, page.num_records, per_tuple(predicate, pos, page.live_records()))
        for page_no, page in sf.heap.scan_pages()
    ]


def filtered(sf, predicate):
    return sf.filter_pages(
        predicate.compile_batch(sf.schema), predicate.compile_column(sf.schema)
    )


def check_clustered_scan(sf, low, high):
    _descent, pages = sf.clustered_scan(low, high)
    for page_no, matches in pages:
        records = sf.heap.pages[page_no].live_records()
        assert matches == [r for r in records if low <= r[0] <= high]


def gamma_write(sf, data, kind, serial, clustered, past_page=-1):
    """One random write through the fragment's public surface; a delete
    or replace hits a record on a page after ``past_page``."""
    live = [(rid, r) for rid, r in sf.heap.rids() if rid.page_no > past_page]
    ops = ["append", "delete", "replace"] + ([] if clustered else ["bulk"])
    op = data.draw(st.sampled_from(ops))
    value = data.draw(VALUES[kind])
    if op == "append" or not live:
        # Keys in a narrow range: clustered appends land on full pages
        # and split them.
        sf.append((data.draw(st.integers(0, 30)), value, serial))
    elif op == "bulk":
        sf.heap.bulk_append(
            [(serial, data.draw(VALUES[kind]), serial)
             for _ in range(data.draw(st.integers(1, 5)))]
        )
    else:
        rid, record = live[data.draw(st.integers(0, len(live) - 1))]
        if op == "delete":
            sf.delete_record(rid)
        else:
            sf.replace_record(rid, (record[0], value, serial))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(VALUES)),
       clustered=st.booleans())
def test_gamma_scans_equal_the_per_tuple_loop(data, kind, clustered):
    """128-byte pages hold two records, so writes split clustered pages
    and scans cross many page boundaries."""
    initial = data.draw(st.lists(VALUES[kind], min_size=2, max_size=30))
    records = [(i % 31, v, i) for i, v in enumerate(initial)]
    sf = StoredFile.create(
        "r", schema(kind), 128, records,
        clustered_on="key" if clustered else None,
    )
    serial = len(records)
    for _step in range(data.draw(st.integers(4, 12))):
        pred = predicate(data, kind)
        assert list(filtered(sf, pred)) == expected_pages(sf, pred)
        if clustered and kind != "str":
            check_clustered_scan(sf, bound(data, kind), bound(data, kind))
        gamma_write(sf, data, kind, serial, clustered)
        serial += 1
    pred = predicate(data, kind)
    assert list(filtered(sf, pred)) == expected_pages(sf, pred)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["small", "wide", "str"]),
       clustered=st.booleans())
def test_a_write_mid_scan_hands_the_rest_to_the_loop(data, kind, clustered):
    """Each page is filtered as it stands when the scan reaches it, also
    after a write lands between two pages."""
    initial = data.draw(st.lists(VALUES[kind], min_size=6, max_size=30))
    records = [(i % 31, v, i) for i, v in enumerate(initial)]
    sf = StoredFile.create(
        "r", schema(kind), 128, records,
        clustered_on="key" if clustered else None,
    )
    pred = predicate(data, kind, attr="other")
    pages_at_start = sf.num_pages
    write_after = data.draw(st.integers(0, pages_at_start - 1))
    seen = []
    for page_no, live, matches in filtered(sf, pred):
        page = sf.heap.pages[page_no]
        assert live == page.num_records
        assert matches == per_tuple(pred, 1, page.live_records())
        seen.append(page_no)
        if page_no == write_after:
            gamma_write(sf, data, kind, len(records), clustered, page_no)
    assert seen == list(range(pages_at_start))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_write_mid_clustered_scan_hands_the_rest_to_the_loop(data):
    """The write is a delete: an append that splits a page also writes
    the sparse index the scan is walking."""
    initial = data.draw(st.lists(st.integers(0, 30), min_size=6, max_size=30))
    sf = StoredFile.create(
        "r", schema("small"), 128, [(k, k, i) for i, k in enumerate(initial)],
        clustered_on="key",
    )
    low, high = sorted(data.draw(st.lists(
        st.integers(-2, 32), min_size=2, max_size=2
    )))
    _descent, pages = sf.clustered_scan(low, high)
    write_after = data.draw(st.integers(0, sf.num_pages))
    for step, (page_no, matches) in enumerate(pages):
        records = sf.heap.pages[page_no].live_records()
        assert matches == [r for r in records if low <= r[0] <= high]
        if step == write_after:
            live = list(sf.heap.rids())
            sf.delete_record(live[data.draw(st.integers(0, len(live) - 1))][0])


@pytest.mark.xfail(
    strict=True, raises=IndexError,
    reason="FOUND: BPlusTree.range_entries raises IndexError when a"
    " clustered append splits a data page mid clustered_scan",
)
def test_an_append_that_splits_a_page_mid_clustered_scan():
    """The append the hypothesis test above leaves out (CHANGES, FOUND):
    it splits a data page, so it inserts into the sparse index the scan
    is walking."""
    keys = [0] * 10 + [1]
    sf = StoredFile.create(
        "r", schema("small"), 128, [(k, k, i) for i, k in enumerate(keys)],
        clustered_on="key",
    )
    _descent, pages = sf.clustered_scan(0, 0)
    seen = []
    for step, (_page_no, matches) in enumerate(pages):
        seen.extend(matches)
        if step == 0:
            sf.append((0, 0, 99))
    assert len(seen) >= 10


def test_the_column_is_cached_until_a_write():
    sf = StoredFile.create("r", schema("small"), 128, [(i, i, i) for i in range(20)])
    column = sf.heap.column(1)
    assert sf.heap.column(1) is not None
    assert sf.heap.column(1)[0] is column[0]
    sf.replace_record(next(sf.heap.rids())[0], (0, 99, 0))
    assert sf.heap.column(1)[0] is not column[0]
    assert sf.heap.column(1)[0].tolist()[0] == 99


def test_a_true_predicate_hands_back_every_live_record():
    sf = StoredFile.create("r", schema("small"), 128, [(i, i, i) for i in range(7)])
    pred = TruePredicate()
    pages = list(filtered(sf, pred))
    assert [r for _pg, _live, recs in pages for r in recs] == list(sf.records())


# ---------------------------------------------------------------------------
# Teradata: fragment scans and the dense index
# ---------------------------------------------------------------------------

def amp_step(method, fragment, pred):
    """Run one executor per-AMP step to completion; what it put in
    ``out``.  Its effects are built but not served: the rows are decided
    before the first of them."""
    run = SimpleNamespace(costs=DEFAULT_TERADATA_COSTS, stats=Counter())
    amp = Amp(Simulation(), 0, TeradataConfig())
    out = [None]
    for _effect in method(run, amp, fragment, pred, out, 0):
        pass
    return out[0]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(VALUES)))
def test_teradata_scans_equal_the_per_tuple_loop(data, kind):
    initial = data.draw(st.lists(VALUES[kind], min_size=2, max_size=30))
    fragment = AmpFragment(
        "f", schema(kind), "key", 128,
        hash_key_order([(i, v, i) for i, v in enumerate(initial)], 0),
    )
    fragment.add_index("other")
    index = fragment.indexes["other"]
    model = list(index.entries.items())  # (ordinal, value) in index order
    serial = len(initial)
    for _step in range(data.draw(st.integers(4, 12))):
        live = list(fragment.live_records())
        # ``other`` every time, the attribute replaces change.
        for pred in (predicate(data, kind, "other"), predicate(data, kind)):
            pos = fragment.schema.position(pred.attr)
            rows = amp_step(TeradataRun._amp_scan, fragment, pred)
            assert rows == per_tuple(pred, pos, live)
            assert rows is not fragment.records
            if isinstance(pred, ExactMatch):
                assert amp_step(TeradataRun._amp_exact, fragment, pred) == (
                    per_tuple(pred, pos, live)
                )
        low, high = bound(data, kind), bound(data, kind)
        assert list(index.entries.items()) == model
        assert index.matching(low, high) == [
            o for o, v in model if low <= v <= high
        ]
        assert index.exact(low) == [o for o, v in model if v == low]

        op = data.draw(st.sampled_from(["append", "remove", "replace"]))
        ordinals = [o for o, _v in model]
        value = data.draw(VALUES[kind])
        if op == "append" or not ordinals:
            fragment.append((serial, value, serial))
            model.append((len(fragment.records) - 1, value))
        else:
            ordinal = data.draw(st.sampled_from(ordinals))
            old = fragment.records[ordinal]
            if op == "remove":
                fragment.remove(ordinal)
                model = [(o, v) for o, v in model if o != ordinal]
            else:
                fragment.replace(ordinal, (old[0], value, serial))
                if value != old[1]:  # an equal value stays filed as it was
                    model = [(o, v) for o, v in model if o != ordinal]
                    model.append((ordinal, value))
        serial += 1


@pytest.mark.parametrize("value", [True, 2.5, 2**63 + 5])
def test_dense_index_takes_a_value_no_int_array_holds(value):
    fragment = AmpFragment(
        "f", schema("small"), "key", 128, [(i, i, i) for i in range(6)]
    )
    fragment.add_index("other")
    fragment.replace(2, (2, value, 2))
    fragment.append((6, 3, 6))
    index = fragment.indexes["other"]
    model = [(o, v) for o, v in index.entries.items()]
    assert (2, value) in model and (6, 3) in model
    assert index.matching(0, 10) == [o for o, v in model if 0 <= v <= 10]
    assert index.exact(3) == [o for o, v in model if v == 3]


def test_teradata_full_selection_is_a_copy():
    fragment = AmpFragment(
        "f", schema("small"), "key", 128, [(i, i, i) for i in range(5)]
    )
    rows = amp_step(TeradataRun._amp_scan, fragment, TruePredicate())
    assert rows == fragment.records
    assert rows is not fragment.records
