"""One router per exchange: ``skew.router`` and the split tables built on
it send every tuple of every value-routed exchange where a per-value
oracle says it goes, on both sides of the columnar threshold and for
every key type the stable hash handles."""

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import gamma_hash
from repro.engine.bitfilter import BitVectorFilter
from repro.engine.ir import Exchange, ExchangeKind
from repro.engine.skew import router
from repro.engine.split_table import Destination, SplitTable
from repro.errors import PlanError
from repro.hardware import GammaCosts
from repro.storage import Schema, int_attr

VALUE_KINDS = (
    ExchangeKind.HASH, ExchangeKind.RANGE, ExchangeKind.VHASH,
    ExchangeKind.HOT_BROADCAST, ExchangeKind.HOT_SPRAY,
)

#: Around the columnar threshold (32) and well past it.
BATCH_SIZES = (0, 1, 31, 32, 33, 200)

#: Key families a batch is drawn from.  Range exchanges compare keys with
#: their cut points, so one batch never mixes numbers and strings.
IN_RANGE_INTS = st.integers(0, (1 << 61) - 2)
NUMBERS = st.one_of(
    IN_RANGE_INTS,
    st.integers(max_value=-1),
    st.integers(min_value=1 << 61, max_value=1 << 70),
    st.booleans(),
    st.floats(allow_nan=False),
)
STRINGS = st.text(max_size=6)

#: Records are ``(i, key)``: the router reads position 1.
SCHEMA = Schema([int_attr("i"), int_attr("k")])
POS = 1


def _destinations(n):
    return [Destination(f"n{i}", None) for i in range(n)]


def _oracle(exchange, n, values, sprayed=0):
    """Each value's destination, one value at a time, and the spray
    cursor after them (``sprayed`` hot values routed before)."""
    kind = exchange.kind
    out = []
    for value in values:
        if kind in (ExchangeKind.HOT_BROADCAST, ExchangeKind.HOT_SPRAY) and (
            value in exchange.hot_keys
        ):
            if kind is ExchangeKind.HOT_BROADCAST:
                out.append(tuple(range(n)))
            else:
                out.append(sprayed % n)
                sprayed += 1
        elif kind is ExchangeKind.RANGE:
            out.append(bisect_right(list(exchange.boundaries)[: n - 1], value))
        elif kind is ExchangeKind.VHASH:
            vmap = exchange.virtual_map
            out.append(vmap[gamma_hash(value, len(vmap))] % n)
        else:
            out.append(gamma_hash(value, n))
    return out, sprayed


def _plain(dests):
    """Destinations are Python ints (or tuples of them), never numpy's."""
    return all(
        dest is None or type(dest) is int
        or (type(dest) is tuple and all(type(i) is int for i in dest))
        for dest in dests
    )


@st.composite
def routed_batches(draw, kind):
    n = draw(st.integers(1, 9))
    family = draw(st.sampled_from((IN_RANGE_INTS, NUMBERS, STRINGS)))
    pool = draw(st.lists(family, min_size=1, max_size=8))
    size = draw(st.sampled_from(BATCH_SIZES))
    values = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    subset = st.lists(st.sampled_from(pool), max_size=len(pool))
    exchange = Exchange(
        kind, attr="k",
        boundaries=sorted(draw(st.lists(family, max_size=n + 1))),
        virtual_map=tuple(
            draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4 * n))
        ),
        hot_keys=frozenset(draw(st.lists(st.sampled_from(pool), min_size=1))),
    )
    bit_filter = None
    if draw(st.booleans()):
        bit_filter = BitVectorFilter(n_bits=64, n_hashes=2)
        for member in draw(subset):
            bit_filter.add(member)
    return exchange, n, values, bit_filter


@pytest.mark.parametrize("kind", VALUE_KINDS, ids=lambda kind: kind.value)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_value_routing_matches_the_per_value_oracle(kind, data):
    exchange, n, values, bit_filter = data.draw(routed_batches(kind))
    records = [(i, value) for i, value in enumerate(values)]

    routed = router(exchange, n)(records, POS)
    assert routed == _oracle(exchange, n, values)[0]
    assert _plain(routed)

    # The split table: the filter drops first, then only the kept tuples
    # are routed, so the spray cursor advances for kept tuples only —
    # and carries on into the next batch.
    split = SplitTable.by_hash(
        _destinations(n), SCHEMA, "k", GammaCosts(),
        bit_filter=bit_filter, route=router(exchange, n),
    )
    keep = [
        bit_filter is None or bit_filter.might_contain(value)
        for value in values
    ]
    kept = [value for value, ok in zip(values, keep) if ok]
    sprayed = 0
    for _ in range(2):
        expected, sprayed = _oracle(exchange, n, kept, sprayed)
        dests = iter(expected)
        got = split.route_batch(records)
        assert got == [next(dests) if ok else None for ok in keep]
        assert _plain(got)


def test_spray_cursor_skips_filtered_tuples():
    """A hot tuple the bit filter drops takes no turn of the spray."""
    bit_filter = BitVectorFilter(n_bits=64, n_hashes=2)
    bit_filter.add(1)
    assert not bit_filter.might_contain(2)
    spray = Exchange(ExchangeKind.HOT_SPRAY, attr="k", hot_keys={1, 2})
    split = SplitTable.by_hash(
        _destinations(3), SCHEMA, "k", GammaCosts(),
        bit_filter=bit_filter, route=router(spray, 3),
    )
    records = [(0, 2), (1, 1), (2, 2), (3, 1)]
    assert split.route_batch(records) == [None, 0, None, 1]


def test_default_split_is_the_hash_router():
    records = [(i, i * 7919) for i in range(40)]
    split = SplitTable.by_hash(_destinations(5), SCHEMA, "k", GammaCosts())
    hashed = router(Exchange(ExchangeKind.HASH, attr="k"), 5)(records, POS)
    assert split.route_batch(records) == hashed
    assert [split.route(r) for r in records] == hashed


def test_vhash_needs_a_virtual_map():
    with pytest.raises(PlanError, match="virtual_map"):
        router(Exchange(ExchangeKind.VHASH, attr="k"), 4)
