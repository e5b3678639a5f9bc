"""The Wisconsin benchmark relation generator [BITT83].

Each relation has thirteen 4-byte integer attributes and three 52-byte
string attributes (208 bytes per tuple).  ``unique1`` and ``unique2`` are
independent random permutations of ``0..n-1`` — every tuple has a unique
value for each and the two are uncorrelated within a tuple, exactly as the
paper describes.  The remaining integers are derived from ``unique1``.

Selectivity predicates are ranges on ``unique1``/``unique2``: a predicate
``low <= unique2 < low + n//100`` retrieves exactly 1 % of the relation.

String handling: the benchmark queries in the paper never consult the
string attributes; they exist to pad the tuple to 208 bytes (byte widths
are declared in the schema and billed by the cost model regardless of the
Python value).  To keep 1 M-tuple relations resident, the default mode
stores shared placeholder strings; ``strings="full"`` generates the
classic unique 52-character values.

The relation source: one column-wise builder makes every relation, takes
every integer from one process-wide table (a tuple allocates nothing but
itself, ≈ 170 bytes) and memoises the result per ``(n, seed, strings)``
as an immutable tuple of tuples, so the machines of a process — both
backends, every rebuilt copy — load the same tuple objects.  The memo
entry is a :class:`~repro.catalog.artifacts.SharedRelation`, which is
what ``load_wisconsin`` loads: what a load derives from the relation
(key hash mixes, hash-key order, statistics) is computed by the first
load and kept in the entry.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Literal, Optional, Sequence
from zlib import crc32

from ..catalog.artifacts import SharedRelation
from ..errors import BenchmarkError
from ..storage import Schema, int_attr, string_attr
from ..storage.column import shared_ints

#: Integer attribute names, in tuple order.
INT_ATTRS = (
    "unique1",
    "unique2",
    "two",
    "four",
    "ten",
    "twenty",
    "hundred",
    "thousand",
    "twothous",
    "fivethous",
    "tenthous",
    "odd100",
    "even100",
)

#: String attribute names, in tuple order after the integers.
STRING_ATTRS = ("stringu1", "stringu2", "string4")

#: Width of one Wisconsin tuple: 13*4 + 3*52 = 208 bytes.
TUPLE_BYTES = 208

_STRING4_CYCLE = (
    "A" + "x" * 50 + "A",
    "H" + "x" * 50 + "H",
    "O" + "x" * 50 + "O",
    "V" + "x" * 50 + "V",
)
_PLACEHOLDER = "P" + "x" * 50 + "P"

StringsMode = Literal["cheap", "full"]


def wisconsin_schema() -> Schema:
    """The 16-attribute, 208-byte Wisconsin schema."""
    attrs = [int_attr(name) for name in INT_ATTRS]
    attrs += [string_attr(name) for name in STRING_ATTRS]
    return Schema(attrs)


def _unique_string(value: int) -> str:
    """The classic 52-byte unique string: a base-26 prefix padded with x."""
    letters = []
    v = value
    for _ in range(7):
        letters.append(chr(ord("A") + v % 26))
        v //= 26
    prefix = "".join(reversed(letters))
    return prefix + "x" * (52 - len(prefix))


#: Tuples the relation memo may hold, summed over its relations.  Sized
#: for the largest relation set a registered experiment loads at one grid
#: point: Table 2 at the paper's 1 M-tuple column needs A and B (1 M
#: each) plus Bprime and C (100 k each) on both machines.
MEMO_MAX_TUPLES = 2_200_000

#: ``(n, seed, strings)`` → relation, oldest first.  The relations are
#: tuples of tuples: nothing a loader does can change one, which is what
#: lets every machine in the process reference the same objects (and the
#: entry keep the load artifacts, dropped with it on eviction).
_MEMO: dict[tuple[int, int, str], SharedRelation] = {}


def _ints(n: int) -> list[int]:
    """A fresh list ``[0, .., n-1]`` of the process's shared ``int``
    objects (:func:`~repro.storage.column.shared_ints`).

    The table stops growing at the memo's bound (a larger relation gets
    private ints for the excess), so like the memo it never holds more
    than the largest registered experiment needs.
    """
    return shared_ints(n, MEMO_MAX_TUPLES)


def _cycled(pattern: Sequence, n: int) -> list:
    """``pattern`` repeated out to ``n`` items."""
    return (list(pattern) * (n // len(pattern) + 1))[:n]


def _string_column(values: list[int], strings: StringsMode) -> list[str]:
    if strings == "full":
        return [_unique_string(v) for v in values]
    return [_PLACEHOLDER] * len(values)


def _derived(pattern: Sequence[int], unique1: list[int]) -> list[int]:
    """The column whose value for ``unique1 == v`` is ``pattern`` cycled
    out to position ``v``."""
    by_value = _cycled(pattern, len(unique1))
    return [by_value[u1] for u1 in unique1]


def _columns(
    unique1: list[int], unique2: list[int], strings: StringsMode
) -> list[list]:
    """The sixteen attribute columns, in schema order, of the relation
    whose first two columns are given.

    ``unique1`` holds each of ``0..n-1`` once, as the shared ints; every
    derived integer is looked up by ``unique1`` value in a list of those
    same objects, so the rows zipped from the columns allocate nothing
    but themselves.
    """
    n = len(unique1)
    ints = _ints(min(n, 10_000))
    patterns = [
        ints[:modulus]
        for modulus in (2, 4, 10, 20, 100, 1000, 2000, 5000, 10000)
    ] + [range(1, 100, 2), range(2, 101, 2)]  # odd100, even100
    return [
        unique1,
        unique2,
        *(_derived(pattern, unique1) for pattern in patterns),
        _string_column(unique1, strings),
        _string_column(unique2, strings),
        _cycled(_STRING4_CYCLE, n),
    ]


def _check_size(n: int) -> None:
    if n < 1:
        raise BenchmarkError(f"relation needs >= 1 tuple, got {n}")


def wisconsin_relation(
    n: int, seed: int = 0, strings: StringsMode = "cheap"
) -> tuple[tuple, ...]:
    """The ``n``-tuple Wisconsin relation for ``seed``, built once per
    process.

    Every caller asking for the same ``(n, seed, strings)`` gets the same
    immutable tuple of tuples, so relations loaded on several machines —
    both backends of a table, the rebuilt machines of a repetition —
    share their tuple objects and each machine only adds its own record
    lists, pages and indexes.  The memo drops its oldest relations once
    it holds more than :data:`MEMO_MAX_TUPLES`; a relation larger than
    that is built and returned but not kept.
    """
    return _shared(n, seed, strings).rows


def _shared(n: int, seed: int, strings: StringsMode) -> SharedRelation:
    """The memo entry of :func:`wisconsin_relation`: the relation and the
    load artifacts derived from it, evicted together."""
    _check_size(n)
    key = (n, seed, strings)
    shared = _MEMO.get(key)
    if shared is None:
        rng = random.Random(seed)
        unique1 = _ints(n)
        rng.shuffle(unique1)
        unique2 = _ints(n)
        rng.shuffle(unique2)
        shared = SharedRelation(
            tuple(zip(*_columns(unique1, unique2, strings)))
        )
        if n <= MEMO_MAX_TUPLES:
            _MEMO[key] = shared
            held = sum(size for size, _seed, _strings in _MEMO)
            for oldest in list(_MEMO):
                if held <= MEMO_MAX_TUPLES:
                    break
                del _MEMO[oldest]
                held -= oldest[0]
    return shared


def wisconsin_load_set(
    name: str, n: int, seed: Optional[int], strings: StringsMode
) -> tuple[Schema, SharedRelation]:
    """What ``load_wisconsin(name, n, seed, strings=...)`` loads on either
    machine: the schema and the shared relation, with its artifacts."""
    if seed is None:
        # crc32, not builtin hash: string hashing is salted per process,
        # and a per-run default seed would defeat reproducibility.
        seed = crc32(name.encode("utf-8")) % (2**31)
    return wisconsin_schema(), _shared(n, seed, strings)


def generate_tuples(
    n: int,
    seed: int = 0,
    strings: StringsMode = "cheap",
) -> Iterator[tuple]:
    """Iterate over ``n`` Wisconsin tuples (deterministic for a given
    seed) — the tuples of :func:`wisconsin_relation`."""
    return iter(wisconsin_relation(n, seed, strings))


#: Largest accepted value for the ``skew`` knob (a Zipf exponent much
#: beyond this concentrates nearly the whole relation on a handful of
#: keys, which the ``hot_fraction`` generator models more directly).
MAX_SKEW = 1.5


def _zipf_sampler(domain: int, skew: float, rng: random.Random):
    """Value → ``0..domain-1`` sampler with Zipf(``skew``) frequencies.

    Inverse-CDF over the cumulative weights ``1/k^skew``; ``skew=0`` is
    the uniform distribution.  Pure function of ``rng``'s stream, so a
    seeded generator reproduces the same draws on every platform.
    """
    weights = [1.0 / (k ** skew) for k in range(1, domain + 1)]
    cumulative = list(accumulate(weights))
    total = cumulative[-1]

    def draw() -> int:
        return bisect_left(cumulative, rng.random() * total)

    return draw


def generate_skewed_tuples(
    n: int,
    seed: int = 0,
    skew: float = 0.0,
    skew_attr: str = "unique2",
    domain: int | None = None,
    strings: StringsMode = "cheap",
) -> Iterator[tuple]:
    """Wisconsin tuples with one attribute drawn from a Zipf distribution.

    ``skew_attr`` (default ``unique2``, the paper's usual join/selection
    attribute) is replaced by i.i.d. draws from Zipf(``skew``) over
    ``0..domain-1`` (``domain`` defaults to ``n``): ``skew=0.0`` is
    uniform, ``skew=1.0`` the classic Zipf where the hottest value draws
    ≈``1/ln(domain)`` more weight per rank, and the cap ``skew=1.5``
    concentrates most of the relation on a handful of keys.  Everything
    else — ``unique1`` a seeded permutation, the derived ints, the
    strings — matches :func:`generate_tuples`, so skewed relations load
    and cost identically per tuple.

    Deterministic for a given ``(n, seed, skew, domain)``.
    """
    if not 0.0 <= skew <= MAX_SKEW:
        raise BenchmarkError(
            f"skew {skew} out of [0, {MAX_SKEW}] (Zipf exponent)"
        )
    domain = n if domain is None else domain
    if domain < 1:
        raise BenchmarkError(f"domain needs >= 1 value, got {domain}")

    def zipf_draws(rng: random.Random):
        return _zipf_sampler(domain, skew, rng)

    return _generate_with_sampler(n, seed, zipf_draws, skew_attr, strings)


def generate_hot_key_tuples(
    n: int,
    seed: int = 0,
    hot_fraction: float = 0.5,
    hot_value: int = 0,
    skew_attr: str = "unique2",
    domain: int | None = None,
    strings: StringsMode = "cheap",
) -> Iterator[tuple]:
    """Wisconsin tuples where one single value carries ``hot_fraction``
    of the relation — the worst case for hash partitioning, and the case
    fragment-replicate (``hot-broadcast``) redistribution is built for.

    Each tuple's ``skew_attr`` is ``hot_value`` with probability
    ``hot_fraction``, else uniform over ``0..domain-1``.  Deterministic
    for a given ``(n, seed, hot_fraction, domain)``.
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise BenchmarkError(
            f"hot_fraction {hot_fraction} out of [0, 1]"
        )
    domain = n if domain is None else domain

    def hot_draws(rng: random.Random):
        def draw() -> int:
            if rng.random() < hot_fraction:
                return hot_value
            return rng.randrange(domain)

        return draw

    return _generate_with_sampler(n, seed, hot_draws, skew_attr, strings)


def _generate_with_sampler(
    n: int, seed: int, make_draw, skew_attr: str, strings: StringsMode
) -> Iterator[tuple]:
    """Rows whose ``skew_attr`` column is ``n`` draws taken after the
    ``unique1`` shuffle; every other column comes from :func:`_columns`
    (``unique2`` repeats ``unique1`` when it is not the skewed one)."""
    _check_size(n)
    if skew_attr not in INT_ATTRS:
        raise BenchmarkError(
            f"skew_attr {skew_attr!r} is not a Wisconsin integer attribute"
        )
    rng = random.Random(seed)
    unique1 = _ints(n)
    rng.shuffle(unique1)
    draw = make_draw(rng)
    skewed = [draw() for _ in range(n)]
    skew_pos = INT_ATTRS.index(skew_attr)
    if skew_pos == 1:
        columns = _columns(unique1, skewed, strings)
    else:
        columns = _columns(unique1, unique1, strings)
        columns[skew_pos] = skewed
        stringu2 = len(INT_ATTRS) + STRING_ATTRS.index("stringu2")
        columns[stringu2] = _string_column(skewed, strings)
    return zip(*columns)


@dataclass(frozen=True)
class SelectivityRange:
    """A range predicate on a unique attribute with known selectivity."""

    attr: str
    low: int
    high: int  # inclusive

    @property
    def count(self) -> int:
        return self.high - self.low + 1


def selection_range(
    n: int,
    selectivity: float,
    attr: str = "unique2",
    offset_fraction: float = 0.25,
) -> SelectivityRange:
    """A range on a unique attribute retrieving ``selectivity * n`` tuples.

    ``selectivity=0.0`` produces an empty range below any stored key (the
    paper's 0 % queries still scan but emit nothing).
    """
    if not 0.0 <= selectivity <= 1.0:
        raise BenchmarkError(f"selectivity {selectivity} out of [0, 1]")
    k = round(n * selectivity)
    if k == 0:
        return SelectivityRange(attr, -2, -1)
    low = int(n * offset_fraction)
    if low + k > n:
        low = n - k
    return SelectivityRange(attr, low, low + k - 1)
