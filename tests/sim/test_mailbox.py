"""``Mailbox`` against the counting consumer it absorbs marks for.

Every sender closes its stream with one mark.  The reference is a plain
:class:`Store` read by a generator that counts the marks itself — take
an item, if it is a mark count it and ask again, stop at the last one —
which is how every input-port consumer ran before the mailbox.  On a
:class:`Mailbox` the consumer only ever receives data and the last mark.
Everything the simulation can see must be the same: when and in what
order the consumer receives, when it finishes, the clock, the number of
kernel events and the final sequence number.  Items arrive both by a
process ``Put`` and by ``Store._deliver`` (a network courier's last
stage), at instants shared with other arrivals and with a bystander
process.
"""

from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Delay, Get, Mailbox, Put, Simulation, Store


class Mark:
    """A sender's closing mark."""

    __slots__ = ("sender",)

    def __init__(self, sender: int) -> None:
        self.sender = sender

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Mark({self.sender})"


#: A stream: (delay before the item, item); the sender's mark follows
#: its last step, after ``close`` more seconds.
Stream = tuple[list[tuple[float, str]], float]


def _run(
    streams: list[tuple[str, Stream]], busy: float, mailbox: bool
) -> dict[str, Any]:
    """Run ``streams`` (each sent by ``"put"`` or ``"deliver"``) into one
    consumer that works ``busy`` seconds per data item."""
    sim = Simulation()
    log: list[tuple[Any, ...]] = []
    heads: list[str] = []  # what the consumer's Gets found first
    n = len(streams)
    if mailbox:
        store: Store = Mailbox("box", Mark)
        store.expected = n
    else:
        store = Store("box")

    def counting_consumer():
        seen = 0
        while seen < n:
            item = yield Get(store)
            if type(item) is Mark:
                seen += 1
                continue
            log.append(("recv", sim.now, item))
            yield Delay(busy)
        log.append(("done", sim.now))
        return None

    def consumer():
        while True:
            heads.append(
                type(store._items[0]).__name__ if len(store) else "empty"
            )
            item = yield Get(store)
            if type(item) is Mark:
                break
            log.append(("recv", sim.now, item))
            yield Delay(busy)
        log.append(("done", sim.now))
        return item.sender

    def put_sender(steps, close, sender):
        for delay, item in steps:
            yield Delay(delay)
            yield Put(store, item)
        yield Delay(close)
        yield Put(store, Mark(sender))

    def deliver_sender(steps, close, sender):
        """A callback chain: each item is delivered by an event of its
        own, the mark last, and nothing resumes after a delivery."""
        chain = [*steps, (close, Mark(sender))]

        def step(i=0):
            store._deliver(sim, chain[i][1])
            if i + 1 < len(chain):
                sim.call_after(chain[i + 1][0], lambda: step(i + 1))

        sim.call_after(chain[0][0], step)

    def bystander():
        # Draws sequence numbers at the instants the senders use, and
        # takes a zero-delay step there: a wake-up posted at a different
        # sequence draw lands on the other side of its "tock".
        for _ in range(8):
            log.append(("tick", sim.now))
            yield Delay(0.0)
            log.append(("tock", sim.now))
            yield Delay(0.5)

    proc = sim.spawn(consumer() if mailbox else counting_consumer())
    for sender, (how, (steps, close)) in enumerate(streams):
        if how == "put":
            sim.spawn(put_sender(steps, close, sender))
        else:
            deliver_sender(steps, close, sender)
    sim.spawn(bystander())
    sim.run()
    return {
        "log": log, "now": sim.now, "events": sim.events_processed,
        "seq": sim._seq, "heads": heads, "left": len(store),
        "closer": proc.value,
    }


def _same(streams, busy=0.0):
    """Run ``streams`` both ways, assert they agree, and return the
    mailbox run's ``heads`` and the consumer's finishing time and the
    sender whose mark ended its stream."""
    reference = _run(streams, busy, mailbox=False)
    shipped = _run(streams, busy, mailbox=True)
    reference.pop("heads")
    heads = shipped.pop("heads")
    # The reference counts marks and cannot say which one ended it.
    assert reference.pop("closer") is None
    closer = shipped.pop("closer")
    assert shipped == reference
    (done,) = [entry[1] for entry in shipped["log"] if entry[0] == "done"]
    return heads, (done, closer)


def test_a_non_final_mark_is_absorbed_while_the_consumer_waits(monkeypatch):
    absorbed: list[tuple[float, int]] = []
    absorb = Mailbox._absorb

    def spy(self, resume):
        absorbed.append((len(self), self.marks))
        absorb(self, resume)

    monkeypatch.setattr(Mailbox, "_absorb", spy)
    heads, done = _same([
        ("deliver", ([], 1.0)),
        ("put", ([(2.0, "a")], 1.0)),
    ])
    # The first mark found the consumer waiting and was absorbed with
    # nothing behind it; the consumer asked twice, not three times.
    assert absorbed == [(0, 1)]
    assert heads == ["empty", "empty"]
    assert done == (3.0, 1)


def test_data_in_the_same_instant_reaches_the_absorbing_get(monkeypatch):
    absorbed: list[int] = []
    absorb = Mailbox._absorb

    def spy(self, resume):
        absorbed.append(len(self))
        absorb(self, resume)

    monkeypatch.setattr(Mailbox, "_absorb", spy)
    # Both deliveries fire at t=1, the mark's first: the packet lands
    # after the mark was handed over and before its wake-up fires.
    heads, done = _same([
        ("deliver", ([], 1.0)),
        ("deliver", ([(1.0, "same instant")], 2.0)),
    ])
    assert absorbed == [1]
    assert done == (3.0, 1)


def test_a_mark_at_the_head_of_the_queue(monkeypatch):
    absorbed: list[int] = []
    absorb = Mailbox._absorb

    def spy(self, resume):
        absorbed.append(len(self))
        absorb(self, resume)

    monkeypatch.setattr(Mailbox, "_absorb", spy)
    # The consumer works 2 s on "first"; meanwhile a mark and then more
    # data queue up, so its next Get finds the mark first.
    heads, done = _same(
        [
            ("put", ([(0.5, "first")], 0.5)),
            ("deliver", ([(1.5, "behind")], 0.5)),
        ],
        busy=2.0,
    )
    assert "Mark" in heads
    assert absorbed == [2]  # "behind" and the last mark wait behind it
    assert done[1] == 1


def test_the_final_mark_ends_the_stream_in_its_own_wake_up():
    # A single sender: its mark is the final one and is never absorbed.
    heads, done = _same([("deliver", ([], 2.0))])
    assert heads == ["empty"] and done == (2.0, 0)
    # Six arrivals and three marks in one instant: two are absorbed and
    # the consumer ends on whichever mark is handed over last.
    heads, done = _same([
        ("put", ([(0.5, "a"), (0.0, "b")], 0.0)),
        ("deliver", ([(0.5, "c")], 0.0)),
        ("deliver", ([], 0.5)),
    ])
    assert done[0] == 0.5


_delays = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
_streams = st.lists(
    st.tuples(
        st.sampled_from(["put", "deliver"]),
        st.tuples(
            st.lists(st.tuples(_delays, st.sampled_from("xyz")), max_size=4),
            _delays,
        ),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(streams=_streams, busy=_delays)
def test_any_mix_of_streams_matches_the_counting_consumer(streams, busy):
    _same(streams, busy)
