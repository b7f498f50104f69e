"""The progress callback delivers what the dispatcher process delivered.

Until PR 19 every ``UCPContext`` ran a process looping on ``yield
inbox.get()`` over a ``Store`` the fabric filled. :class:`DispatcherContext`
keeps that loop, and only here, as the oracle (with the :class:`Store`,
which left ``repro.sim`` when its last reader did): random arrival
schedules at one node — same-instant bursts, handlers that send, schedule
zero-delay events, close a worker or take the node down with messages
still queued — must produce the same delivery log through both,
interleaving with the handlers' own events included, and the same drop
counts.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net import Fabric, Message
from repro.sim import Engine, Event
from repro.ucx import UCPContext

NODE = "z"
WORKERS = ("w0", "w1")


class Store:
    """An unbounded-or-bounded FIFO queue of arbitrary items.

    ``put(item)`` and ``get()`` both return events. With a finite
    *capacity*, puts block while the store is full.
    """

    def __init__(self, engine, capacity=float("inf")):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self.items = deque()
        self._getters = deque()
        self._putters = deque()

    def __len__(self):
        return len(self.items)

    def put(self, item):
        """Insert *item*; the returned event succeeds once the item is stored."""
        ev = Event(self.engine)
        self._putters.append((ev, item))
        self._dispatch()
        return ev

    def put_nowait(self, item):
        """Insert *item* with no completion event; the store must have
        room (an unbounded store always has)."""
        if self._putters or len(self.items) >= self.capacity:
            raise SimulationError("put_nowait on a full store")
        self.items.append(item)
        if self._getters:
            self._dispatch()

    def get(self):
        """Remove the oldest item; the event's value is the item."""
        ev = Event(self.engine)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def try_get(self):
        """Non-blocking get: pop and return an item, or None if empty."""
        if self.items:
            item = self.items.popleft()
            self._dispatch()
            return item
        return None

    def _admit(self):
        # Admit queued puts while there is room.
        while self._putters and len(self.items) < self.capacity:
            put_ev, item = self._putters.popleft()
            self.items.append(item)
            put_ev.succeed()

    def _dispatch(self):
        self._admit()
        # Satisfy queued gets while items exist; an item left may
        # unblock a putter.
        while self._getters and self.items:
            self._getters.popleft().succeed(self.items.popleft())
            self._admit()


class DispatcherContext(UCPContext):
    """The receive path the progress event replaced: arrivals land in a
    Store, and one dispatcher process per node pulls them out."""

    def __init__(self, engine, fabric, node_name):
        super().__init__(engine, fabric, node_name)
        self.store = Store(engine)
        engine.process(self._dispatch())

    def _arrive(self, message):
        self.store.put_nowait(message)

    def _dispatch(self):
        while True:
            msg = yield self.store.get()
            worker = self.workers.get(msg.worker)
            if worker is None or self.node_name in self.fabric.down:
                self.dropped_count += 1
                continue
            worker.handler(msg)


# One planned message: (gap before it, sending node, destination worker,
# what its handler does). Gap 0 from different senders makes a
# same-instant burst; "ghost" is a worker that never existed.
plans = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.0, 1e-6, 5e-6]),
        st.sampled_from("abc"),
        st.sampled_from(WORKERS + ("ghost",)),
        st.sampled_from(["log", "log", "send", "event", "close-self",
                         "close-other", "down", "down-for-a-while"]),
    ), min_size=1, max_size=25)


def run(context_class, plan, latency):
    eng = Engine()
    fabric = Fabric(eng, latency=latency, link_bandwidth=1e9)
    for name in "abc":
        fabric.add_node(name, lambda msg: None)
    ctx = context_class(eng, fabric, NODE)
    log = []            # position in it = global firing index
    extra = iter(range(len(plan), 10 ** 6))

    def handler(msg):
        ident, action = msg.payload
        log.append((eng.now, "deliver", ident, msg.worker))
        worker = ctx.workers[msg.worker]
        other = WORKERS[1 - WORKERS.index(msg.worker)]
        if action == "send":
            # Loopback: arrives `latency` later (the same instant at 0).
            fabric.send(Message(NODE, NODE, (next(extra), "event"), 0,
                                other))
        elif action == "event":
            tag = next(extra)
            eng.event().succeed().callbacks.append(
                lambda _ev: log.append((eng.now, "event", tag, "")))
        elif action == "close-self":
            worker.close()
        elif action == "close-other" and other in ctx.workers:
            ctx.workers[other].close()
        elif action == "down":
            fabric.set_node_down(NODE)
        elif action == "down-for-a-while":
            fabric.set_node_down(NODE)
            eng.timeout(2e-6).callbacks.append(
                lambda _ev: fabric.set_node_down(NODE, down=False))

    for name in WORKERS:
        ctx.create_worker(name).handler = handler

    def sender():
        for ident, (gap, src, worker, action) in enumerate(plan):
            if gap:
                yield eng.timeout(gap)
            fabric.send(Message(src, NODE, (ident, action), 0, worker))

    eng.process(sender())
    eng.run()
    assert not ctx._inbox and not getattr(ctx, "store", ())  # all handed on
    return log, ctx.dropped_count, fabric.dropped_messages, eng.now


@settings(max_examples=300)
@given(plans, st.sampled_from([0.0, 1e-6]))
def test_progress_callback_delivers_what_the_dispatcher_did(plan, latency):
    assert (run(UCPContext, plan, latency)
            == run(DispatcherContext, plan, latency))


def test_one_message_per_progress_event():
    # Two messages land at one instant; the first handler's zero-delay
    # event fires between the deliveries: the queue is not drained in
    # one event.
    log, dropped, lost, _now = run(
        UCPContext, [(0.0, "a", "w0", "event"), (0.0, "b", "w0", "log")],
        1e-6)
    assert [entry[1:3] for entry in log] == [
        ("deliver", 0), ("event", 2), ("deliver", 1)]
    assert dropped == 0 and lost == 0


def test_context_owns_no_process_and_schedules_none():
    eng = Engine()
    fabric = Fabric(eng)
    before = eng.stats()["scheduled_total"]
    ctx = UCPContext(eng, fabric, "n")
    assert eng.stats()["scheduled_total"] == before
    assert fabric._receivers["n"] == ctx._arrive
