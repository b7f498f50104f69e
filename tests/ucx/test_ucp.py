"""Tests for UCP contexts, workers, endpoints, and pools."""

import pytest

from repro.errors import UCXError
from repro.net import Fabric
from repro.sim import Engine
from repro.ucx import UCPContext, WorkerPool


@pytest.fixture
def env():
    eng = Engine()
    fabric = Fabric(eng, latency=0.001, link_bandwidth=1e9)
    ctx_a = UCPContext(eng, fabric, "node-a")
    ctx_b = UCPContext(eng, fabric, "node-b")
    return eng, fabric, ctx_a, ctx_b


class TestWorker:
    def test_push_handler_receives(self, env):
        eng, _, ctx_a, ctx_b = env
        wa = ctx_a.create_worker("w")
        wb = ctx_b.create_worker("w")
        got = []
        wb.on("data", lambda msg: got.append(msg.payload))
        wa.create_endpoint(wb.address).send("data", payload=42)
        eng.run()
        assert got == [42]

    def test_handler_drains_queued_messages(self, env):
        eng, _, ctx_a, ctx_b = env
        wa = ctx_a.create_worker("w")
        wb = ctx_b.create_worker("w")
        ep = wa.create_endpoint(wb.address)
        ep.send("late", payload=1)
        ep.send("late", payload=2)
        eng.run()
        got = []
        wb.on("late", lambda msg: got.append(msg.payload))
        assert got == [1, 2]

    def test_tag_isolation(self, env):
        eng, _, ctx_a, ctx_b = env
        wa = ctx_a.create_worker("w")
        wb = ctx_b.create_worker("w")
        got = []
        wb.on("wanted", lambda msg: got.append(msg.payload))
        ep = wa.create_endpoint(wb.address)
        ep.send("other", payload="no")
        ep.send("wanted", payload="yes")
        eng.run()
        assert got == ["yes"]

    def test_messages_to_closed_worker_dropped(self, env):
        eng, _, ctx_a, ctx_b = env
        wa = ctx_a.create_worker("w")
        wb = ctx_b.create_worker("w")
        ep = wa.create_endpoint(wb.address)
        wb.close()
        ep.send("x", payload=1)
        eng.run()
        assert len(ctx_b.dropped) == 1
        assert ctx_b.dropped_count == 1

    def test_dropped_ring_is_bounded(self, env):
        # The diagnostic ring keeps the last 64 messages; the counter
        # keeps the true total (long fault runs must not grow memory).
        eng, _, ctx_a, ctx_b = env
        wa = ctx_a.create_worker("w")
        wb = ctx_b.create_worker("w")
        ep = wa.create_endpoint(wb.address)
        wb.close()
        for i in range(200):
            ep.send("x", payload=i)
        eng.run()
        assert ctx_b.dropped_count == 200
        assert len(ctx_b.dropped) == 64
        assert [m.payload for m in ctx_b.dropped] == list(range(136, 200))

    def test_downed_context_drops_and_counts(self, env):
        eng, _, ctx_a, ctx_b = env
        wa = ctx_a.create_worker("w")
        wb = ctx_b.create_worker("w")
        got = []
        wb.on("data", lambda msg: got.append(msg.payload))
        ctx_b.down = True
        wa.create_endpoint(wb.address).send("data", payload=1)
        eng.run()
        assert got == []
        assert ctx_b.dropped_count == 1
        # Back up: traffic flows again.
        ctx_b.down = False
        wa.create_endpoint(wb.address).send("data", payload=2)
        eng.run()
        assert got == [2]

    def test_closed_worker_rejects_use(self, env):
        _, _, ctx_a, _ = env
        w = ctx_a.create_worker("w")
        w.close()
        with pytest.raises(UCXError):
            w.on("t", lambda m: None)
        with pytest.raises(UCXError):
            w.create_endpoint(("node-b", "w"))

    def test_duplicate_worker_name_rejected(self, env):
        _, _, ctx_a, _ = env
        ctx_a.create_worker("w")
        with pytest.raises(UCXError):
            ctx_a.create_worker("w")

    def test_duplicate_handler_rejected(self, env):
        _, _, ctx_a, _ = env
        w = ctx_a.create_worker("w")
        w.on("t", lambda m: None)
        with pytest.raises(UCXError):
            w.on("t", lambda m: None)

    def test_two_workers_one_node_are_isolated(self, env):
        eng, _, ctx_a, ctx_b = env
        wa = ctx_a.create_worker("w")
        w1 = ctx_b.create_worker("one")
        w2 = ctx_b.create_worker("two")
        got = {"one": [], "two": []}
        w1.on("t", lambda m: got["one"].append(m.payload))
        w2.on("t", lambda m: got["two"].append(m.payload))
        wa.create_endpoint(w1.address).send("t", payload="for-one")
        wa.create_endpoint(w2.address).send("t", payload="for-two")
        eng.run()
        assert got == {"one": ["for-one"], "two": ["for-two"]}


class TestWorkerPool:
    def test_round_robin_assignment(self, env):
        _, _, ctx_a, _ = env
        pool = WorkerPool(ctx_a, "cs-", n_workers=2)
        w1 = pool.assign("client-1")
        w2 = pool.assign("client-2")
        w3 = pool.assign("client-3")
        assert w1 is not w2
        assert w3 is w1  # wraps around: shared worker

    def test_assignment_is_sticky(self, env):
        _, _, ctx_a, _ = env
        pool = WorkerPool(ctx_a, "cs-", n_workers=3)
        assert pool.assign("c") is pool.assign("c")

    def test_release_destroys_mapping(self, env):
        _, _, ctx_a, _ = env
        pool = WorkerPool(ctx_a, "cs-", n_workers=1)
        pool.assign("c")
        assert pool.release("c") is True
        assert pool.mapped_clients == []
        assert pool.release("c") is False

    def test_release_many(self, env):
        _, _, ctx_a, _ = env
        pool = WorkerPool(ctx_a, "cs-", n_workers=2)
        pool.assign("c1")
        pool.assign("c2")
        assert pool.release_many(["c1", "c2", "ghost"]) == 2
        assert pool.mapped_clients == []

    def test_empty_pool_rejected(self, env):
        _, _, ctx_a, _ = env
        with pytest.raises(UCXError):
            WorkerPool(ctx_a, "p-", n_workers=0)
