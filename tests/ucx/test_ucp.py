"""Tests for UCP contexts, workers, and pools."""

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
        wb.handler = lambda msg: got.append(msg.payload)
        wa.send(wb.address, 42)
        eng.run()
        assert got == [42]

    def test_messages_to_closed_worker_dropped(self, env):
        eng, _, ctx_a, ctx_b = env
        wa = ctx_a.create_worker("w")
        wb = ctx_b.create_worker("w")
        wb.handler = lambda msg: pytest.fail("closed worker got a message")
        wb.close()
        wa.send(wb.address, 1)
        eng.run()
        assert ctx_b.dropped_count == 1

    def test_downed_context_drops_and_counts(self, env):
        eng, fabric, ctx_a, ctx_b = env
        wa = ctx_a.create_worker("w")
        wb = ctx_b.create_worker("w")
        got = []
        wb.handler = lambda msg: got.append(msg.payload)
        # The node goes down after its message arrived, before the
        # progress call hands it on: the context drops it.
        arrive, arrived = fabric._receivers["node-b"], []

        def arrive_then_crash(msg):
            arrive(msg)
            arrived.append(eng.now)
            fabric.set_node_down("node-b")

        fabric._receivers["node-b"] = arrive_then_crash
        wa.send(wb.address, 1)
        eng.run()
        assert arrived == [pytest.approx(0.001)]
        assert got == []
        assert ctx_b.dropped_count == 1 and fabric.dropped_messages == 0
        # Back up: traffic flows again.
        fabric._receivers["node-b"] = arrive
        fabric.set_node_down("node-b", down=False)
        wa.send(wb.address, 2)
        eng.run()
        assert got == [2]

    def test_closed_worker_rejects_use(self, env):
        _, _, ctx_a, _ = env
        w = ctx_a.create_worker("w")
        w.close()
        with pytest.raises(UCXError):
            w.send(("node-b", "w"), None)

    def test_duplicate_worker_name_rejected(self, env):
        _, _, ctx_a, _ = env
        ctx_a.create_worker("w")
        with pytest.raises(UCXError):
            ctx_a.create_worker("w")

    def test_two_workers_one_node_are_isolated(self, env):
        eng, _, ctx_a, ctx_b = env
        wa = ctx_a.create_worker("w")
        w1 = ctx_b.create_worker("one")
        w2 = ctx_b.create_worker("two")
        got = {"one": [], "two": []}
        w1.handler = lambda m: got["one"].append(m.payload)
        w2.handler = lambda m: got["two"].append(m.payload)
        wa.send(w1.address, "for-one")
        wa.send(w2.address, "for-two")
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
