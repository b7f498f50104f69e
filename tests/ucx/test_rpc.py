"""Tests for the RPC layer over UCP workers."""

import pytest

from repro.errors import RpcTimeout, UCXError
from repro.net import Fabric
from repro.sim import Engine
from repro.ucx import RpcClient, RpcServer, UCPContext


@pytest.fixture
def env():
    eng = Engine()
    fabric = Fabric(eng, latency=0.001, link_bandwidth=1e9)
    ctx_c = UCPContext(eng, fabric, "client-node")
    ctx_s = UCPContext(eng, fabric, "server-node")
    cw = ctx_c.create_worker("cw")
    sw = ctx_s.create_worker("sw")
    return eng, cw, sw


def test_call_and_immediate_reply(env):
    eng, cw, sw = env
    RpcServer(sw, lambda req: req.reply({"echo": req.body}))
    client = RpcClient(cw, sw.address)
    got = []

    def proc():
        resp = yield client.call("echo", body="ping")
        got.append(resp)

    eng.process(proc())
    eng.run()
    assert got == [{"echo": "ping"}]


def test_deferred_reply_after_processing(env):
    eng, cw, sw = env
    pending = []
    RpcServer(sw, pending.append)

    def server_side():
        yield eng.timeout(1.0)  # simulated processing delay
        pending[0].reply("done")

    client = RpcClient(cw, sw.address)
    got = []

    def proc():
        resp = yield client.call("work")
        got.append((eng.now, resp))

    eng.process(proc())
    eng.process(server_side())
    eng.run()
    assert got[0][1] == "done"
    assert got[0][0] >= 1.0


def test_concurrent_calls_correlate_correctly(env):
    eng, cw, sw = env

    def handler(req):
        # Reply out of order: later calls answered first.
        def replier():
            yield eng.timeout(1.0 / req.body)
            req.reply(req.body * 10)

        eng.process(replier())

    RpcServer(sw, handler)
    client = RpcClient(cw, sw.address)
    got = {}

    def proc(n):
        resp = yield client.call("op", body=n)
        got[n] = resp

    for n in (1, 2, 3):
        eng.process(proc(n))
    eng.run()
    assert got == {1: 10, 2: 20, 3: 30}


def test_request_size_adds_serialisation_delay():
    eng = Engine()
    fabric = Fabric(eng, latency=0.0, link_bandwidth=100.0)
    ctx_c = UCPContext(eng, fabric, "c")
    ctx_s = UCPContext(eng, fabric, "s")
    cw = ctx_c.create_worker("w")
    sw = ctx_s.create_worker("w")
    RpcServer(sw, lambda req: req.reply("ok"))
    client = RpcClient(cw, sw.address)
    done = []

    def proc():
        yield client.call("write", body=None, size=200)  # 2 s on the wire
        done.append(eng.now)

    eng.process(proc())
    eng.run()
    assert done[0] >= 2.0


def test_duplicate_reply_rejected(env):
    eng, cw, sw = env
    seen = []
    RpcServer(sw, seen.append)
    client = RpcClient(cw, sw.address)

    def proc():
        yield client.call("x")

    eng.process(proc())
    eng.run(until=0.01)
    req = seen[0]
    req.reply("once")
    with pytest.raises(UCXError):
        req.reply("twice")


def test_request_object_is_the_payload_and_replies_go_to_its_caller(env):
    eng, cw, sw = env
    seen = []
    RpcServer(sw, seen.append)
    client = RpcClient(cw, sw.address)
    sent, real_send = [], cw.send
    replies, real_reply = [], sw.send

    def spy(address, payload, size):
        sent.append(payload)
        return real_send(address, payload, size)

    def reply_spy(address, payload, size):
        replies.append((address, payload))
        return real_reply(address, payload, size)

    cw.send, sw.send = spy, reply_spy
    got = []

    def proc():
        got.append((yield client.call("a", body=1, size=7)))
        got.append((yield client.call("b", body=2)))

    eng.process(proc())
    eng.run(until=0.01)
    seen[0].reply("first")
    eng.run(until=0.02)
    seen[1].reply("second")
    eng.run()
    assert got == ["first", "second"]
    # What the caller built is what the server's callback received.
    assert seen == sent and [r.op for r in seen] == ["a", "b"]
    assert (seen[0].body, seen[0].size, seen[0].reply_to) == (
        1, 7, cw.address)
    assert replies == [(cw.address, (seen[0].cid, "first")),
                       (cw.address, (seen[1].cid, "second"))]


def test_reply_through_closed_worker_raises(env):
    eng, cw, sw = env
    seen = []
    RpcServer(sw, seen.append)
    client = RpcClient(cw, sw.address)
    client.call("a")
    client.call("b")
    eng.run()
    seen[0].reply("the worker is open")
    sw.close()
    with pytest.raises(UCXError):
        seen[1].reply("the worker is gone")
    assert seen[1].replied     # spent, as before: no second attempt
    with pytest.raises(UCXError):
        seen[1].reply()


def test_in_flight_tracking(env):
    eng, cw, sw = env
    pending = []
    RpcServer(sw, pending.append)
    client = RpcClient(cw, sw.address)

    def proc():
        yield client.call("x")

    eng.process(proc())
    eng.run(until=0.01)
    assert client.in_flight == 1
    pending[0].reply()
    eng.run()
    assert client.in_flight == 0


def test_server_counts_calls(env):
    eng, cw, sw = env
    server = RpcServer(sw, lambda req: req.reply())
    client = RpcClient(cw, sw.address)

    def proc():
        yield client.call("a")
        yield client.call("b")

    eng.process(proc())
    eng.run()
    assert server.calls_received == 2


class TestTimeouts:
    def test_unanswered_call_times_out(self, env):
        eng, cw, sw = env
        RpcServer(sw, lambda req: None)  # never replies
        client = RpcClient(cw, sw.address)
        caught = []

        def proc():
            try:
                yield client.call("x", timeout=0.5)
            except RpcTimeout as exc:
                caught.append((eng.now, str(exc)))

        eng.process(proc())
        eng.run()
        assert caught and caught[0][0] == pytest.approx(0.5)
        assert "timed out" in caught[0][1]
        assert client.timeouts == 1
        assert client.in_flight == 0

    def test_reply_before_deadline_wins(self, env):
        eng, cw, sw = env
        RpcServer(sw, lambda req: req.reply("fast"))
        client = RpcClient(cw, sw.address)
        got = []

        def proc():
            got.append((yield client.call("x", timeout=5.0)))

        eng.process(proc())
        eng.run()
        assert got == ["fast"]
        assert client.timeouts == 0

    def test_late_reply_after_timeout_is_unmatched(self, env):
        eng, cw, sw = env
        pending = []
        RpcServer(sw, pending.append)

        def slow_replier():
            yield eng.timeout(1.0)
            pending[0].reply("too late")

        client = RpcClient(cw, sw.address)
        outcome = []

        def proc():
            try:
                yield client.call("x", timeout=0.2)
            except RpcTimeout:
                outcome.append("timeout")

        eng.process(proc())
        eng.process(slow_replier())
        eng.run()
        # The call failed at 0.2 s; the 1 s reply found no pending call
        # and was absorbed, not raised into anyone's process.
        assert outcome == ["timeout"]
        assert client.unmatched_responses == 1

    def test_timed_call_arms_one_timer_and_the_reply_cancels_it(self, env):
        eng, cw, sw = env
        RpcServer(sw, lambda req: req.reply("ok"))
        client = RpcClient(cw, sw.address)
        before = eng.stats()["scheduled_total"]
        done = client.call("x", timeout=5.0)
        # The arrival and the expiry timer: nothing else per timed call.
        assert eng.stats()["scheduled_total"] == before + 2
        eng.run()
        assert done.value == "ok" and client.in_flight == 0
        assert eng.stats()["cancelled_total"] == 1
        assert eng.now < 5.0        # the dead timer did not hold the run

    def test_timeout_names_the_call_it_expired(self, env):
        eng, cw, sw = env
        RpcServer(sw, lambda req: None)
        client = RpcClient(cw, sw.address)
        first = client.call("slow-op", timeout=0.25)
        second = client.call("other", timeout=0.5)
        first.defuse()
        eng.run(until=0.3)
        assert not first.ok and "'slow-op'" in str(first.value)
        assert "0.25s" in str(first.value)
        assert not second.triggered and client.in_flight == 1

    def test_no_timeout_keeps_legacy_behaviour(self, env):
        eng, cw, sw = env
        pending = []
        RpcServer(sw, pending.append)
        client = RpcClient(cw, sw.address)
        got = []

        def proc():
            got.append((yield client.call("x")))

        eng.process(proc())
        eng.run(until=10.0)
        assert got == []            # still waiting, no spurious failure
        pending[0].reply("eventually")
        eng.run()
        assert got == ["eventually"]
