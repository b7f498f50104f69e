"""A one-slice request awaited inside its stream replays the ``AllOf`` wait.

:func:`reference_gather` is ``Client._gather`` without its one-slice
case: every slice runs ``Client._request`` in a ``Process`` of its own
and one ``AllOf`` awaits them all, a one-slice request included.
Patched in for the real one, it must reproduce each cell's sampler
records, final clock, served bytes and fault counters bit for bit. The inline wait drops only zero-delay hops: the stream resumes on
its reply at the same instant, a few places earlier among that
instant's events, so a difference here is a same-instant tie the inline
wait moved.
"""

from dataclasses import replace
from unittest import mock

import pytest

from repro.bb.client import Client
from repro.harness import run_experiment
from repro.harness.experiments import fig07_scenario, outage_scenario


def reference_gather(self, slices):
    """Spawn every slice's request, then await one ``AllOf`` over them all."""
    _WIDTHS.append(len(slices))
    pending = []
    for server, request in slices:
        proc = self.engine.process(self._request(server, request))
        proc.defuse()
        pending.append(proc)
    return (yield self.engine.all_of(pending))


CELLS = {
    "fig07-write-2": lambda seed: fig07_scenario(
        "job-fair", "write", 2, duration=0.06, seed=seed),
    "fig07-read-4": lambda seed: fig07_scenario(
        "job-fair", "read", 4, duration=0.04, seed=seed),
    "fig07-write-4-size-fair": lambda seed: fig07_scenario(
        "size-fair", "write", 4, duration=0.04, seed=seed),
    # Client timeouts on; the crash drops in-flight requests, which
    # retry, fail over and are deduplicated after the restart.
    "outage": lambda seed: outage_scenario(
        n_jobs=3, n_servers=2, duration=1.6, crash_at=0.5,
        restart_at=0.9, seed=seed),
    # The outage with each file striped over two of three servers: every
    # write and read is a two-slice gather under timeouts, and the
    # crash strands one slice of some while the other completes.
    "striped-crash": lambda seed: _striped(outage_scenario(
        n_jobs=3, n_servers=3, duration=1.6, crash_at=0.5,
        restart_at=0.9, seed=seed)),
}

#: Slice count of every gather the reference run awaited.
_WIDTHS = []


def _striped(config):
    return replace(config, cluster=replace(config.cluster, stripe_count=2))


def _observe(config):
    result = run_experiment(config)
    cluster = result.cluster
    s = cluster.sampler
    return (list(zip(s._times, s._jobs, s._bytes, s._ops)),
            cluster.engine.now, cluster.total_served_bytes(),
            cluster.fault_stats.snapshot())


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_inline_wait_matches_allof_wait(cell, seed):
    build = CELLS[cell]
    _WIDTHS.clear()
    with mock.patch.object(Client, "_gather", reference_gather):
        want = _observe(build(seed))
    got = _observe(build(seed))
    assert got[0], "the cell served nothing"
    if cell == "striped-crash":
        # Gathers of two or more slices, timeouts on, through a crash.
        assert build(seed).cluster.client.rpc_timeout > 0
        assert max(_WIDTHS) >= 2
        assert got[3]["server_crashes"] == got[3]["server_recoveries"] == 1
    assert got == want
