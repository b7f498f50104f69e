"""A one-slice request awaited inside its stream replays the ``AllOf`` wait.

:func:`reference_gather` is the former ``Client._gather``: every slice is
started with ``Client._start`` (a bare call, or a ``Process`` with client
timeouts on) and one ``AllOf`` awaits them all, a one-slice request
included. Patched in for the real one, it must reproduce each cell's
sampler records, final clock, served bytes and fault counters bit for
bit. The inline wait drops only zero-delay hops: the stream resumes on
its reply at the same instant, a few places earlier among that
instant's events, so a difference here is a same-instant tie the inline
wait moved.
"""

from unittest import mock

import pytest

from repro.bb.client import Client
from repro.harness import run_experiment
from repro.harness.experiments import (fig07_scenario, outage_scenario,
                                       repair_scenario)


def reference_gather(self, slices):
    """Start every slice, then await one ``AllOf`` over them all."""
    pending = []
    for server, request in slices:
        pending.append((yield from self._start(server, request)))
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
    # Erasure writes fan out to several shares; degraded reads mix
    # multi-slice and one-slice gathers.
    "repair": lambda seed: repair_scenario(
        seed=seed, n_jobs=2, nodes=1, n_servers=5, k=2, n_shares=3,
        duration=1.2, crash_at=0.4),
}


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
    with mock.patch.object(Client, "_gather", reference_gather):
        want = _observe(build(seed))
    got = _observe(build(seed))
    assert got[0], "the cell served nothing"
    assert got == want
