"""Tests for λ-delayed fairness: the all-gather merge and the Fig. 5
projection (``placement_shares``)."""

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import (JobInfo, JobStatusTable, Policy, all_gather_merge,
                        placement_shares)
from repro.core.fairness import PlacementMemo

from .placement_reference import reference_placement_shares


def job(jid, size=1, user="u"):
    return JobInfo(job_id=jid, user=f"{user}{jid}", size=size)


class TestAllGather:
    def test_fig5_size_fair_convergence(self):
        """Fig. 5: server 1 sees jobs {1 (16 nodes), 2 (8)}, server 2 sees
        {1 (16), 3 (8)}. Locally job 1 gets 0.66; after sync every server
        computes the global 16:8:8 split and job 1 drops to 0.5."""
        policy = Policy.parse("size-fair")
        t1, t2 = JobStatusTable(), JobStatusTable()
        t1.observe(job(1, size=16), now=0.0)
        t1.observe(job(2, size=8), now=0.0)
        t2.observe(job(1, size=16), now=0.0)
        t2.observe(job(3, size=8), now=0.0)

        local1 = policy.shares(t1.active_jobs())
        assert local1[1] == pytest.approx(2 / 3)

        assert all_gather_merge([t1, t2]) is True
        for table in (t1, t2):
            shares = policy.shares(table.active_jobs())
            assert shares == pytest.approx({1: 0.5, 2: 0.25, 3: 0.25})

    def test_merge_is_order_independent(self):
        tables = [JobStatusTable() for _ in range(3)]
        for i, table in enumerate(tables):
            table.observe(job(i + 1), now=float(i))
        all_gather_merge(tables)
        views = [tuple(j.job_id for j in t.active_jobs()) for t in tables]
        assert views == [(1, 2, 3)] * 3

    def test_second_gather_is_noop(self):
        tables = [JobStatusTable(), JobStatusTable()]
        tables[0].observe(job(1), now=0.0)
        tables[1].observe(job(2), now=0.0)
        assert all_gather_merge(tables) is True
        assert all_gather_merge(tables) is False

    def test_single_table_noop(self):
        t = JobStatusTable()
        t.observe(job(1), now=0.0)
        assert all_gather_merge([t]) is False


class TestPlacementShares:
    def test_fig5_token_adjustment(self):
        """The paper's Fig. 5: job 1 on both servers drops from its local
        0.66 to 0.5 on each; jobs 2 and 3 rise to 0.5 on their server."""
        presence = {"s1": {1, 2}, "s2": {1, 3}}
        global_shares = {1: 0.5, 2: 0.25, 3: 0.25}
        rows = placement_shares(presence, global_shares)
        assert rows["s1"] == pytest.approx({1: 0.5, 2: 0.5})
        assert rows["s2"] == pytest.approx({1: 0.5, 3: 0.5})

    def test_uniform_presence_reduces_to_global_shares(self):
        presence = {"s1": {1, 2}, "s2": {1, 2}}
        global_shares = {1: 0.75, 2: 0.25}
        rows = placement_shares(presence, global_shares)
        for row in rows.values():
            assert row == pytest.approx(global_shares)

    def test_single_server(self):
        rows = placement_shares({"s1": {1, 2}}, {1: 0.6, 2: 0.4})
        assert rows["s1"] == pytest.approx({1: 0.6, 2: 0.4})

    def test_job_absent_from_server_gets_no_segment(self):
        rows = placement_shares({"s1": {1}, "s2": {2}},
                                {1: 0.5, 2: 0.5})
        assert rows["s1"] == pytest.approx({1: 1.0})
        assert rows["s2"] == pytest.approx({2: 1.0})

    def test_infeasible_entitlement_degrades_gracefully(self):
        # Job 1 is entitled to 90% globally (1.8 servers) but present on
        # only one of two servers: it gets that whole server, and job 2
        # the other.
        rows = placement_shares({"s1": {1, 2}, "s2": {2}},
                                {1: 0.9, 2: 0.1})
        assert rows == {"s1": {1: 1.0}, "s2": {2: 1.0}}

    def test_empty_inputs(self):
        assert placement_shares({}, {1: 1.0}) == {}
        assert placement_shares({"s1": set()}, {}) == {"s1": {}}

    @settings(max_examples=40)
    @given(st.integers(2, 4), st.integers(2, 8), st.integers(0, 10_000))
    def test_property_rows_are_distributions(self, n_servers, n_jobs, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        presence = {}
        for s in range(n_servers):
            hosted = {j for j in range(n_jobs) if rng.random() < 0.6}
            presence[f"s{s}"] = hosted
        # Every job must be hosted somewhere.
        for j in range(n_jobs):
            presence[f"s{int(rng.integers(n_servers))}"].add(j)
        weights = rng.random(n_jobs) + 0.05
        shares = {j: float(w / weights.sum()) for j, w in enumerate(weights)}
        rows = placement_shares(presence, shares)
        for server, row in rows.items():
            assert set(row) <= presence[server]
            if row:
                assert sum(row.values()) == pytest.approx(1.0)
                assert all(v > 0 for v in row.values())


#: share values that stress the projection: zero and near-zero shares,
#: ties, one job owning nearly everything (infeasible once it is on few
#: servers).
_SHARE = st.one_of(st.just(0.0), st.sampled_from([1e-12, 1e-3, 0.25, 1.0]),
                   st.floats(1e-9, 4.0, allow_nan=False))

#: Fig. 5: job 1 (16 nodes) on both servers, jobs 2 and 3 (8 nodes each)
#: on one each, size-fair.
FIG5 = ({"s1": {1, 2}, "s2": {1, 3}}, {1: 0.5, 2: 0.25, 3: 0.25})

#: how far a cell may sit from the settled oracle's: the oracle stops
#: once a doubled budget of sweeps moves no cell by more than 1e-9.
ORACLE_ABS = 1e-8

#: two Fig. 5 projections of the full-size ledger ``job_churn`` run (seed
#: 12): 2 servers, one class of jobs on both and one on ``bb1`` only.
#: Near-tight: the one-server class is owed 0.9816 of ``bb1`` (feasible,
#: but slow for RAS to settle); infeasible: it is owed 1.78 of it.
JOB_CHURN = Path(__file__).with_name("placement_job_churn.json")


def _job_churn_input(name):
    case = json.loads(JOB_CHURN.read_text())[name]
    return ({server: set(jobs) for server, jobs in case["presence"].items()},
            {int(job): share for job, share in case["shares"].items()})


@st.composite
def _placement_inputs(draw):
    """Random presence / share maps: servers may be empty, hosted jobs
    may have no share entry, shared jobs may be hosted nowhere, shares
    need not sum to 1 (so targets are usually infeasible)."""
    n_servers = draw(st.integers(0, 6))
    job_ids = draw(st.lists(st.integers(0, 12), unique=True, max_size=9))
    presence = {f"s{i}": set(draw(st.lists(st.integers(0, 12), unique=True,
                                           max_size=6)))
                for i in range(n_servers)}
    shares = {j: draw(_SHARE) for j in job_ids}
    return presence, shares


@st.composite
def _cluster_inputs(draw):
    """Shares over up to 40 jobs and presence rows over 2-128 servers.
    Rows may be one-sided (a job on one server only), stale (hosting
    jobs that have left, so have no share), or empty; some shared jobs
    are hosted nowhere; heavy jobs pinned to few servers make the
    entitlements infeasible."""
    sizes = draw(st.lists(st.integers(1, 64), min_size=1, max_size=40))
    total = float(sum(sizes))
    shares = {j: size / total for j, size in enumerate(sizes)}
    for job_id in draw(st.lists(st.sampled_from(sorted(shares)),
                                max_size=3)):
        shares[job_id] = 0.0
    servers = [f"bb{i:03d}" for i in range(draw(st.integers(2, 128)))]
    presence = {s: set() for s in servers}
    stale = draw(st.lists(st.integers(6000, 6010), max_size=4))
    for job_id in [*shares, *stale]:
        where = draw(st.sampled_from(["nowhere", "one", "some", "all"]))
        if where == "one":
            hosts = [draw(st.sampled_from(servers))]
        elif where == "some":
            hosts = draw(st.lists(st.sampled_from(servers), max_size=6))
        elif where == "all":
            hosts = servers
        else:
            hosts = []
        for server in hosts:
            presence[server].add(job_id)
    return presence, shares


@st.composite
def _connected_inputs(draw):
    """One component: job 0 on each of 1-4 servers, jobs 1-5 on some of
    them, dyadic shares (so every sum, and every tie, is exact) that
    need not sum to 1."""
    n = draw(st.integers(1, 4))
    presence = {f"s{i}": {0} for i in range(n)}
    n_jobs = draw(st.integers(1, 6))
    for job_id in range(1, n_jobs):
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1,
                               unique=True)):
            presence[f"s{i}"].add(job_id)
    shares = {j: draw(st.integers(1, 16)) / 16 for j in range(n_jobs)}
    return presence, shares


@st.composite
def _feasible_inputs(draw):
    """Entitlements some matrix meets: draw the matrix (rows summing to
    1 over the jobs a server hosts, some cells 0, so some inputs are
    tight) and give each job its column total as ``share x n``."""
    n = draw(st.integers(1, 5))
    n_jobs = draw(st.integers(1, 6))
    presence, totals = {}, [0.0] * n_jobs
    for i in range(n):
        hosted = draw(st.lists(st.integers(0, n_jobs - 1), min_size=1,
                               unique=True))
        cells = [draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]))
                 for _ in hosted]
        if not any(cells):
            cells[0] = 1.0
        row_total = sum(cells)
        for job_id, cell in zip(hosted, cells):
            totals[job_id] += cell / row_total
        presence[f"s{i}"] = set(hosted)
    return presence, {j: t / n for j, t in enumerate(totals)}


def assert_rows_match(rows, expected, abs_tol=ORACLE_ABS):
    """Same servers, no job with a cell the oracle lacks, and every cell
    (a missing one reads 0) within *abs_tol* of the oracle's."""
    assert set(rows) == set(expected)
    for server, row in expected.items():
        assert set(rows[server]) <= set(row), server
        for job_id, cell in row.items():
            assert rows[server].get(job_id, 0.0) == pytest.approx(
                cell, rel=0.0, abs=abs_tol), (server, job_id)


def job_totals(rows):
    totals = {}
    for row in rows.values():
        for job_id, cell in row.items():
            totals[job_id] = totals.get(job_id, 0.0) + cell
    return totals


class TestPlacementSharesExact:
    """The answer where it is known in closed form or by the oracle."""

    def test_fig5_example_is_exact(self):
        assert placement_shares(*FIG5) == {"s1": {1: 0.5, 2: 0.5},
                                           "s2": {1: 0.5, 3: 0.5}}

    @settings(max_examples=200)
    @given(_placement_inputs(), st.randoms(use_true_random=False))
    @example(FIG5, random.Random(0))
    def test_relabelling_permutes_rows_and_nothing_else(self, inputs, rng):
        """Servers and jobs renamed in another order: each row moves to
        the new name with the same cells (to rounding: the classes and
        rows are walked in the new order)."""
        presence, shares = inputs
        names = sorted(presence)
        renamed = dict(zip(names, rng.sample([f"t{i}" for i in
                                              range(len(names))],
                                             len(names))))
        jobs = dict(zip(range(13), rng.sample(range(100, 113), 13)))
        rows = placement_shares(presence, shares)
        relabelled = placement_shares(
            {renamed[s]: {jobs[j] for j in sorted(hosted)}
             for s, hosted in presence.items()},
            {jobs[j]: share for j, share in shares.items()})
        assert set(relabelled) == set(renamed.values())
        for server, row in rows.items():
            assert relabelled[renamed[server]] == pytest.approx(
                {jobs[j]: cell for j, cell in row.items()},
                rel=1e-12, abs=0.0)

    def test_one_host_set_splits_cells_in_share_proportion(self):
        """Jobs 2, 3 and 4 share a host set, so they are one class: each
        gets its ``share`` fraction of the class cell, on every server."""
        presence = {"s1": {1, 2, 3, 4}, "s2": {2, 3, 4, 5}, "s3": {1, 5}}
        shares = {1: 0.2, 2: 0.125, 3: 0.25, 4: 0.0625, 5: 0.3625}
        rows = placement_shares(presence, shares)
        assert_rows_match(rows, reference_placement_shares(presence, shares))
        for server in ("s1", "s2"):
            row = rows[server]
            # Power-of-two share ratios survive the float products.
            assert row[3] == 2 * row[2] == 4 * row[4]

    def test_unhosted_and_shareless_jobs_are_ignored(self):
        """Job 8 has a share but no host, job 9 a host but no share, job
        4 a zero share: none gets a cell, none moves the others' cells."""
        presence = {"s1": {1, 2, 9}, "s2": {1, 3, 4}}
        shares = {1: 0.5, 2: 0.25, 3: 0.25, 4: 0.0, 8: 0.5}
        assert placement_shares(presence, shares) == placement_shares(*FIG5)

    def test_cluster_shaped_input_equals_reference(self):
        """The ledger's ``sync_scale`` shape with writers of 16, 6 and 4
        nodes: bb000-bb001, then bb002, then bb003 are owed more than
        they hold, each block less dense than the one before, so no tie
        slows the oracle and it settles."""
        n = 48
        presence = {f"bb{i:03d}": {i} for i in range(n)}
        sizes = {i: 1 for i in range(n)}
        for k, (job_id, size) in enumerate([(900, 16), (901, 6), (902, 4)]):
            sizes[job_id] = size
            for server in sorted(presence)[k:k + 2]:
                presence[server].add(job_id)
        total = float(sum(sizes.values()))
        shares = {j: s / total for j, s in sizes.items()}
        assert_rows_match(placement_shares(presence, shares),
                          reference_placement_shares(presence, shares))


class TestPlacementOracle:
    """The projection against the dense numpy RAS swept until it
    settles, on every input where it does."""

    @settings(max_examples=300)
    @given(_placement_inputs())
    @example(FIG5)
    def test_rows_match_settled_oracle(self, inputs):
        presence, shares = inputs
        expected = reference_placement_shares(presence, shares)
        assume(expected is not None)
        assert_rows_match(placement_shares(presence, shares), expected)

    @settings(max_examples=25)
    @given(_cluster_inputs())
    def test_cluster_shaped_rows_match_settled_oracle(self, inputs):
        presence, shares = inputs
        expected = reference_placement_shares(presence, shares)
        assume(expected is not None)
        assert_rows_match(placement_shares(presence, shares), expected)

    @pytest.mark.parametrize("name", ["near_tight", "infeasible"])
    def test_job_churn_projection(self, name):
        presence, shares = _job_churn_input(name)
        assert_rows_match(placement_shares(presence, shares),
                          reference_placement_shares(presence, shares))


class TestPlacementProperties:
    """What the answer is (``placement_shares``' steps 1-4), checked
    without the oracle."""

    @settings(max_examples=300)
    @given(_placement_inputs())
    @example(FIG5)
    def test_rows_are_distributions_of_hosted_jobs(self, inputs):
        presence, shares = inputs
        rows = placement_shares(presence, shares)
        assert set(rows) == set(presence)
        for server, row in rows.items():
            assert set(row) <= {j for j in presence[server]
                                if shares.get(j, 0.0) > 0}
            assert all(cell > 0 for cell in row.values())
            if row:
                assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200)
    @given(_feasible_inputs())
    @example(FIG5)
    def test_feasible_entitlement_is_met(self, inputs):
        presence, shares = inputs
        n = len(presence)
        totals = job_totals(placement_shares(presence, shares))
        for job_id, share in shares.items():
            assert totals.get(job_id, 0.0) == pytest.approx(
                share * n, rel=0.0, abs=1e-9 + 1e-12 * n), job_id

    @settings(max_examples=300)
    @given(_connected_inputs())
    @example(({"s1": {0, 1}, "s2": {0}}, {0: 0.0625, 1: 0.9375}))
    def test_densest_block_takes_its_servers(self, inputs):
        """The densest set of jobs (share per server hosting any of them;
        the largest one on a tie) is served only on its servers, each of
        its jobs ``share x |servers| / block share`` in all: its
        entitlement divided by the block's density. Where no set is
        denser than all the jobs, that is every entitlement met."""
        presence, shares = inputs
        hosts = {j: {s for s, jobs in presence.items() if j in jobs}
                 for j in shares}
        best, block = Fraction(0), set()
        for size in range(1, len(shares) + 1):
            for jobs in combinations(sorted(shares), size):
                servers = set().union(*(hosts[j] for j in jobs))
                density = sum(Fraction(shares[j]) for j in jobs) / len(servers)
                if density > best:
                    best, block = density, set(jobs)
                elif density == best:
                    block |= set(jobs)
        servers = set().union(*(hosts[j] for j in sorted(block)))
        rows = placement_shares(presence, shares)
        for server in sorted(servers):
            assert set(rows[server]) <= block, server
        totals = job_totals(rows)
        block_share = sum(shares[j] for j in sorted(block))
        for job_id in sorted(block):
            assert totals[job_id] == pytest.approx(
                shares[job_id] * len(servers) / block_share, abs=1e-9)

    @settings(max_examples=200)
    @given(_placement_inputs(), st.sampled_from(["s", "a0", "zz"]))
    @example(FIG5, "s")
    def test_an_idle_server_moves_no_row(self, inputs, name):
        """A server that hosts only jobs with no share (or none) is no
        capacity: it gets an empty row, and no other row moves a bit."""
        presence, shares = inputs
        assume(name not in presence)
        rows = placement_shares(presence, shares)
        idle = {j for j in range(20) if shares.get(j, 0.0) <= 0}
        grown = placement_shares({**presence, name: idle}, shares)
        assert grown == {**rows, name: {}}

    @pytest.mark.parametrize("n", [4, 32, 128])
    def test_sync_scale_shape(self, n):
        """The ledger's ``sync_scale`` shape: one idle job per server and
        heavy writers pinned to overlapping pairs of servers. It is
        exactly tight: jobs 900, 0 and 1 are owed all of bb000-bb001,
        and 901, 902, 2 and 3 all of bb002-bb003, so the oracle's cell
        of job 902 on bb002 shrinks like 1.25 / sweeps and never settles.
        The limit is two forests and the idle servers."""
        presence = {f"bb{i:03d}": {i} for i in range(n)}
        sizes = {i: 1 for i in range(n)}
        for k, (job_id, size) in enumerate([(900, 16), (901, 8), (902, 8)]):
            sizes[job_id] = size
            for server in sorted(presence)[k:k + 2]:
                presence[server].add(job_id)
        total = float(sum(sizes.values()))
        shares = {j: s / total for j, s in sizes.items()}
        expected = {f"bb{i:03d}": {i: 1.0} for i in range(4, n)}
        expected.update({"bb000": {0: 1 / 9, 900: 8 / 9},
                         "bb001": {1: 1 / 9, 900: 8 / 9},
                         "bb002": {2: 1 / 9, 901: 8 / 9},
                         "bb003": {3: 1 / 9, 902: 8 / 9}})
        rows = placement_shares(presence, shares)
        assert set(rows) == set(expected)
        for server, row in expected.items():
            # Shares of 1/160 are not dyadic, so rounding may leave a
            # cell the exact answer does not have, of about 1e-16.
            for job_id in sorted(set(row) | set(rows[server])):
                assert rows[server].get(job_id, 0.0) == pytest.approx(
                    row.get(job_id, 0.0), rel=0.0, abs=1e-15)

    def test_job_churn_infeasible_block(self):
        """The captured infeasible projection: the jobs on ``bb1`` only
        take it whole, the jobs on both servers get all of ``bb0``."""
        presence, shares = _job_churn_input("infeasible")
        rows = placement_shares(presence, shares)
        both = {j for j in presence["bb0"] & presence["bb1"] if j in shares}
        assert set(rows["bb0"]) == both
        assert set(rows["bb1"]) == set(shares) - both

    def test_job_churn_near_tight_is_met(self):
        """The captured near-tight projection is feasible, so met; a
        forest (two servers, one class across both), so with no sweep."""
        presence, shares = _job_churn_input("near_tight")
        totals = job_totals(placement_shares(presence, shares))
        for job_id, share in shares.items():
            assert totals[job_id] == pytest.approx(2 * share, abs=1e-12)


class TestPlacementMemo:
    def test_memoised_rows_are_read_only(self):
        memo = PlacementMemo()
        presence = {"s1": {1, 2}, "s2": {1, 3}}
        shares = {1: 0.5, 2: 0.25, 3: 0.25}
        expected = placement_shares(presence, shares)
        first = placement_shares(presence, shares, memo=memo)
        with pytest.raises(TypeError):
            first["s1"][1] = 99.0
        with pytest.raises(TypeError):
            del first["s1"]
        with pytest.raises(AttributeError):
            first["s2"].clear()
        assert placement_shares(presence, shares, memo=memo) == expected
        # The caller's sets and share map are keyed by content, not held.
        presence["s1"].add(3)
        shares[3] = 0.5
        changed = placement_shares(presence, shares, memo=memo)
        assert changed == placement_shares(presence, shares)
        assert changed != expected
        presence["s1"].discard(3)
        shares[3] = 0.25
        assert placement_shares(presence, shares, memo=memo) == expected
        assert (memo.requests, memo.solves) == (4, 2)

    @settings(max_examples=100)
    @given(_placement_inputs())
    def test_memo_answers_an_equal_input_with_the_same_rows(self, inputs):
        presence, shares = inputs
        memo = PlacementMemo()
        expected = placement_shares(presence, shares)
        for _ in range(2):
            assert placement_shares(presence, shares, memo=memo) == expected
        assert (memo.requests, memo.solves) == (2, 1)

    def test_memo_is_bounded_and_evicts_oldest(self):
        memo = PlacementMemo()
        states = [({"s1": {1, 2}, "s2": {2}}, {1: 0.5, 2: 0.5 + k})
                  for k in range(PlacementMemo.BOUND + 3)]
        for presence, shares in states:
            placement_shares(presence, shares, memo=memo)
            assert len(memo) <= PlacementMemo.BOUND
        assert memo.solves == len(states)
        placement_shares(*states[-1], memo=memo)      # still held
        assert memo.solves == len(states)
        placement_shares(*states[0], memo=memo)       # evicted: solved again
        assert memo.solves == len(states) + 1
        assert len(memo) == PlacementMemo.BOUND

    def test_tol_is_part_of_the_key(self):
        """Three classes on a cycle of three servers: the core is fitted
        by RAS, so *tol* moves the rows."""
        memo = PlacementMemo()
        presence = {"s1": {1, 3}, "s2": {1, 2}, "s3": {2, 3}}
        shares = {1: 0.5, 2: 0.3, 3: 0.2}
        loose = placement_shares(presence, shares, tol=0.1, memo=memo)
        full = placement_shares(presence, shares, memo=memo)
        assert loose == placement_shares(presence, shares, tol=0.1)
        assert_rows_match(full, reference_placement_shares(presence, shares))
        assert loose != full and memo.solves == 2
