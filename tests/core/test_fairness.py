"""Tests for λ-delayed fairness: all-gather merge and unfairness metric."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (JobInfo, JobStatusTable, Policy, all_gather_merge,
                        global_share_error, placement_shares,
                        total_variation)
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
        # Job 1 is entitled to 90% globally but present on only one of
        # two servers: the best it can get is that whole server.
        rows = placement_shares({"s1": {1, 2}, "s2": {2}},
                                {1: 0.9, 2: 0.1})
        assert rows["s1"][1] > 0.9
        assert sum(rows["s1"].values()) == pytest.approx(1.0)

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


#: share values that stress the check: zero and near-zero shares, ties,
#: one job owning nearly everything (infeasible once it is on few servers).
_SHARE = st.one_of(st.just(0.0), st.sampled_from([1e-12, 1e-3, 0.25, 1.0]),
                   st.floats(1e-9, 4.0, allow_nan=False))


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


def assert_rows_match(rows, expected, rel=1e-12):
    """Same servers, same job keys per row, every cell within *rel* of
    the reference's (a sweep-count divergence shows as ~1e-5)."""
    assert set(rows) == set(expected)
    for server, row in expected.items():
        assert set(rows[server]) == set(row), server
        for job_id, cell in row.items():
            assert rows[server][job_id] == pytest.approx(cell, rel=rel,
                                                         abs=0.0)


class TestPlacementSharesExact:
    """The host-set-class solver against the dense numpy reference."""

    @settings(max_examples=300)
    @given(_placement_inputs(), st.sampled_from([0, 1, 7, 100]),
           st.sampled_from([1e-9, 1e-6, 0.0]))
    def test_rows_match_reference_within_1e12(self, inputs, iterations, tol):
        presence, shares = inputs
        expected = reference_placement_shares(presence, shares,
                                              iterations, tol)
        assert_rows_match(placement_shares(presence, shares, iterations, tol),
                          expected)
        memo = PlacementMemo()
        for _ in range(2):
            assert_rows_match(placement_shares(presence, shares, iterations,
                                               tol, memo=memo), expected)
        assert (memo.requests, memo.solves) == (2, 1)

    def test_cluster_shaped_input_equals_reference(self):
        """The ledger's sync_scale shape: one idle job per server plus
        pinned writers on a few — infeasible, so all 100 sweeps run."""
        n = 48
        presence = {f"bb{i:03d}": {i} for i in range(n)}
        sizes = {i: 1 for i in range(n)}
        for k, (job, size) in enumerate([(900, 16), (901, 8), (902, 8)]):
            sizes[job] = size
            for server in sorted(presence)[k:k + 2]:
                presence[server].add(job)
        total = sum(sizes.values())
        shares = {j: s / total for j, s in sizes.items()}
        assert_rows_match(placement_shares(presence, shares),
                          reference_placement_shares(presence, shares))

    def test_fig5_example_is_exact(self):
        rows = placement_shares({"s1": {1, 2}, "s2": {1, 3}},
                                {1: 0.5, 2: 0.25, 3: 0.25})
        assert rows == {"s1": {1: 0.5, 2: 0.5}, "s2": {1: 0.5, 3: 0.5}}

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

    def test_relabelling_permutes_rows_and_nothing_else(self):
        presence = {"a": {1, 2, 7}, "b": {2, 3}, "c": {1, 3, 7}, "d": set()}
        shares = {1: 0.4, 2: 0.3, 3: 0.2, 7: 0.1}
        rows = placement_shares(presence, shares)
        jobs = {1: 30, 2: 7, 3: 1, 7: 2}
        servers = {"a": "z", "b": "m", "c": "b", "d": "a"}
        relabelled = placement_shares(
            {servers[s]: {jobs[j] for j in hosted}
             for s, hosted in presence.items()},
            {jobs[j]: share for j, share in shares.items()})
        assert_rows_match(
            relabelled,
            {servers[s]: {jobs[j]: cell for j, cell in row.items()}
             for s, row in rows.items()})

    def test_unhosted_and_shareless_jobs_are_ignored(self):
        """Job 8 has a share but no host, job 9 a host but no share, job
        4 a zero share: none gets a cell, none moves the others' cells."""
        presence = {"s1": {1, 2, 9}, "s2": {1, 3, 4}}
        shares = {1: 0.5, 2: 0.25, 3: 0.25, 4: 0.0, 8: 0.5}
        rows = placement_shares(presence, shares)
        assert rows == {"s1": {1: 0.5, 2: 0.5}, "s2": {1: 0.5, 3: 0.5}}
        assert_rows_match(rows, reference_placement_shares(presence, shares))

    def test_infeasible_entitlement_runs_every_sweep(self):
        """Job 1 is owed 1.8 servers and hosted on one: the check never
        passes, so each extra sweep still moves the rows."""
        presence, shares = {"s1": {1, 2}, "s2": {2}}, {1: 0.9, 2: 0.1}
        cells = [placement_shares(presence, shares, iterations=n)["s1"][2]
                 for n in (40, 41, 100, 101)]
        assert cells[0] > cells[1] > cells[2] > cells[3] > 0
        assert_rows_match(placement_shares(presence, shares),
                          reference_placement_shares(presence, shares))


class TestPlacementMemo:
    def test_memoised_rows_are_read_only(self):
        memo = PlacementMemo()
        presence = {"s1": {1, 2}, "s2": {1, 3}}
        shares = {1: 0.5, 2: 0.25, 3: 0.25}
        expected = reference_placement_shares(presence, shares)
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
        assert_rows_match(changed,
                          reference_placement_shares(presence, shares))
        assert changed != expected
        presence["s1"].discard(3)
        shares[3] = 0.25
        assert placement_shares(presence, shares, memo=memo) == expected
        assert (memo.requests, memo.solves) == (4, 2)

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

    def test_iterations_and_tol_are_part_of_the_key(self):
        memo = PlacementMemo()
        presence, shares = {"s1": {1, 2}, "s2": {2}}, {1: 0.9, 2: 0.1}
        one = placement_shares(presence, shares, iterations=1, memo=memo)
        full = placement_shares(presence, shares, memo=memo)
        assert_rows_match(one, reference_placement_shares(presence, shares, 1))
        assert_rows_match(full, reference_placement_shares(presence, shares))
        assert one != full and memo.solves == 2


class TestMetrics:
    def test_total_variation_identical(self):
        assert total_variation({1: 0.5, 2: 0.5}, {1: 0.5, 2: 0.5}) == 0.0

    def test_total_variation_disjoint(self):
        assert total_variation({1: 1.0}, {2: 1.0}) == pytest.approx(1.0)

    def test_total_variation_partial(self):
        assert total_variation({1: 0.66, 2: 0.34},
                               {1: 0.5, 2: 0.25, 3: 0.25}) == pytest.approx(0.25)

    def test_global_share_error_is_worst_server(self):
        global_shares = {1: 0.5, 2: 0.25, 3: 0.25}
        locals_ = [{1: 0.5, 2: 0.25, 3: 0.25},  # converged server
                   {1: 2 / 3, 2: 1 / 3}]        # stale server
        err = global_share_error(locals_, global_shares)
        assert err == pytest.approx(total_variation(locals_[1], global_shares))

    def test_global_share_error_empty(self):
        assert global_share_error([], {1: 1.0}) == 0.0
