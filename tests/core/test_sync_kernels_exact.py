"""The λ-sync bookkeeping and token-derivation kernels against their
frozen predecessors (``sync_reference.py``), bit for bit.

Every property demands ``==`` on floats and equal dict key order (the
order a row or an assignment is built in is what later loops walk), and
the same installed objects where the kernel installs by reference. A
tolerance such as ``assert_rows_match``'s 1e-12 would let a reordered
float operation through; these would not.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bb.controller import Controller
from repro.core import JobInfo, JobRecord, JobStatusTable, Policy
from repro.core.matrix import chain_shares
from repro.core.tokens import TokenAssignment
from repro.errors import PolicyError, SchedulerError

from .sync_reference import (ReferenceTokens, reference_chain_shares,
                             reference_learn_presence, reference_merge)

#: every shape the policy language has: flat, user, group + user, with
#: each terminal rule.
POLICIES = ["job-fair", "size-fair", "priority-fair", "user-fair",
            "user-then-size-fair", "user-then-priority-fair",
            "group-then-user-fair", "group-user-then-size-fair",
            "group-user-priority-fair", "group-size-fair"]

_PRIORITY = st.one_of(st.sampled_from([1.0, 0.5, 2.0, 3.3]),
                      st.floats(1e-3, 100.0, allow_nan=False))


@st.composite
def _population(draw, max_jobs=220):
    """A churn-shaped active set: up to 3 groups, 16 users, sizes 1-8,
    ids not in order."""
    ids = draw(st.lists(st.integers(0, 5000), min_size=1, max_size=max_jobs,
                        unique=True))
    return [JobInfo(job_id=j, user=f"u{draw(st.integers(0, 15))}",
                    group=f"g{draw(st.integers(0, 2))}",
                    size=draw(st.integers(1, 8)),
                    priority=draw(_PRIORITY))
            for j in ids]


def _ordered(mapping):
    """A map as its item list, nested maps included: ``==`` on this is
    equality of every value *and* of key order."""
    return [(k, _ordered(v) if isinstance(v, dict) else v)
            for k, v in mapping.items()]


# ------------------------------------------------------------------ Eq. 1
class TestChainShares:
    @settings(max_examples=150)
    @given(st.sampled_from(POLICIES), _population())
    def test_equals_reference(self, policy, jobs):
        levels = Policy.parse(policy).levels
        assert (_ordered(chain_shares(levels, jobs))
                == _ordered(reference_chain_shares(levels, jobs)))

    def test_duplicate_ids_raise_the_same_error(self):
        jobs = [JobInfo(1, "a"), JobInfo(2, "b"), JobInfo(1, "c")]
        levels = Policy.parse("user-fair").levels
        with pytest.raises(PolicyError) as new:
            chain_shares(levels, jobs)
        with pytest.raises(PolicyError) as old:
            reference_chain_shares(levels, jobs)
        assert str(new.value) == str(old.value)


# ------------------------------------------------------------------ tokens
_SHARES = st.dictionaries(
    st.integers(0, 300),
    st.one_of(st.just(0.0), st.floats(1e-12, 50.0, allow_nan=False),
              st.integers(0, 9)),
    min_size=1, max_size=220)

_BAD = st.sampled_from([-0.5, -1e-300, float("nan"), float("inf"),
                        -float("inf")])


def _outcome(make, shares):
    try:
        tokens = make(shares)
    except SchedulerError as err:
        return "error", str(err)
    return tokens.job_ids, tokens._shares, tokens._cum


class TestTokenAssignment:
    @settings(max_examples=150)
    @given(_SHARES)
    def test_equals_reference(self, shares):
        assert _outcome(TokenAssignment, shares) \
            == _outcome(ReferenceTokens, shares)

    @settings(max_examples=150)
    @given(_SHARES)
    def test_recut_values_are_the_shares_or_the_mean(self, shares):
        """What a job holds in a re-cut, in job-id order: its share, or
        the mean share where its share is zero."""
        try:
            reference = ReferenceTokens(shares)
        except SchedulerError:
            return
        mean = 1.0 / len(reference.job_ids)
        assert list(TokenAssignment(shares)._value_of.items()) == [
            (j, s if s > 0 else mean)
            for j, s in zip(reference.job_ids, reference._shares)]

    @settings(max_examples=100)
    @given(_SHARES, st.lists(_BAD, min_size=1, max_size=3),
           st.data())
    def test_same_error_for_the_same_offender(self, shares, bad, data):
        shares = dict(shares)
        for value in bad:
            shares[data.draw(st.integers(0, 300))] = value
        assert _outcome(TokenAssignment, shares) \
            == _outcome(ReferenceTokens, shares)

    @pytest.mark.parametrize("shares", [{}, {1: 0.0}, {1: 0.0, 2: 0},
                                        {1: 1e308, 2: 1e308}])
    def test_same_error_for_a_bad_total(self, shares):
        assert _outcome(TokenAssignment, shares)[0] == "error"
        assert _outcome(TokenAssignment, shares) \
            == _outcome(ReferenceTokens, shares)


# ------------------------------------------------------------ table merge
def _clone(table):
    """A second table holding the same record objects."""
    copy = JobStatusTable(table.heartbeat_timeout)
    copy._entries = dict(table._entries)
    copy._active_ids = set(table._active_ids)
    copy.version = table.version
    return copy


@st.composite
def _merge_case(draw):
    """A receiver table and one sync message for it. The message mixes
    the receiver's own record objects (installed by an earlier merge),
    equal-stamp copies, older and newer stamps, changed job info,
    deactivated records and jobs the receiver has never heard of."""
    table = JobStatusTable(heartbeat_timeout=1.0)
    ids = draw(st.lists(st.integers(0, 40), unique=True, max_size=30))
    for job_id in ids:
        table.observe(JobInfo(job_id, f"u{job_id % 5}"),
                      now=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    table.expire(now=draw(st.sampled_from([0.0, 1.6, 3.5])))
    message = []
    for job_id in draw(st.lists(st.integers(0, 50), max_size=45)):
        mine = table._entries.get(job_id)
        kind = draw(st.sampled_from(["own", "equal", "older", "newer",
                                     "info", "deactivated", "reactivated"]))
        if mine is None:
            info = JobInfo(job_id, f"u{job_id % 5}")
            message.append(JobRecord(info, draw(st.sampled_from(
                [0.0, 1.0, 3.0])), draw(st.booleans())))
        elif kind == "own":
            message.append(mine)
        elif kind == "equal":
            message.append(JobRecord(*mine))
        elif kind == "older":
            message.append(mine._replace(last_heartbeat=mine[1] - 0.25))
        elif kind == "newer":
            message.append(mine._replace(last_heartbeat=mine[1] + 0.25))
        elif kind == "info":
            message.append(JobRecord(
                JobInfo(job_id, "other", size=draw(st.integers(1, 3))),
                mine[1] + draw(st.sampled_from([0.0, 0.25])), mine[2]))
        else:
            message.append(JobRecord(mine[0], mine[1] + 0.25,
                                     kind == "reactivated"))
    return table, message


class TestMerge:
    @settings(max_examples=200)
    @given(_merge_case())
    def test_equals_reference(self, case):
        table, message = case
        expected = _clone(table)
        assert table.merge(message) == reference_merge(expected, message)
        assert list(table._entries) == list(expected._entries)
        assert all(table._entries[j] is expected._entries[j]
                   for j in expected._entries)
        assert table._active_ids == expected._active_ids
        assert table.version == expected.version

    def test_own_objects_change_nothing(self):
        table = JobStatusTable()
        for job_id in range(5):
            table.observe(JobInfo(job_id, "u"), now=1.0)
        version = table.version
        assert table.merge(table.snapshot()) is False
        assert table.version == version


# -------------------------------------------------------- presence update
def _controller(presence, own="bb0"):
    """A controller with only what the presence update reads."""
    ctl = Controller.__new__(Controller)
    ctl.server = SimpleNamespace(name=own)
    ctl.presence = dict(presence)
    ctl._presence_dirty = False
    return ctl


@st.composite
def _presence_case(draw):
    """Held rows, and a message whose rows are the held objects, equal
    content in a different object, changed content, a host we hold no
    row for, or our own row (which the update never takes) differing."""
    hosts = [f"bb{i}" for i in range(draw(st.integers(1, 8)))]
    rows = st.frozensets(st.integers(0, 12), max_size=5)
    held = {h: draw(rows) for h in hosts}
    message = {}
    for host in draw(st.lists(st.sampled_from(hosts), unique=True)):
        kind = draw(st.sampled_from(["same", "copy", "changed"]))
        if kind == "same":
            message[host] = held[host]
        elif kind == "copy":
            message[host] = frozenset(set(held[host]))
        else:
            message[host] = draw(rows.filter(lambda r, h=host: r != held[h]))
    if draw(st.booleans()):
        message["bb9"] = draw(rows)
    return held, message


class TestLearnPresence:
    @settings(max_examples=200)
    @given(_presence_case())
    def test_equals_reference(self, case):
        held, message = case
        new, old = _controller(held), _controller(held)
        Controller._learn_presence(new, message)
        reference_learn_presence(old, message)
        assert list(new.presence) == list(old.presence)
        assert all(new.presence[h] is old.presence[h] for h in old.presence)
        assert new._presence_dirty == old._presence_dirty

    def test_equal_copies_and_a_differing_own_row_are_no_ops(self):
        held = {"bb0": frozenset({1}), "bb1": frozenset({2, 3})}
        ctl = _controller(held)
        ctl._learn_presence({"bb0": frozenset({7}),
                             "bb1": frozenset([3, 2])})
        assert ctl.presence == held and ctl.presence["bb1"] is held["bb1"]
        assert ctl._presence_dirty is False

    def test_one_changed_row_among_known_hosts_is_taken(self):
        held = {"bb0": frozenset({1}), "bb1": frozenset({2})}
        ctl = _controller(held)
        ctl._learn_presence({"bb0": held["bb0"], "bb1": frozenset({3})})
        assert ctl.presence == {"bb0": {1}, "bb1": {3}}
        assert ctl._presence_dirty is True
