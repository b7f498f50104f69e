"""Simulated floats do not depend on the Python version's ``sum``.

From Python 3.12 the built-in :func:`sum` compensates float rounding, so
a share map summed with it gives other bits there than on 3.11. Every
float sum that reaches the model goes through ``ordered_sum`` instead
(left to right, 3.11's ``sum`` bit for bit). Each test below swaps the
module's ``sum`` for :func:`math.fsum` — a compensated sum, as 3.12's
is — and demands the same bits as the unpatched run: a float ``sum``
left in the module shows as a difference here, on any Python.
"""

import math
from dataclasses import dataclass

from repro.core import GiftScheduler, TbfScheduler, placement_shares
from repro.core import fairness
from repro.core.baselines import gift, tbf
from repro.core.tokens import ordered_sum

#: three shares whose left-to-right sum (0.6000000000000001) is not
#: their exact sum (0.6).
_UNEVEN = [0.1, 0.2, 0.3]


@dataclass
class Req:
    job_id: int
    cost: float = 1.0
    seq: int = 0


def test_the_shares_tell_the_two_sums_apart():
    assert ordered_sum(_UNEVEN) == 0.1 + 0.2 + 0.3 != math.fsum(_UNEVEN)
    assert ordered_sum([]) == 0 and ordered_sum([2, 3]) == 5


def _with_fsum(monkeypatch, module, run):
    """``run()`` unpatched, then with *module*'s ``sum`` an ``fsum``."""
    plain = run()
    monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    return plain, run()


def test_placement_rows(monkeypatch):
    # Jobs 1-3 share a host set: one class, weighing their sum.
    presence = {"s1": {1, 2, 3, 4}, "s2": {1, 2, 3}, "s3": {4}}
    shares = {1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4}
    plain, patched = _with_fsum(
        monkeypatch, fairness, lambda: placement_shares(presence, shares))
    assert patched == plain


def test_tbf_rates(monkeypatch):
    def rates():
        # Jobs 1-3 backlogged, 4 and 5 idle: both sums are uneven. A high
        # ceiling keeps the redistributed rates from being clipped.
        s = TbfScheduler(capacity=2.0, ceiling_factor=100.0,
                         rates={1: 0.1, 2: 0.2, 3: 0.3, 4: 0.1, 5: 0.7})
        for job_id in (1, 2, 3):
            s.enqueue(Req(job_id), 0.0)
        return s._effective_rates()

    plain, patched = _with_fsum(monkeypatch, tbf, rates)
    assert patched == plain


def test_gift_grants(monkeypatch):
    def budgets():
        s = GiftScheduler(capacity=1.0, mu=1.0)
        for job_id, cost in zip((1, 2, 3), _UNEVEN):
            s.enqueue(Req(job_id, cost=cost * 4), 0.0)
        # Last epoch: every job used its fair share exactly (no coupon,
        # so no LP); the device served 0.6 of its 1.0.
        s._fair_last = dict(zip((1, 2, 3), _UNEVEN))
        s._used_epoch = dict(s._fair_last)
        s._allocate(now=0.0)
        return s._budgets

    plain, patched = _with_fsum(monkeypatch, gift, budgets)
    assert patched == plain

