"""Suite-wide Hypothesis settings.

Tier-1 checks the same examples on every run: with ``derandomize``
each property draws its examples from a seed derived from the test
itself, so a failure reproduces anywhere and two green runs are the
same check. ``deadline=None`` because several properties drive a whole
simulated cluster per example. Each site keeps its own
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
