"""Sharing-policy language: primitives and composites (§2.2.2, §3).

A policy is a chain of *levels*. Non-terminal levels partition I/O
cycles evenly across sharing entities (groups or users); the terminal
level distributes each innermost scope's cycles over its jobs — evenly
(``job``), in proportion to node count (``size``), or in proportion to
priority (``priority``).

System administrators configure ThemisIO "with a single parameter"; the
parser accepts the paper's spellings::

    job-fair                      -> (JOB,)
    size-fair                     -> (SIZE,)
    user-fair                     -> (USER, JOB)
    priority-fair                 -> (PRIORITY,)
    user-then-job-fair            -> (USER, JOB)
    user-then-size-fair           -> (USER, SIZE)
    group-then-user-fair          -> (GROUP, USER, JOB)
    group-user-then-size-fair     -> (GROUP, USER, SIZE)
    group-user-size-fair          -> (GROUP, USER, SIZE)

(``-then-`` and ``-`` separators are interchangeable; a trailing group/
user level gets an implicit even ``job`` distributor, which is what
Figure 8(c)'s user-fair experiment shows.)

``Policy.shares(jobs)`` evaluates the statistical token assignment via
the transition-matrix chain product of Eq. 1 (see
:mod:`repro.core.matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence, Tuple

from ..errors import PolicyError
from .jobinfo import JobInfo
from .matrix import chain_shares

__all__ = ["Level", "Policy", "FIFO_POLICY_NAME"]

#: Scheduler-selection sentinel: "fifo" is not a fairness policy but the
#: baseline queueing discipline; harness configs accept it alongside
#: policy strings.
FIFO_POLICY_NAME = "fifo"


class Level(Enum):
    """One tier of a composite sharing policy."""

    GROUP = "group"
    USER = "user"
    JOB = "job"
    SIZE = "size"
    PRIORITY = "priority"

    @property
    def terminal(self) -> bool:
        """Terminal levels distribute over jobs and must come last."""
        return self in (Level.JOB, Level.SIZE, Level.PRIORITY)


_RANK = {Level.GROUP: 0, Level.USER: 1}


@dataclass(frozen=True)
class Policy:
    """An immutable, validated sharing policy."""

    levels: Tuple[Level, ...]

    def __post_init__(self):
        if not self.levels:
            raise PolicyError("policy needs at least one level")
        *heads, tail = self.levels
        if not tail.terminal:
            raise PolicyError(
                f"last level must be job/size/priority, got {tail.value!r}")
        for lvl in heads:
            if lvl.terminal:
                raise PolicyError(
                    f"level {lvl.value!r} may only appear last")
        ranks = [_RANK[lvl] for lvl in heads]
        if ranks != sorted(ranks) or len(set(ranks)) != len(ranks):
            raise PolicyError(
                "non-terminal levels must be group before user, each at most once")

    # --------------------------------------------------------------- parsing
    @classmethod
    def parse(cls, spec: str) -> "Policy":
        """Parse a policy string such as ``"group-user-then-size-fair"``."""
        if not isinstance(spec, str) or not spec.strip():
            raise PolicyError(f"empty policy spec: {spec!r}")
        text = spec.strip().lower()
        if text == FIFO_POLICY_NAME:
            raise PolicyError(
                "'fifo' is the baseline discipline, not a fairness policy; "
                "select it at the scheduler level")
        if text.endswith("-fair"):
            text = text[: -len("-fair")]
        elif text.endswith("fair"):
            text = text[: -len("fair")].rstrip("-")
        tokens = [t for t in text.replace("-then-", "-").split("-") if t]
        if not tokens:
            raise PolicyError(f"no levels in policy spec: {spec!r}")
        levels: List[Level] = []
        for token in tokens:
            try:
                levels.append(Level(token))
            except ValueError:
                raise PolicyError(
                    f"unknown sharing entity {token!r} in {spec!r}") from None
        if not levels[-1].terminal:
            levels.append(Level.JOB)  # implicit even split within the scope
        return cls(tuple(levels))

    @property
    def name(self) -> str:
        return "-then-".join(lvl.value for lvl in self.levels) + "-fair"

    # ------------------------------------------------------------ evaluation
    def shares(self, jobs: Sequence[JobInfo]) -> Dict[int, float]:
        """The statistical token assignment: job id -> share of [0, 1].

        Shares sum to 1 over *jobs*; an empty job list yields ``{}``.
        Evaluated as the chain of transition-matrix products (Eq. 1).
        """
        return chain_shares(self.levels, list(jobs))

    def __str__(self) -> str:
        return self.name
