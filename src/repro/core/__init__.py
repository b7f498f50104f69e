"""The paper's core contribution: statistical tokens, sharing policies,
Eq. 1 share evaluation, the token scheduler, λ-delayed fairness,
and the comparator disciplines (FIFO / GIFT / TBF).
"""

from .baselines import FifoScheduler, GiftScheduler, TbfScheduler
from .fairness import all_gather_merge, placement_shares
from .jobinfo import JobInfo, JobRecord, JobStatusTable
from .matrix import ShareChain, chain_shares
from .policy import FIFO_POLICY_NAME, Level, Policy
from .queues import QueueSet
from .scheduler import Scheduler, StatisticalTokenScheduler
from .tokens import TokenAssignment

__all__ = [
    "JobInfo",
    "JobRecord",
    "JobStatusTable",
    "Level",
    "Policy",
    "FIFO_POLICY_NAME",
    "TokenAssignment",
    "QueueSet",
    "Scheduler",
    "StatisticalTokenScheduler",
    "FifoScheduler",
    "GiftScheduler",
    "TbfScheduler",
    "ShareChain",
    "chain_shares",
    "all_gather_merge",
    "placement_shares",
]
