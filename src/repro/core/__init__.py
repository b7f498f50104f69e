"""The paper's core contribution: statistical tokens, sharing policies,
transition-matrix evaluation, the token scheduler, λ-delayed fairness,
and the comparator disciplines (FIFO / GIFT / TBF).
"""

from .baselines import FifoScheduler, GiftScheduler, TbfScheduler
from .fairness import (all_gather_merge, global_share_error,
                       placement_shares, total_variation)
from .jobinfo import JobInfo, JobRecord, JobStatusTable
from .matrix import (ShareChain, build_transition_matrices, chain_product,
                     chain_shares, validate_transition_matrix)
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
    "build_transition_matrices",
    "chain_product",
    "chain_shares",
    "validate_transition_matrix",
    "all_gather_merge",
    "total_variation",
    "global_share_error",
    "placement_shares",
]
