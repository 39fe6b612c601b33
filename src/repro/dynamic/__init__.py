"""Dynamic (online) data management substrate.

Extension beyond the paper's static setting, following the dynamic model its
related-work section discusses: request sequences, adaptive online
strategies, and an evaluation harness measuring empirical competitive ratios
against the hindsight-static extended-nibble placement.
"""

from repro.dynamic.sequence import (
    RequestEvent,
    RequestSequence,
    phase_change_sequence,
    sequence_from_pattern,
)
from repro.dynamic.online import (
    EdgeCounterManager,
    OnlineCostAccount,
    OnlineStrategy,
    StaticPlacementManager,
)
from repro.dynamic.evaluate import (
    OnlineRunRecord,
    empirical_competitive_ratio,
    evaluate_strategies,
    hindsight_static_manager,
)

__all__ = [
    "RequestEvent",
    "RequestSequence",
    "sequence_from_pattern",
    "phase_change_sequence",
    "OnlineStrategy",
    "OnlineCostAccount",
    "StaticPlacementManager",
    "EdgeCounterManager",
    "OnlineRunRecord",
    "evaluate_strategies",
    "empirical_competitive_ratio",
    "hindsight_static_manager",
]
