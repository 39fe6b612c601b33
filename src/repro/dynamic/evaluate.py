"""Evaluation harness for online strategies: empirical competitive ratios.

The dynamic data management literature the paper builds on ([MMVW97],
[MVW99]) measures an online strategy by its *competitive ratio*: the worst
case, over request sequences, of the online cost divided by the optimal
offline cost.  The offline optimum is not computable for interesting sizes
(Theorem 2.1 again), so the harness uses the strongest available reference:
the **hindsight-static** placement -- the extended-nibble placement computed
from the aggregate frequencies of the whole sequence -- evaluated with the
same cost accounting.

:func:`evaluate_strategies` runs a set of strategies over a sequence and
returns comparable records, and :func:`empirical_competitive_ratio` is
the scalar summary used by the tests and the benchmark.

Since the load-state refactor all cost accounts sit on the incremental
:class:`~repro.core.loadstate.LoadState` engine, so reading the congestion
after every event costs O(touched entries) instead of a full edge/bus
rescan.  The strategy set is served as one fleet replay
(:meth:`~repro.sim.engine.SimulationEngine.run_fleet`), whose records
are bit-for-bit those of serving each strategy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.extended_nibble import extended_nibble
from repro.dynamic.online import (
    EdgeCounterManager,
    OnlineCostAccount,
    OnlineStrategy,
    StaticPlacementManager,
)
from repro.dynamic.sequence import RequestSequence
from repro.network.tree import HierarchicalBusNetwork

__all__ = [
    "OnlineRunRecord",
    "hindsight_static_manager",
    "first_touch_manager",
    "evaluate_strategies",
    "empirical_competitive_ratio",
]


@dataclass(frozen=True)
class OnlineRunRecord:
    """Cost summary of one strategy over one request sequence."""

    strategy: str
    congestion: float
    total_load: float
    service_load: float
    management_load: float

    def as_dict(self) -> Dict[str, object]:
        """Flatten for table output."""
        return {
            "strategy": self.strategy,
            "congestion": self.congestion,
            "total_load": self.total_load,
            "service_load": self.service_load,
            "management_load": self.management_load,
        }


def hindsight_static_manager(
    network: HierarchicalBusNetwork, sequence: RequestSequence
) -> StaticPlacementManager:
    """The hindsight-static reference: extended-nibble on the aggregate.

    This is the one canonical construction of the reference strategy (the
    scenario registry and the churn experiments use it too).  Events
    addressed beyond the network's node universe -- churn reference ids of
    processors that have not attached yet -- are excluded from the
    aggregate; for churn-free sequences every event survives the filter.
    """
    procs, objs, writes = sequence.as_arrays()
    if procs.size and procs.max() >= network.n_nodes:
        keep = procs < network.n_nodes
        sequence = RequestSequence.from_columns(
            procs[keep], objs[keep], writes[keep], sequence.n_objects
        )
    pattern = sequence.to_pattern(network)
    placement = extended_nibble(network, pattern).placement
    return StaticPlacementManager(network, placement)


def first_touch_manager(
    network: HierarchicalBusNetwork, sequence: RequestSequence, **kwargs
) -> EdgeCounterManager:
    """The naive "first-touch, never adapt" baseline.

    An :class:`EdgeCounterManager` whose replication threshold can never
    be reached within the sequence (the canonical construction shared by
    the standard strategy set and the scenario registry).
    """
    return EdgeCounterManager(
        network,
        sequence.n_objects,
        object_size=max(10 * len(sequence), 1),
        **kwargs,
    )


def _record(name: str, account: OnlineCostAccount) -> OnlineRunRecord:
    return OnlineRunRecord(
        strategy=name,
        congestion=account.congestion,
        total_load=account.total_load,
        service_load=account.service_units,
        management_load=account.management_units,
    )


def evaluate_strategies(
    network: HierarchicalBusNetwork,
    sequence: RequestSequence,
    extra_strategies: Optional[Dict[str, Callable[[], OnlineStrategy]]] = None,
    object_size: int = 4,
) -> List[OnlineRunRecord]:
    """Run the standard strategy set (plus any extras) over a sequence.

    The standard set is: the hindsight-static reference, the adaptive
    edge-counter strategy, and a naive "first-touch, never adapt" strategy
    (an :class:`EdgeCounterManager` with an effectively infinite replication
    threshold).  The whole set is one fleet replay of the sequence; an
    extra strategy must be fresh and built on ``network`` itself.
    """
    from repro.sim.engine import SimulationEngine

    sequence.validate_for(network)
    runs: List[Tuple[str, OnlineStrategy]] = [
        ("hindsight-static", hindsight_static_manager(network, sequence)),
        (
            "edge-counter",
            EdgeCounterManager(network, sequence.n_objects, object_size=object_size),
        ),
        ("first-touch", first_touch_manager(network, sequence)),
    ]
    if extra_strategies:
        for name, factory in extra_strategies.items():
            runs.append((name, factory()))

    results = SimulationEngine.run_fleet([strategy for _name, strategy in runs], sequence)
    return [_record(name, result.account) for (name, _s), result in zip(runs, results)]


def empirical_competitive_ratio(
    network: HierarchicalBusNetwork,
    sequence: RequestSequence,
    object_size: int = 4,
    objective: str = "congestion",
) -> float:
    """Online (edge-counter) cost divided by the hindsight-static cost.

    ``objective`` selects the measure: ``"congestion"`` (the paper's
    objective) or ``"total_load"`` (the classical objective of the earlier
    dynamic literature).
    """
    records = {
        rec.strategy: rec
        for rec in evaluate_strategies(network, sequence, object_size=object_size)
    }
    online = records["edge-counter"]
    reference = records["hindsight-static"]
    if objective == "congestion":
        num, den = online.congestion, reference.congestion
    elif objective == "total_load":
        num, den = online.total_load, reference.total_load
    else:
        raise ValueError(f"unknown objective {objective!r}")
    if den <= 0:
        return 1.0 if num <= 0 else float("inf")
    return num / den
