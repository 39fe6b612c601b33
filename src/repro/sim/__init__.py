"""Unified simulation kernel: one event-timeline engine behind every replay.

Before this package, every layer that replayed traffic carried its own
event loop: the online batch replay of :mod:`repro.dynamic.online`, a
congestion-trajectory sampler, a request/churn interleaver and the round
replay of :mod:`repro.distributed.request_sim` all re-implemented
chunking, mutation handling and metrics bookkeeping.  ``repro.sim``
collapses them onto one kernel, the same way the load-state refactor
collapsed the cost bookkeeping onto one substrate:

* :mod:`repro.sim.timeline` merges a request sequence and an optional
  churn trace into a single ordered timeline of serve spans and mutation
  points;
* :mod:`repro.sim.protocol` is the formal :class:`PlacementStrategy`
  protocol (``serve_chunk`` / ``apply_mutation`` / ``holders``) every
  strategy is driven through -- ``serve_chunk`` serves every span, one
  event or many;
* :mod:`repro.sim.engine` is the :class:`SimulationEngine` that drives a
  strategy through a timeline, staying on the vectorized chunk fast path
  between interleaved mutations, with reference-id remapping and
  dropped-request accounting when topology churn renumbers processors;
* :mod:`repro.sim.sinks` are the pluggable :class:`MetricsSink`\\ s
  (congestion trajectory, per-round stats, drop accounting, cost
  breakdown) the engine emits through;
* :mod:`repro.sim.scenario` is the declarative :class:`ScenarioSpec`
  registry: network builder + workload + churn + strategies + sinks from
  a plain dict / JSON document, runnable via ``repro simulate``.

``OnlineStrategy.run`` and ``replay_requests`` are thin adapters over
this kernel; trajectory sampling and churn interleaving are the engine
itself (``SimulationEngine(strategy, sinks=(TrajectorySink(k),)).run(seq,
trace)``).  All four match the pre-kernel loops bit-for-bit (pinned by
``tests/properties/test_sim_kernel.py``).
"""

from repro.sim.engine import RoundReplayDriver, SimulationEngine, SimulationResult
from repro.sim.protocol import PlacementStrategy, fleet_groups, validate_strategy
from repro.sim.scenario import (
    SCENARIO_FAMILIES,
    BuiltScenario,
    ScenarioSpec,
    build_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
    scenario_spec,
)
from repro.sim.sinks import (
    CostBreakdownSink,
    DropAccountingSink,
    MetricsSink,
    RoundStatsSink,
    TrajectorySink,
)
from repro.sim.timeline import MutationPoint, ServeSpan, merge_timeline

__all__ = [
    "SimulationEngine",
    "SimulationResult",
    "RoundReplayDriver",
    "PlacementStrategy",
    "fleet_groups",
    "validate_strategy",
    "MetricsSink",
    "TrajectorySink",
    "RoundStatsSink",
    "DropAccountingSink",
    "CostBreakdownSink",
    "ServeSpan",
    "MutationPoint",
    "merge_timeline",
    "ScenarioSpec",
    "BuiltScenario",
    "SCENARIO_FAMILIES",
    "scenario_spec",
    "build_scenario",
    "run_scenario",
    "register_scenario",
    "list_scenarios",
]
