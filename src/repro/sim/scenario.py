"""Declarative scenario registry: simulations from plain dicts / JSON.

A :class:`ScenarioSpec` names every ingredient of a simulation by registry
key -- network builder, workload, churn generators, strategies and metrics
sinks -- with plain-data arguments, so new scenarios are *declared*
instead of hand-coded as yet another replay loop.  The spec round-trips
through JSON (``to_json`` / ``from_json``), which is what the ``repro
simulate --spec file.json`` workflow runs end-to-end.

Two argument conveniences keep the language expressive enough for the
existing suites:

* churn generator arguments may be written relative to the (not yet
  built) request sequence: ``{"events_div": 4}`` resolves to
  ``n_events // 4`` and ``{"events_div": 8, "min": 1}`` to
  ``max(1, n_events // 8)``;
* the ``flash-crowd`` workload kind couples workload and churn (the
  newcomer requests address processors that only exist once the attach
  burst lands), optionally with a *recovery* phase in which the crowd
  departs again.

**Seed determinism.**  Every seed a spec may carry (`sequence_seed`,
generator/churn/network ``args`` seeds, the flash-crowd ``trace_seed`` /
``crowd_seed``) is *optional* in the document -- but an omitted seed never
falls back to OS entropy.  Missing seeds are derived deterministically
from the spec's canonical hash and the role of the seed
(:func:`_derived_seed`), so the same spec document always materialises
the same sequences and traces: the lab registry's
``(spec_hash, seed) -> artifact`` contract holds for hand-written specs
exactly as it does for the registered families (which all pin their
seeds explicitly).

:data:`SCENARIO_FAMILIES` maps scenario names to spec factories
parameterised by ``(seed, small, large)``; the E9 streaming suite
(``zipf``, ``adversarial``, ``phase-shift``) and the E10 churn suite
(``flash-crowd``, ``maintenance``, ``degradation``, ``storm``) are
re-expressed here, joined by three new families: ``adversarial-storm``
(mutation storm under write-heavy bisection traffic),
``flash-crowd-recovery`` (multi-phase crowd arrival and departure) and
``fleet-sweep`` (one spec swept over network sizes).
:func:`run_scenario` drives every strategy of a built scenario through the
:class:`~repro.sim.engine.SimulationEngine` and returns plain-dict
records, the shared currency of experiments, benchmarks and the CLI.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dynamic.online import EdgeCounterManager, _count_parameter
from repro.dynamic.sequence import (
    RequestSequence,
    phase_change_sequence,
    sequence_from_pattern,
)
from repro.errors import SimulationError, WorkloadError
from repro.network.builders import (
    balanced_tree,
    fat_tree,
    path_of_buses,
    random_tree,
    single_bus,
    star_of_buses,
)
from repro.network.mutation import ChurnTrace
from repro.network.tree import HierarchicalBusNetwork
from repro.sim.sinks import (
    CostBreakdownSink,
    DropAccountingSink,
    MetricsSink,
    TrajectorySink,
)
from repro.workload.adversarial import (
    bisection_stress,
    replication_trap,
    write_conflict_pattern,
)
from repro.workload.churn import (
    bandwidth_degradation,
    flash_crowd_attach,
    flash_crowd_recovery,
    mutation_storm,
    rolling_maintenance_detach,
)
from repro.workload.generators import (
    hotspot_pattern,
    subtree_local_pattern,
    uniform_pattern,
    zipf_pattern,
    zipf_weights,
)
from repro.workload.traces import (
    producer_consumer_trace,
    shared_counter_trace,
    web_cache_trace,
)

__all__ = [
    "ScenarioSpec",
    "BuiltScenario",
    "SCENARIO_FAMILIES",
    "NETWORK_BUILDERS",
    "PATTERN_GENERATORS",
    "CHURN_GENERATORS",
    "scenario_spec",
    "register_scenario",
    "list_scenarios",
    "build_scenario",
    "run_scenario",
]

SPEC_FORMAT = "repro.scenario-spec/v1"


# --------------------------------------------------------------------------- #
# component registries
# --------------------------------------------------------------------------- #
NETWORK_BUILDERS: Dict[str, Callable[..., HierarchicalBusNetwork]] = {
    "balanced-tree": balanced_tree,
    "single-bus": single_bus,
    "star-of-buses": star_of_buses,
    "path-of-buses": path_of_buses,
    "fat-tree": fat_tree,
    "random-tree": random_tree,
}

PATTERN_GENERATORS: Dict[str, Callable] = {
    "uniform": uniform_pattern,
    "zipf": zipf_pattern,
    "hotspot": hotspot_pattern,
    "subtree-local": subtree_local_pattern,
    "bisection-stress": bisection_stress,
    "write-conflict": write_conflict_pattern,
    "replication-trap": replication_trap,
    "web-cache": web_cache_trace,
    "shared-counter": shared_counter_trace,
    "producer-consumer": producer_consumer_trace,
}

CHURN_GENERATORS: Dict[str, Callable] = {
    "flash-crowd-attach": flash_crowd_attach,
    "flash-crowd-recovery": flash_crowd_recovery,
    "rolling-maintenance-detach": rolling_maintenance_detach,
    "bandwidth-degradation": bandwidth_degradation,
    "mutation-storm": mutation_storm,
}


# --------------------------------------------------------------------------- #
# the spec
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation scenario as plain data.

    Attributes
    ----------
    name / description:
        Identity and one-line summary.
    network:
        ``{"builder": <NETWORK_BUILDERS key>, "args": {...}}``.
    workload:
        One of three kinds (see :func:`_build_workload`):
        ``{"kind": "pattern", "generator": <PATTERN_GENERATORS key>,
        "args": {...}, "sequence_seed": int}``,
        ``{"kind": "phases", "phases": [{"generator": ..., "args": ...},
        ...], "sequence_seed": int}`` or
        ``{"kind": "flash-crowd", ...}`` (couples workload and churn).
    churn:
        Tuple of ``{"generator": <CHURN_GENERATORS key>, "args": {...}}``
        entries; traces are merged in order.  Argument values may be
        ``{"events_div": k[, "min": m]}`` (resolved against the built
        sequence length).
    strategies:
        Tuple of ``{"kind": "hindsight-static" | "edge-counter" |
        "hysteresis" | "rent-or-buy" | "first-touch", "args": {...}}``
        (an optional ``"label"`` names the run in records; it defaults
        to the kind).
    sinks:
        Tuple of ``{"kind": "trajectory" | "cost-breakdown" | "drops",
        "args": {...}}``; one fresh sink set is built per strategy run.
    sweep:
        Optional tuple of ``{"label": str, "network_args": {...}}``
        overrides, each producing one sub-scenario (a fleet sweep).
    """

    name: str
    description: str
    network: Mapping
    workload: Mapping
    churn: Tuple[Mapping, ...] = ()
    strategies: Tuple[Mapping, ...] = (
        {"kind": "hindsight-static"},
        {"kind": "edge-counter"},
    )
    sinks: Tuple[Mapping, ...] = (
        {"kind": "trajectory", "args": {"samples": 4}},
        {"kind": "cost-breakdown"},
        {"kind": "drops"},
    )
    sweep: Optional[Tuple[Mapping, ...]] = None

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-serialisable document (tuples become lists)."""
        return json.loads(self.to_json())

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON encoding of the spec."""
        payload = {
            "format": SPEC_FORMAT,
            "name": self.name,
            "description": self.description,
            "network": dict(self.network),
            "workload": dict(self.workload),
            "churn": [dict(c) for c in self.churn],
            "strategies": [dict(s) for s in self.strategies],
            "sinks": [dict(s) for s in self.sinks],
            "sweep": [dict(s) for s in self.sweep] if self.sweep is not None else None,
        }
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_dict(cls, document: Mapping) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict` (accepts lists where tuples live)."""
        fmt = document.get("format", SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            raise SimulationError(f"unknown scenario-spec format {fmt!r}")
        sweep = document.get("sweep")
        kwargs = {}
        # absent keys fall back to the dataclass defaults, but an explicit
        # (even empty) list is preserved so from_json inverts to_json exactly
        for key in ("churn", "strategies", "sinks"):
            if document.get(key) is not None:
                kwargs[key] = tuple(document[key])
        return cls(
            name=document["name"],
            description=document.get("description", ""),
            network=document["network"],
            workload=document["workload"],
            sweep=tuple(sweep) if sweep is not None else None,
            **kwargs,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def canonical_json(self) -> str:
        """The canonical (hashable) encoding of the spec.

        Keys are sorted recursively and separators are fixed, so the
        encoding -- and therefore :meth:`spec_hash` -- is invariant under
        dict key order, JSON round-trips (``from_json(to_json(...))``)
        and list/tuple representation of the sequence fields.  Any change
        to the *content* of the spec (network, workload, churn,
        strategies, sinks, sweep, embedded seeds) changes the encoding.
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )

    def spec_hash(self) -> str:
        """SHA-256 of :meth:`canonical_json` (the lab registry's key).

        This is the ``spec_hash`` component of the persistent run
        registry's ``(spec_hash, seed, engine_version)`` key (see
        :mod:`repro.lab.registry`): two specs share a hash iff their
        JSON round-trip forms are identical.
        """
        import hashlib

        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()


@dataclass
class BuiltScenario:
    """One materialised (sub-)scenario, ready to replay."""

    name: str
    label: str
    network: HierarchicalBusNetwork
    sequence: RequestSequence
    trace: Optional[ChurnTrace]
    strategies: List[Tuple[str, Callable[[], object]]] = field(default_factory=list)
    sink_specs: Tuple[Mapping, ...] = ()

    def make_sinks(self) -> List[MetricsSink]:
        """Build one fresh sink set (per strategy run)."""
        return [_build_sink(spec, len(self.sequence)) for spec in self.sink_specs]


# --------------------------------------------------------------------------- #
# builders
# --------------------------------------------------------------------------- #
def _derived_seed(root: str, role: str) -> int:
    """Deterministic fallback seed for a spec role without an explicit one.

    ``root`` is the spec's canonical hash and ``role`` names the seed's
    position in the document (e.g. ``"workload.sequence_seed"`` or
    ``"churn[0].args.seed"``), so distinct roles of one spec get
    independent seeds while the same document always derives the same
    values -- never OS entropy.
    """
    digest = hashlib.sha256(f"{root}:{role}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


class _SpecSeeds:
    """Seed resolution for one spec: explicit values win, omissions derive."""

    __slots__ = ("_root",)

    def __init__(self, spec: "ScenarioSpec") -> None:
        self._root = spec.spec_hash()

    def derive(self, role: str) -> int:
        return _derived_seed(self._root, role)

    def value(self, mapping: Mapping, key: str, role: str):
        """``mapping[key]`` when present (and not ``None``), else derived."""
        explicit = mapping.get(key)
        return explicit if explicit is not None else self.derive(role)

    def fill_args(self, fn: Callable, args: Mapping, role: str) -> Dict:
        """Inject a derived ``seed`` into generator kwargs when the
        callable accepts one and the spec omitted it (or wrote ``null``)."""
        args = dict(args)
        if args.get("seed") is not None:
            return args
        if "seed" in inspect.signature(fn).parameters:
            args["seed"] = self.derive(f"{role}.seed")
        return args


def _resolve_arg(value, n_events: int):
    """Resolve one sequence-relative argument against the built length.

    ``{"events_div": k}`` resolves to ``n_events // k``,
    ``{"events_frac": [p, q]}`` to ``(n_events * p) // q``; an optional
    ``"min"`` clamps from below.  Everything else passes through.
    """
    if isinstance(value, Mapping) and ("events_div" in value or "events_frac" in value):
        if "events_div" in value:
            resolved = n_events // int(value["events_div"])
        else:
            p, q = value["events_frac"]
            resolved = (n_events * int(p)) // int(q)
        if "min" in value:
            resolved = max(int(value["min"]), resolved)
        return resolved
    return value


def _build_network(
    spec: Mapping, seeds: Optional[_SpecSeeds] = None
) -> HierarchicalBusNetwork:
    builder = NETWORK_BUILDERS.get(spec.get("builder"))
    if builder is None:
        raise SimulationError(f"unknown network builder {spec.get('builder')!r}")
    args = spec.get("args", {})
    if seeds is not None:
        args = seeds.fill_args(builder, args, "network.args")
    return builder(**args)


def _build_pattern(
    net: HierarchicalBusNetwork,
    spec: Mapping,
    seeds: Optional[_SpecSeeds] = None,
    role: str = "workload",
):
    generator = PATTERN_GENERATORS.get(spec.get("generator"))
    if generator is None:
        raise SimulationError(f"unknown pattern generator {spec.get('generator')!r}")
    args = spec.get("args", {})
    if seeds is not None:
        args = seeds.fill_args(generator, args, f"{role}.args")
    return generator(net, **args)


def _build_flash_crowd(
    net: HierarchicalBusNetwork, wl: Mapping, seeds: Optional[_SpecSeeds] = None
) -> Tuple[RequestSequence, ChurnTrace]:
    """The coupled flash-crowd workload: base trace + newcomer requests.

    A burst of ``n_new`` processors attaches ``1/cut_div`` of the way into
    the base sequence; the newcomers then issue their own (reference-id
    addressed) reads against the popular objects, shuffled into the tail.
    With ``recovery`` the crowd departs again later and its remaining
    requests are dropped by the replay.
    """
    base_pattern = _build_pattern(net, wl["base"], seeds, "workload.base")
    sequence_seed = wl.get("sequence_seed")
    if sequence_seed is None and seeds is not None:
        sequence_seed = seeds.derive("workload.sequence_seed")
    base_seq = sequence_from_pattern(net, base_pattern, seed=sequence_seed)
    n_objects = base_pattern.n_objects
    n_new = int(wl.get("n_new", 8))
    requests = int(wl.get("crowd_requests", 8))
    cut = len(base_seq) // int(wl.get("cut_div", 3))
    # relative recovery times resolve against the *final* replay length
    # (base trace + injected crowd requests), the same universe every other
    # sequence-relative argument uses
    final_len = len(base_seq) + n_new * requests
    trace_seed = wl.get("trace_seed")
    if trace_seed is None and seeds is not None:
        trace_seed = seeds.derive("workload.trace_seed")
    recovery = wl.get("recovery")
    if recovery is None:
        trace = flash_crowd_attach(
            net, n_new_leaves=n_new, time=cut, seed=trace_seed
        )
    else:
        trace = flash_crowd_recovery(
            net,
            n_new_leaves=n_new,
            attach_time=cut,
            detach_start=_resolve_arg(recovery["detach_start"], final_len),
            detach_spacing=_resolve_arg(recovery.get("detach_spacing", 1), final_len),
            seed=trace_seed,
        )
    crowd_seed = wl.get("crowd_seed")
    if crowd_seed is None and seeds is not None:
        crowd_seed = seeds.derive("workload.crowd_seed")
    gen = np.random.default_rng(crowd_seed)
    probs = zipf_weights(n_objects)
    # newcomer k (reference id n_nodes + k) reads `requests` objects,
    # one draw per newcomer, in order
    draws = [gen.choice(n_objects, size=requests, p=probs) for _ in range(n_new)]
    crowd = (
        np.repeat(np.arange(net.n_nodes, net.n_nodes + n_new), requests),
        np.concatenate(draws) if draws else np.empty(0, np.int64),
        np.zeros(n_new * requests, dtype=bool),
    )
    # the base prefix stays; the base tail and the crowd shuffle together
    order = gen.permutation(len(base_seq) - cut + n_new * requests)
    sequence = RequestSequence.from_columns(
        *(
            np.concatenate([column[:cut], np.concatenate([column[cut:], extra])[order]])
            for column, extra in zip(base_seq.as_arrays(), crowd)
        ),
        n_objects,
    )
    return sequence, trace


def _build_workload(
    net: HierarchicalBusNetwork, wl: Mapping, seeds: Optional[_SpecSeeds] = None
) -> Tuple[RequestSequence, Optional[ChurnTrace]]:
    kind = wl.get("kind", "pattern")
    sequence_seed = wl.get("sequence_seed")
    if sequence_seed is None and seeds is not None:
        sequence_seed = seeds.derive("workload.sequence_seed")
    if kind == "pattern":
        pattern = _build_pattern(net, wl, seeds, "workload")
        return sequence_from_pattern(net, pattern, seed=sequence_seed), None
    if kind == "phases":
        patterns = [
            _build_pattern(net, phase, seeds, f"workload.phases[{i}]")
            for i, phase in enumerate(wl["phases"])
        ]
        return phase_change_sequence(net, patterns, seed=sequence_seed), None
    if kind == "flash-crowd":
        return _build_flash_crowd(net, wl, seeds)
    raise SimulationError(f"unknown workload kind {kind!r}")


def _build_churn(
    net: HierarchicalBusNetwork,
    entries: Sequence[Mapping],
    n_events: int,
    seeds: Optional[_SpecSeeds] = None,
) -> Optional[ChurnTrace]:
    trace: Optional[ChurnTrace] = None
    for index, entry in enumerate(entries):
        generator = CHURN_GENERATORS.get(entry.get("generator"))
        if generator is None:
            raise SimulationError(
                f"unknown churn generator {entry.get('generator')!r}"
            )
        args = entry.get("args", {})
        if seeds is not None:
            args = seeds.fill_args(generator, args, f"churn[{index}].args")
        kwargs = {
            key: _resolve_arg(value, n_events) for key, value in args.items()
        }
        part = generator(net, **kwargs)
        trace = part if trace is None else trace.concatenated_with(part)
    return trace


def _build_strategies(
    net: HierarchicalBusNetwork,
    sequence: RequestSequence,
    specs: Sequence[Mapping],
) -> List[Tuple[str, Callable[[], object]]]:
    """Strategy factories for one built scenario.

    The canonical constructions live in :mod:`repro.dynamic.evaluate`
    (:func:`~repro.dynamic.evaluate.hindsight_static_manager` /
    :func:`~repro.dynamic.evaluate.first_touch_manager`); every factory is
    lazy, so merely *building* a scenario (the suite functions do that to
    hand out networks and sequences) never pays for a placement solve.
    An argument a kind does not take raises
    :class:`~repro.errors.WorkloadError` here, before anything replays.
    """
    from repro.dynamic.evaluate import first_touch_manager, hindsight_static_manager

    counter_args = frozenset(inspect.signature(EdgeCounterManager).parameters) - {
        "network", "n_objects",
    }
    accepted = {
        "hindsight-static": frozenset(),
        "edge-counter": counter_args,
        "rent-or-buy": counter_args,
        # hysteresis derives both thresholds from its two arguments
        "hysteresis": counter_args - {"replicate_threshold", "migrate_threshold"}
        | {"migration_factor"},
        "first-touch": counter_args,
    }

    def make_factory(kind: str, args: Mapping) -> Callable[[], object]:
        unknown = sorted(set(args) - accepted.get(kind, frozenset(args)))
        if unknown:
            raise WorkloadError(
                f"strategy kind {kind!r} takes no argument {unknown[0]!r} "
                f"(it takes {sorted(accepted[kind]) or 'none'})"
            )
        if kind == "hindsight-static":
            def factory():
                return hindsight_static_manager(net, sequence)
        elif kind in ("edge-counter", "rent-or-buy"):
            def factory():
                return EdgeCounterManager(net, sequence.n_objects, **args)
        elif kind == "hysteresis":
            # replicas at the copy cost, migration at migration_factor
            # times it
            def factory():
                kwargs = dict(args)
                size = _count_parameter("object_size", kwargs.pop("object_size", 4))
                factor = _count_parameter(
                    "migration_factor", kwargs.pop("migration_factor", 2)
                )
                return EdgeCounterManager(
                    net, sequence.n_objects, object_size=size,
                    replicate_threshold=size, migrate_threshold=size * factor,
                    **kwargs,
                )
        elif kind == "first-touch":
            def factory():
                return first_touch_manager(
                    net,
                    sequence,
                    **{k: v for k, v in args.items() if k != "object_size"},
                )
        else:
            raise SimulationError(f"unknown strategy kind {kind!r}")
        return factory

    return [
        (
            spec.get("label", spec.get("kind")),
            make_factory(spec.get("kind"), dict(spec.get("args", {}))),
        )
        for spec in specs
    ]


def _build_sink(spec: Mapping, n_events: int) -> MetricsSink:
    kind = spec.get("kind")
    args = spec.get("args", {})
    if kind == "trajectory":
        samples = int(args.get("samples", 4))
        return TrajectorySink(max(1, n_events // max(1, samples)))
    if kind == "cost-breakdown":
        return CostBreakdownSink()
    if kind == "drops":
        return DropAccountingSink()
    raise SimulationError(f"unknown sink kind {kind!r}")


def _materialise_entry(
    spec: ScenarioSpec, entry: Optional[Mapping], index: int
) -> BuiltScenario:
    """Materialise one sweep entry (``None`` = the spec's base scenario)."""
    seeds = _SpecSeeds(spec)
    network_spec = dict(spec.network)
    label = spec.name
    if entry is not None:
        args = dict(network_spec.get("args", {}))
        args.update(entry.get("network_args", {}))
        network_spec["args"] = args
        label = f"{spec.name}/{entry.get('label', index)}"
    net = _build_network(network_spec, seeds)
    sequence, coupled_trace = _build_workload(net, spec.workload, seeds)
    churn_trace = _build_churn(net, spec.churn, len(sequence), seeds)
    if coupled_trace is not None and churn_trace is not None:
        trace = coupled_trace.concatenated_with(churn_trace)
    else:
        trace = coupled_trace if coupled_trace is not None else churn_trace
    return BuiltScenario(
        name=spec.name,
        label=label,
        network=net,
        sequence=sequence,
        trace=trace,
        strategies=_build_strategies(net, sequence, spec.strategies),
        sink_specs=spec.sinks,
    )


def build_scenario(spec: ScenarioSpec) -> List[BuiltScenario]:
    """Materialise a spec into one built scenario per sweep entry."""
    entries: Sequence[Optional[Mapping]] = spec.sweep or (None,)
    return [
        _materialise_entry(spec, entry, index)
        for index, entry in enumerate(entries)
    ]


# --------------------------------------------------------------------------- #
# running
# --------------------------------------------------------------------------- #
def _strategy_record(
    built: BuiltScenario, sname: str, result
) -> Dict[str, object]:
    """The plain-dict result record of one (sub-scenario, strategy) run."""
    record: Dict[str, object] = {
        "scenario": built.name,
        "label": built.label,
        "strategy": sname,
        "n_events": result.n_events,
        "served": result.served,
        "dropped": result.dropped,
        "n_mutations": result.n_mutations,
        "congestion": float(result.congestion),
        "total_load": float(result.account.total_load),
        "n_processors_final": result.network.n_processors,
        "repair_consistent": bool(result.account.state.verify_bus_loads()),
    }
    trajectory = result.sink(TrajectorySink)
    if trajectory is not None:
        record["trajectory"] = [float(x) for x in trajectory.trajectory]
    drops = result.sink(DropAccountingSink)
    if drops is not None:
        # the sink's per-span view: how many replay segments lost
        # requests (the engine totals must agree with it)
        record["drop_spans"] = len(drops.span_drops)
        if (drops.served, drops.dropped) != (result.served, result.dropped):
            raise SimulationError(
                "drop-accounting sink disagrees with the engine totals"
            )
    breakdown = result.sink(CostBreakdownSink)
    if breakdown is not None:
        record.update(
            {
                "service_load": breakdown.breakdown["service_load"],
                "management_load": breakdown.breakdown["management_load"],
            }
        )
    return record


def _run_entry(built: BuiltScenario) -> List[Dict[str, object]]:
    """Replay every strategy of one built sub-scenario in one stacked pass
    (:meth:`~repro.sim.engine.SimulationEngine.run_fleet`; a single
    strategy replays through its own ``run``)."""
    from repro.sim.engine import SimulationEngine

    strategies = built.strategies
    results = SimulationEngine.run_fleet(
        [factory() for _, factory in strategies],
        built.sequence,
        built.trace,
        sinks=[built.make_sinks() for _ in strategies],
    )
    return [
        _strategy_record(built, sname, result)
        for (sname, _), result in zip(strategies, results)
    ]


def _worker_run_job(spec_json: str, entry_index: int) -> List[Dict[str, object]]:
    """One sweep entry, materialised and replayed in a worker process."""
    spec = ScenarioSpec.from_json(spec_json)
    entries: Sequence[Optional[Mapping]] = spec.sweep or (None,)
    return _run_entry(_materialise_entry(spec, entries[entry_index], entry_index))


def run_scenario(spec: ScenarioSpec, parallel: int = 1) -> List[Dict[str, object]]:
    """Replay every strategy of every sub-scenario through the kernel.

    Returns one plain-dict record per (sub-scenario, strategy) pair: the
    served/dropped split, mutation count, final congestion and total load,
    the sampled congestion trajectory, the cost breakdown and the
    substrate self-check (incremental bus loads equal a from-scratch
    recomputation after all repairs).  Each sub-scenario's strategies
    replay in one stacked pass over its timeline
    (:meth:`~repro.sim.engine.SimulationEngine.run_fleet`), bit-for-bit
    equal to replaying each strategy alone.

    Parameters
    ----------
    parallel:
        Fan the sweep entries out over a persistent process pool
        (:func:`repro.parallel.persistent_pool`), one job per entry; a
        spec with one entry runs in process.  Records (and therefore
        artifacts) are byte-identical for any value.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    n_entries = len(spec.sweep or (None,))
    if parallel == 1 or n_entries == 1:
        return [
            record
            for built in build_scenario(spec)
            for record in _run_entry(built)
        ]

    from repro.parallel import run_jobs

    spec_json = spec.to_json()
    results = run_jobs(
        min(parallel, n_entries),
        _worker_run_job,
        [(spec_json, index) for index in range(n_entries)],
    )
    return [record for records in results for record in records]


# --------------------------------------------------------------------------- #
# the family registry (named scenarios parameterised by seed and size)
# --------------------------------------------------------------------------- #
SCENARIO_FAMILIES: Dict[str, Callable[..., ScenarioSpec]] = {}


def register_scenario(name: str, factory: Callable[..., ScenarioSpec]) -> None:
    """Register a named spec factory ``(seed, small, large) -> ScenarioSpec``."""
    if name in SCENARIO_FAMILIES:
        raise SimulationError(f"scenario {name!r} is already registered")
    SCENARIO_FAMILIES[name] = factory


def list_scenarios() -> List[str]:
    """Registered scenario names, in registration order."""
    return list(SCENARIO_FAMILIES)


def scenario_spec(
    name: str, seed: int = 0, small: bool = False, large: bool = False
) -> ScenarioSpec:
    """Build the spec of a registered scenario for one (seed, size)."""
    factory = SCENARIO_FAMILIES.get(name)
    if factory is None:
        raise KeyError(f"unknown scenario {name!r}")
    return factory(seed=seed, small=small, large=large)


def _streaming_sizes(small: bool, large: bool):
    """(network args, n_objects, requests, phases) of the E9 suite."""
    if large:
        return {"arity": 3, "depth": 4, "leaves_per_bus": 3}, 128, 24, 4
    if small:
        return {"arity": 2, "depth": 2, "leaves_per_bus": 2}, 8, 6, 2
    return {"arity": 2, "depth": 3, "leaves_per_bus": 2}, 32, 12, 3


def _churn_sizes(small: bool, large: bool):
    """(network args, n_objects, requests, n_churn) of the E10 suite."""
    if large:
        return {"arity": 3, "depth": 4, "leaves_per_bus": 3}, 96, 16, 16
    if small:
        return {"arity": 2, "depth": 2, "leaves_per_bus": 2}, 8, 6, 3
    return {"arity": 2, "depth": 3, "leaves_per_bus": 2}, 32, 10, 6


def _spec_zipf(seed: int = 0, small: bool = False, large: bool = False) -> ScenarioSpec:
    net_args, n_objects, requests, _ = _streaming_sizes(small, large)
    return ScenarioSpec(
        name="zipf",
        description="stationary skewed popularity (replication pays off)",
        network={"builder": "balanced-tree", "args": net_args},
        workload={
            "kind": "pattern",
            "generator": "zipf",
            "args": {
                "n_objects": n_objects,
                "requests_per_processor": requests,
                "seed": seed,
            },
            "sequence_seed": seed + 1,
        },
    )


def _spec_adversarial(
    seed: int = 0, small: bool = False, large: bool = False
) -> ScenarioSpec:
    net_args, n_objects, requests, _ = _streaming_sizes(small, large)
    return ScenarioSpec(
        name="adversarial",
        description="write-heavy cross-bisection traffic (replication never helps)",
        network={"builder": "balanced-tree", "args": net_args},
        workload={
            "kind": "pattern",
            "generator": "bisection-stress",
            "args": {
                "n_objects": n_objects,
                "requests_per_pair": 2 * requests,
                "seed": seed,
            },
            "sequence_seed": seed + 2,
        },
    )


def _spec_phase_shift(
    seed: int = 0, small: bool = False, large: bool = False
) -> ScenarioSpec:
    net_args, n_objects, requests, phases = _streaming_sizes(small, large)
    return ScenarioSpec(
        name="phase-shift",
        description="producer/consumer channels whose endpoints change per phase",
        network={"builder": "balanced-tree", "args": net_args},
        workload={
            "kind": "phases",
            "phases": [
                {
                    "generator": "producer-consumer",
                    "args": {
                        "n_channels": n_objects,
                        "items_per_channel": requests,
                        "seed": seed + 10 * (k + 1),
                    },
                }
                for k in range(phases)
            ],
            "sequence_seed": seed + 3,
        },
    )


def _spec_flash_crowd(
    seed: int = 0, small: bool = False, large: bool = False
) -> ScenarioSpec:
    net_args, n_objects, requests, n_churn = _churn_sizes(small, large)
    return ScenarioSpec(
        name="flash-crowd",
        description="a burst of newcomers joins mid-trace and issues reads",
        network={"builder": "balanced-tree", "args": net_args},
        workload={
            "kind": "flash-crowd",
            "base": {
                "generator": "zipf",
                "args": {
                    "n_objects": n_objects,
                    "requests_per_processor": requests,
                    "seed": seed,
                },
            },
            "sequence_seed": seed + 1,
            "cut_div": 3,
            "n_new": n_churn,
            "trace_seed": seed + 2,
            "crowd_seed": seed + 3,
            "crowd_requests": requests,
        },
    )


def _spec_maintenance(
    seed: int = 0, small: bool = False, large: bool = False
) -> ScenarioSpec:
    net_args, n_objects, requests, n_churn = _churn_sizes(small, large)
    return ScenarioSpec(
        name="maintenance",
        description="rolling maintenance detaches during a subtree-local trace",
        network={"builder": "balanced-tree", "args": net_args},
        workload={
            "kind": "pattern",
            "generator": "subtree-local",
            "args": {
                "n_objects": n_objects,
                "requests_per_processor": requests,
                "seed": seed,
            },
            "sequence_seed": seed + 4,
        },
        churn=(
            {
                "generator": "rolling-maintenance-detach",
                "args": {
                    "n_detach": n_churn,
                    "start": {"events_div": 4},
                    "spacing": {"events_div": 2 * n_churn, "min": 1},
                    "seed": seed + 5,
                },
            },
        ),
    )


def _spec_degradation(
    seed: int = 0, small: bool = False, large: bool = False
) -> ScenarioSpec:
    net_args, n_objects, _requests, n_churn = _churn_sizes(small, large)
    return ScenarioSpec(
        name="degradation",
        description="trunk/bus bandwidth decay under a hotspot trace",
        network={"builder": "balanced-tree", "args": net_args},
        workload={
            "kind": "pattern",
            "generator": "hotspot",
            "args": {"n_objects": n_objects, "seed": seed},
            "sequence_seed": seed + 6,
        },
        churn=(
            {
                "generator": "bandwidth-degradation",
                "args": {
                    "n_steps": n_churn,
                    "start": {"events_div": 4},
                    "spacing": {"events_div": 2 * n_churn, "min": 1},
                    "seed": seed + 7,
                },
            },
        ),
    )


def _spec_storm(seed: int = 0, small: bool = False, large: bool = False) -> ScenarioSpec:
    net_args, n_objects, requests, n_churn = _churn_sizes(small, large)
    return ScenarioSpec(
        name="storm",
        description="a seeded mix of every mutation kind through a Zipf trace",
        network={"builder": "balanced-tree", "args": net_args},
        workload={
            "kind": "pattern",
            "generator": "zipf",
            "args": {
                "n_objects": n_objects,
                "requests_per_processor": requests,
                "seed": seed,
            },
            "sequence_seed": seed + 8,
        },
        churn=(
            {
                "generator": "mutation-storm",
                "args": {
                    "n_mutations": 2 * n_churn,
                    "start": {"events_div": 5},
                    "spacing": {"events_div": 4 * n_churn, "min": 1},
                    "seed": seed + 9,
                },
            },
        ),
    )


def _spec_adversarial_storm(
    seed: int = 0, small: bool = False, large: bool = False
) -> ScenarioSpec:
    net_args, n_objects, requests, n_churn = _churn_sizes(small, large)
    return ScenarioSpec(
        name="adversarial-storm",
        description=(
            "mutation storm under write-heavy bisection traffic: churn and "
            "adversarial workload stress the substrate repair together"
        ),
        network={"builder": "balanced-tree", "args": net_args},
        workload={
            "kind": "pattern",
            "generator": "bisection-stress",
            "args": {
                "n_objects": n_objects,
                "requests_per_pair": 2 * requests,
                "seed": seed,
            },
            "sequence_seed": seed + 1,
        },
        churn=(
            {
                "generator": "mutation-storm",
                "args": {
                    "n_mutations": 2 * n_churn,
                    "start": {"events_div": 6},
                    "spacing": {"events_div": 4 * n_churn, "min": 1},
                    "seed": seed + 2,
                },
            },
        ),
    )


def _spec_flash_crowd_recovery(
    seed: int = 0, small: bool = False, large: bool = False
) -> ScenarioSpec:
    net_args, n_objects, requests, n_churn = _churn_sizes(small, large)
    return ScenarioSpec(
        name="flash-crowd-recovery",
        description=(
            "multi-phase flash crowd: newcomers arrive a third of the way "
            "in, then depart again over the last quarter (their remaining "
            "requests drop)"
        ),
        network={"builder": "balanced-tree", "args": net_args},
        workload={
            "kind": "flash-crowd",
            "base": {
                "generator": "zipf",
                "args": {
                    "n_objects": n_objects,
                    "requests_per_processor": requests,
                    "seed": seed,
                },
            },
            "sequence_seed": seed + 1,
            "cut_div": 3,
            "n_new": n_churn,
            "trace_seed": seed + 2,
            "crowd_seed": seed + 3,
            "crowd_requests": requests,
            "recovery": {
                "detach_start": {"events_frac": [3, 4], "min": 1},
                "detach_spacing": {"events_div": 8 * n_churn, "min": 1},
            },
        },
    )


def _spec_fleet_sweep(
    seed: int = 0, small: bool = False, large: bool = False
) -> ScenarioSpec:
    _net_args, n_objects, requests, _ = _streaming_sizes(small, large)
    if large:
        sweep = (
            {"label": "s", "network_args": {"arity": 2, "depth": 3, "leaves_per_bus": 2}},
            {"label": "m", "network_args": {"arity": 3, "depth": 3, "leaves_per_bus": 2}},
            {"label": "l", "network_args": {"arity": 3, "depth": 4, "leaves_per_bus": 3}},
        )
    elif small:
        sweep = (
            {"label": "s", "network_args": {"arity": 2, "depth": 2, "leaves_per_bus": 2}},
            {"label": "m", "network_args": {"arity": 2, "depth": 3, "leaves_per_bus": 2}},
        )
    else:
        sweep = (
            {"label": "s", "network_args": {"arity": 2, "depth": 2, "leaves_per_bus": 2}},
            {"label": "m", "network_args": {"arity": 2, "depth": 3, "leaves_per_bus": 2}},
            {"label": "l", "network_args": {"arity": 3, "depth": 3, "leaves_per_bus": 2}},
        )
    return ScenarioSpec(
        name="fleet-sweep",
        description=(
            "one Zipf workload swept over a fleet of network sizes: how the "
            "online/static gap scales with the hierarchy"
        ),
        network={"builder": "balanced-tree", "args": {"arity": 2, "depth": 2}},
        workload={
            "kind": "pattern",
            "generator": "zipf",
            "args": {
                "n_objects": n_objects,
                "requests_per_processor": requests,
                "seed": seed,
            },
            "sequence_seed": seed + 1,
        },
        sinks=(
            {"kind": "trajectory", "args": {"samples": 4}},
            {"kind": "cost-breakdown"},
        ),
        sweep=sweep,
    )


for _name, _factory in (
    ("zipf", _spec_zipf),
    ("adversarial", _spec_adversarial),
    ("phase-shift", _spec_phase_shift),
    ("flash-crowd", _spec_flash_crowd),
    ("maintenance", _spec_maintenance),
    ("degradation", _spec_degradation),
    ("storm", _spec_storm),
    ("adversarial-storm", _spec_adversarial_storm),
    ("flash-crowd-recovery", _spec_flash_crowd_recovery),
    ("fleet-sweep", _spec_fleet_sweep),
):
    register_scenario(_name, _factory)
