"""One case generator and one seed knob for every differential suite.

A *case* is one JSON document with two parts:

* a :class:`~repro.sim.scenario.ScenarioSpec`: a small random or balanced
  tree, a Zipf or phase workload, churn that is none, a storm, a
  degradation, a maintenance or a flash crowd, and a strategy roster;
* the replay fields a spec does not carry: a chunk size, a ragged batch
  partition with one-event batches, and none or six random valid
  mutations at boundary times (0, a duplicate time, ``n - 1``, ``n`` and
  past the end).  A built case also replays the owner, median,
  full-replication and random baseline placements of the sequence.

:func:`draw_case` draws a case from a seed, fixing by construction the
axes a short matrix must span (churn kind, chunk size, roster, boundary
mutations or none), so the default matrix spans them all.
:func:`cases` draws every field under hypothesis, so a failing case
shrinks: run an oracle as ``given(case=cases())(oracle)()`` (a
per-member oracle as ``given(member=members())(oracle)()``) and the
falsifying example prints as ``Case.from_json(...)``, which replays it.
A counterexample worth keeping goes under ``tests/regressions/`` as its
JSON document.

``REPRO_FUZZ_SEEDS`` (comma-separated integers, default
:data:`DEFAULT_SEEDS`) is the one seed knob: ``tests/conftest.py`` runs
every test that takes a ``case`` over :func:`matrix`, the drawn cases
plus the committed regressions, and every test that takes a ``member``
(an oracle replaying one strategy) over :func:`member_matrix`, every
roster member of every case.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.core.baselines import (
    full_replication_placement,
    median_leaf_placement,
    owner_placement,
    random_placement,
)
from repro.dynamic.online import EdgeCounterManager, StaticPlacementManager
from repro.dynamic.sequence import RequestEvent, RequestSequence
from repro.network.mutation import ChurnTrace, apply_mutation
from repro.serve.wire import mutation_from_dict, mutation_to_dict
from repro.sim.engine import SimulationEngine
from repro.sim.scenario import NETWORK_BUILDERS, ScenarioSpec, build_scenario
from repro.sim.sinks import TrajectorySink
from repro.workload.churn import random_valid_mutation
from tests.scalar_oracle import reference_replay_with_churn

#: The shortest seed run that spans every churn kind and chunk size.
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
FUZZ_SEEDS = tuple(
    int(s) for s in os.environ.get("REPRO_FUZZ_SEEDS", "").split(",") if s.strip()
) or DEFAULT_SEEDS

CHUNK_SIZES = (None, 1, 7, 64)
BATCH_SIZES = (1, 2, 3, 5, 9, 13, 50, 120)
CHURN = ("none", "storm", "degradation", "maintenance", "flash-crowd")
# churn kind -> (churn generator, its count argument, the least count)
CHURN_ENTRIES = {
    "storm": ("mutation-storm", "n_mutations", 4),
    "degradation": ("bandwidth-degradation", "n_steps", 2),
    "maintenance": ("rolling-maintenance-detach", "n_detach", 1),
}
EXTRA_STRATEGIES = (
    {"kind": "edge-counter", "label": "edge-counter-s2-p1",
     "args": {"object_size": 2, "invalidation_patience": 1}},
    {"kind": "hysteresis", "args": {"object_size": 2, "migration_factor": 2}},
    {"kind": "rent-or-buy", "args": {"replicate_threshold": 3, "migrate_threshold": 2}},
    {"kind": "first-touch"},
)
BASELINES = ("owner", "median", "full-replication", "random")


@lru_cache(maxsize=64)
def _scenario(spec_json: str):
    """The spec built, once per spec: a case's draw, its pattern and its
    replays share one build."""
    return build_scenario(ScenarioSpec.from_json(spec_json))[0]


@dataclass(frozen=True)
class Case:
    """One differential case: a scenario spec plus its replay fields."""

    seed: int
    spec: ScenarioSpec
    chunk_size: Optional[int]
    batches: Tuple[int, ...]
    mutations: Tuple[tuple, ...] = ()

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "spec": self.spec.to_dict(),
            "chunk_size": self.chunk_size,
            "batches": list(self.batches),
            "mutations": [[t, mutation_to_dict(m)] for t, m in self.mutations],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Case":
        doc = json.loads(text)
        return cls(
            doc["seed"],
            ScenarioSpec.from_dict(doc["spec"]),
            doc["chunk_size"],
            tuple(doc["batches"]),
            tuple((t, mutation_from_dict(m)) for t, m in doc["mutations"]),
        )

    def __repr__(self) -> str:
        return f"Case.from_json({self.to_json()!r})"

    @property
    def scenario(self):
        """The spec built, without the boundary mutations or baselines."""
        return _scenario(self.spec.to_json())

    @property
    def labels(self):
        """The labels of :attr:`built`'s roster, read from the spec, so
        listing a case's members builds nothing."""
        return [s.get("label", s["kind"]) for s in self.spec.strategies] + list(BASELINES)

    @cached_property
    def pattern(self):
        """The sequence's aggregate over the base network, as the
        hindsight-static strategy takes it."""
        built = self.scenario
        procs, objs, writes = built.sequence.as_arrays()
        keep = procs < built.network.n_nodes
        return RequestSequence.from_columns(
            procs[keep], objs[keep], writes[keep], built.sequence.n_objects
        ).to_pattern(built.network)

    @cached_property
    def built(self):
        """The spec built, with the boundary mutations merged into its trace
        (ties keep the spec's first) and the baselines added to its roster."""
        built = self.scenario
        net, pattern = built.network, self.pattern
        events = list(built.trace or ()) + list(self.mutations)
        placements = (
            owner_placement(net, pattern),
            median_leaf_placement(net, pattern),
            full_replication_placement(net, pattern),
            random_placement(net, pattern, seed=self.seed),
        )
        return replace(
            built,
            trace=ChurnTrace(events) if events else None,
            strategies=built.strategies + [
                (name, partial(StaticPlacementManager, net, placement))
                for name, placement in zip(BASELINES, placements)
            ],
        )

    @cached_property
    def alone(self):
        """Each strategy of the roster replayed whole by
        ``SimulationEngine.run``, in roster order (one arm of several
        oracles, so replayed once per case)."""
        built = self.built
        return [
            SimulationEngine(
                factory(), sinks=built.make_sinks(), chunk_size=self.chunk_size
            ).run(built.sequence, built.trace)
            for _label, factory in built.strategies
        ]

    def fleet(self):
        """The whole roster replayed as one ``SimulationEngine.run_fleet``."""
        built = self.built
        return SimulationEngine.run_fleet(
            [factory() for _label, factory in built.strategies],
            built.sequence,
            built.trace,
            sinks=[built.make_sinks() for _ in built.strategies],
            chunk_size=self.chunk_size,
        )

    @cached_property
    def together(self):
        """The :meth:`fleet` of the roster, replayed once per case (the
        fleet oracle reads one lane per member)."""
        return self.fleet()


def _compose(seed: int, pick: Callable[[int], int], churn_kind: str,
             chunk_size: Optional[int], extras: tuple, boundary: bool) -> Case:
    """The case of the given churn kind, chunk size, extra roster members
    and boundary mutations (or none), whose every other choice ``pick(k)``
    (an int in ``[0, k)``) made; choice 0 is always the simplest, so
    hypothesis shrinks toward it."""
    if pick(2):
        network = {"builder": "balanced-tree",
                   "args": {"arity": 2 + pick(2), "depth": 2, "leaves_per_bus": 2 + pick(2)}}
    else:
        network = {"builder": "random-tree",
                   "args": {"n_buses": 2 + pick(5), "n_processors": 4 + pick(9), "seed": seed}}
    n_procs = NETWORK_BUILDERS[network["builder"]](**network["args"]).n_processors
    objects = {"n_objects": 4 + pick(12), "requests_per_processor": max(4, 120 // n_procs),
               "write_fraction": (0.1, 0.3, 0.5)[pick(3)]}
    zipf = {"generator": "zipf", "args": {**objects, "seed": seed}}
    churn = []
    if churn_kind == "flash-crowd":
        workload = {"kind": "flash-crowd", "base": zipf, "n_new": 2 + pick(4),
                    "crowd_requests": 4, "sequence_seed": seed + 1,
                    "trace_seed": seed + 2, "crowd_seed": seed + 3}
        if pick(2):
            workload["recovery"] = {"detach_start": {"events_frac": [2, 3]},
                                    "detach_spacing": 2}
    else:
        if pick(2):  # two phases of half the requests each
            half = {**objects,
                    "requests_per_processor": max(2, objects["requests_per_processor"] // 2)}
            phases = [{"generator": "zipf", "args": {**half, "seed": seed}},
                      {"generator": "uniform", "args": {**half, "seed": seed + 4}}]
            workload = {"kind": "phases", "phases": phases, "sequence_seed": seed + 1}
        else:
            workload = {"kind": "pattern", **zipf, "sequence_seed": seed + 1}
        if churn_kind != "none":
            generator, count, least = CHURN_ENTRIES[churn_kind]
            churn.append({"generator": generator, "args": {
                count: least + pick(6), "start": {"events_div": 5},
                "spacing": {"events_div": 16, "min": 1}, "seed": seed + 5}})
    roster = [{"kind": "hindsight-static"}, {"kind": "edge-counter"}, *extras]
    spec = ScenarioSpec(
        name=f"fuzz-{seed}",
        description="a drawn differential case",
        network=network,
        workload=workload,
        churn=tuple(churn),
        strategies=tuple(roster),
        sinks=({"kind": "trajectory", "args": {"samples": (1, 3, 7, 1000)[pick(4)]}},
               {"kind": "cost-breakdown"}, {"kind": "drops"}),
    )
    batches = [BATCH_SIZES[pick(len(BATCH_SIZES))] for _ in range(1 + pick(4))]
    batches.insert(pick(len(batches) + 1), 1)
    case = Case(seed, spec, chunk_size, tuple(batches))
    if not boundary:
        return case
    return replace(case, mutations=boundary_mutations(case.scenario, seed, tie=1 + pick(7)))


def boundary_mutations(built, seed: int, tie: int) -> Tuple[tuple, ...]:
    """Random mutations of the built scenario at 0, twice at ``tie / 8`` of
    the way, at ``n - 1``, ``n`` and past the end, each valid for the
    network it meets on the merged timeline.  Until the spec's own churn
    has run they only change bandwidths: a structural one could
    invalidate a later spec mutation."""
    n = len(built.sequence)
    spec_events = [(tm.time, tm.mutation) for tm in built.trace or ()]
    times = (0, n * tie // 8, n * tie // 8, n - 1, n, n + 7)
    timeline = sorted(spec_events + [(t, None) for t in times], key=lambda e: e[0])
    rng = np.random.default_rng(seed)
    network, drawn, ahead = built.network, [], len(spec_events)
    for time, mutation in timeline:
        if mutation is None:
            mutation = random_valid_mutation(network, rng)
            while ahead and mutation.structural:
                mutation = random_valid_mutation(network, rng)
            drawn.append((time, mutation))
        else:
            ahead -= 1
        network = apply_mutation(network, mutation).network
    return tuple(drawn)


def draw_case(seed: int) -> Case:
    """The case of ``seed``.  The axes a short matrix must span are fixed
    by the seed, not drawn: seed ``k`` takes ``CHURN[k % 5]``,
    ``CHUNK_SIZES[k % 4]`` and the whole roster, and carries boundary
    mutations unless ``k % 10 == 0``, so seed 0 is trace-free and seed 5
    is churn-free with boundary mutations of every kind."""
    rng = np.random.default_rng(seed)
    return _compose(seed, lambda k: int(rng.integers(k)), CHURN[seed % len(CHURN)],
                    CHUNK_SIZES[seed % len(CHUNK_SIZES)], EXTRA_STRATEGIES, seed % 10 != 0)


@st.composite
def cases(draw) -> Case:
    """The hypothesis twin of :func:`draw_case`, drawing every field,
    shrinking toward small trees, no churn, no boundary mutations, short
    rosters and one-event batches."""
    seed = draw(st.integers(0, 2**16))

    def pick(k):
        return draw(st.integers(0, k - 1))

    churn_kind, chunk_size = CHURN[pick(len(CHURN))], CHUNK_SIZES[pick(len(CHUNK_SIZES))]
    extras = tuple(strategy for strategy in EXTRA_STRATEGIES if pick(2))
    return _compose(seed, pick, churn_kind, chunk_size, extras, bool(pick(2)))


@st.composite
def members(draw) -> Tuple[Case, int]:
    """The hypothesis twin of :func:`member_matrix`: a drawn case and the
    index of one strategy of its roster, shrinking toward the first."""
    case = draw(cases())
    return case, draw(st.integers(0, len(case.labels) - 1))


REGRESSIONS = Path(__file__).parent / "regressions"


@lru_cache(maxsize=None)
def matrix() -> List[Case]:
    """The cases of ``REPRO_FUZZ_SEEDS`` plus the committed regressions,
    drawn on the first call."""
    return [draw_case(seed) for seed in FUZZ_SEEDS] + [
        Case.from_json(path.read_text()) for path in sorted(REGRESSIONS.glob("*.json"))
    ]


def member_matrix() -> List[Tuple[Case, int]]:
    """``(case, index)`` of every roster member of every case: an oracle
    that replays one strategy runs once per member, so a failure names the
    strategy and one broken member cannot hide another."""
    return [(case, index) for case in matrix() for index in range(len(case.labels))]


# --------------------------------------------------------------------------- #
# what the oracles compare
# --------------------------------------------------------------------------- #
def record(strategy, account, served, dropped, n_mutations, trajectory, sample_times):
    """Everything two replays of one case must agree on, bit for bit: the
    fused load row, cost units, congestion, counts, the trajectory and the
    holder sets.  The row's bus block must also equal a fresh fold."""
    assert account.state.verify_bus_loads()
    return {
        "loads": account.state._loads.tobytes(),
        "units": (account.service_units, account.management_units),
        "congestion": account.congestion,
        "counts": (served, dropped, n_mutations),
        "trajectory": (trajectory.tobytes(), sample_times.tobytes()),
        "holders": [sorted(strategy.holders(o)) for o in range(strategy.n_objects)],
    }


def record_of(result):
    """The :func:`record` of an engine result (an empty trajectory when it
    ran without a trajectory sink)."""
    sink = result.sink(TrajectorySink) or TrajectorySink(1)
    return record(result.strategy, result.account, result.served, result.dropped,
                  result.n_mutations, sink.trajectory, sink.sample_times)


def scalar_record(strategy, sequence, trace, sample_every):
    """The :func:`record` of ``strategy`` replayed by the scalar churn
    reference of ``tests/scalar_oracle.py``."""
    ref = reference_replay_with_churn(strategy, sequence, trace, sample_every)
    return record(strategy, ref["account"], ref["served"], ref["dropped"],
                  len(ref["outcomes"]), ref["trajectory"], ref["sample_times"])


def feed(stream, sequence, trace, batches):
    """Serve ``sequence`` through ``stream`` in the cycled ragged
    ``batches``, each mutation at its time; returns the finished result."""
    pending = list(trace or ())
    position = cursor = 0
    while position < len(sequence):
        while pending and pending[0].time <= position:
            stream.mutate(pending.pop(0).mutation)
        stop = min(position + batches[cursor % len(batches)], len(sequence))
        if pending:
            stop = min(stop, pending[0].time)
        stream.serve(sequence.subsequence(position, stop))
        position, cursor = stop, cursor + 1
    for timed in pending:
        stream.mutate(timed.mutation)
    return stream.finish()


# --------------------------------------------------------------------------- #
# the crafted adaptive cascade (fleet and kernel suites)
# --------------------------------------------------------------------------- #
def adaptive_only_factories(net, n_objects):
    """An all-adaptive fleet: three counter tunings plus the hysteresis
    and rent-or-buy threshold splits of the scenario registry's roster."""
    return [
        lambda: EdgeCounterManager(net, n_objects, object_size=2),
        lambda: EdgeCounterManager(
            net, n_objects, object_size=2, invalidation_patience=1
        ),
        lambda: EdgeCounterManager(
            net, n_objects, object_size=4, invalidation_patience=3
        ),
        lambda: EdgeCounterManager(
            net, n_objects, object_size=2, migrate_threshold=4
        ),
        lambda: EdgeCounterManager(
            net, n_objects, replicate_threshold=3, migrate_threshold=2
        ),
    ]


def crossing_sequence(net):
    """A crafted sequence whose adaptation events sit at known indices.

    With ``object_size=2`` the remote reader earns its replica on its
    2nd read (index 2), the writer invalidates it (index 3 area) and a
    lonely copy migrates after persistent remote writes -- plus a fresh
    object first-touched deep into the stream (index 7), so sweeping
    every chunk size places first touches and threshold crossings at
    every possible chunk-relative offset, including exactly on chunk
    boundaries.
    """
    p0, p1, p2 = net.processors[0], net.processors[-1], net.processors[1]
    events = [
        RequestEvent(p0, 0, "read"),   # first touch: p0 materialises obj 0
        RequestEvent(p1, 0, "read"),   # credit 1
        RequestEvent(p1, 0, "read"),   # credit 2 -> replicate (crossing)
        RequestEvent(p0, 0, "write"),  # invalidation pressure on p1's copy
        RequestEvent(p0, 0, "write"),  # patience 2 -> p1's replica dropped
        RequestEvent(p2, 1, "write"),  # first touch mid-stream: obj 1 on p2
        RequestEvent(p0, 1, "write"),  # remote-writer credit 1
        RequestEvent(p0, 1, "write"),  # credit 2 -> migrate (crossing)
        RequestEvent(p1, 0, "read"),   # re-earn credit after invalidation
        RequestEvent(p1, 0, "read"),   # -> replicate again (thrash cycle)
        RequestEvent(p0, 0, "write"),
        RequestEvent(p2, 1, "read"),
    ]
    return RequestSequence(events, n_objects=2)
