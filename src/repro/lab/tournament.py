"""Strategy tournaments: one strategy set raced across the scenario registry.

A tournament entry is an ordinary :class:`~repro.sim.scenario.ScenarioSpec`
of a registered scenario family with its strategy tuple replaced by the
pinned :data:`TOURNAMENT_STRATEGIES` set -- the paper's reference
strategies (hindsight-static, first-touch) against the adaptive
counter family (the default rent-or-buy :class:`EdgeCounterManager`, an
eager low-threshold tuning, migration hysteresis, and a hand-tuned
rent-or-buy threshold split).  Because the spec document embeds the
strategy set, tournament runs are content-addressed in the lab registry
exactly like scenario runs: resumable via ``run-missing``, byte-identical
across serial and ``--parallel`` execution, and consumed by the generated
RESULTS.md leaderboard without hand transcription.

The scenario runner replays every entry through the fleet engine, which
makes this shape cheap: all lanes of one tournament entry replay in a
single timeline pass over a shared
:class:`~repro.core.loadstate.StackedLoadState`.  Every adaptive tuning,
first-touch included, is one :class:`EdgeCounterManager` with its own
thresholds, so all five adaptive lanes share one chunk decode and one
nearest-table fill through ``EdgeCounterManager.serve_chunk_fleet``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Mapping, Sequence, Tuple

__all__ = [
    "TOURNAMENT_STRATEGIES",
    "tournament_spec",
    "leaderboard_rows",
]

#: The pinned tournament strategy set.  Labels name the runs in records
#: and on the leaderboard; ``hindsight-static`` doubles as the ratio
#: baseline.  Changing this tuple changes every tournament spec hash, so
#: stored runs of the old set are invalidated (``repro lab gc`` reclaims
#: them).
TOURNAMENT_STRATEGIES: Tuple[Mapping, ...] = (
    {"kind": "hindsight-static", "label": "hindsight-static"},
    {"kind": "first-touch", "label": "first-touch"},
    {"kind": "edge-counter", "label": "edge-counter"},
    {
        "kind": "edge-counter",
        "label": "edge-counter-eager",
        "args": {"object_size": 2, "invalidation_patience": 1},
    },
    {
        "kind": "hysteresis",
        "label": "hysteresis",
        "args": {"migration_factor": 3},
    },
    {
        "kind": "rent-or-buy",
        "label": "rent-or-buy-tuned",
        "args": {
            "replicate_threshold": 6,
            "migrate_threshold": 3,
            "invalidation_patience": 3,
        },
    },
)


def tournament_spec(name: str, seed: int = 0, small: bool = False,
                    large: bool = False):
    """The tournament variant of one registered scenario family.

    The base spec of the family is built for ``(seed, size)`` and its
    strategy tuple swapped for :data:`TOURNAMENT_STRATEGIES`; network,
    workload, churn, sinks and sweep stay untouched, so the tournament
    replays exactly the timeline the plain scenario entry replays.
    """
    from repro.sim.scenario import scenario_spec

    base = scenario_spec(name, seed=seed, small=small, large=large)
    return replace(base, strategies=TOURNAMENT_STRATEGIES)


def leaderboard_rows(
    payloads: Sequence[Mapping],
) -> List[Dict[str, object]]:
    """The tournament standings, one row per strategy.

    A strategy *wins* a ``(scenario, sweep label)`` group when no
    strategy in that group reached lower final congestion (ties share
    the win).  ``mean ratio`` is the arithmetic mean over all groups of
    the strategy's congestion relative to the group's hindsight-static
    baseline -- the offline reference every online strategy in the paper
    is measured against.  Rows sort by wins (descending), then mean
    ratio (ascending), then label; the records come straight from stored
    registry artifacts, so the standings are deterministic and
    machine-independent.
    """
    groups: Dict[Tuple[str, str], List[Mapping]] = {}
    for payload in payloads:
        for record in payload["records"]:
            key = (str(record.get("scenario", "")), str(record.get("label", "")))
            groups.setdefault(key, []).append(record)

    wins: Dict[str, int] = {}
    ratios: Dict[str, List[float]] = {}
    entered: Dict[str, int] = {}
    for records in groups.values():
        best = min(float(r["congestion"]) for r in records)
        baseline = next(
            (
                float(r["congestion"])
                for r in records
                if r.get("strategy") == "hindsight-static"
            ),
            None,
        )
        for record in records:
            strategy = str(record.get("strategy", ""))
            congestion = float(record["congestion"])
            entered[strategy] = entered.get(strategy, 0) + 1
            if congestion == best:
                wins[strategy] = wins.get(strategy, 0) + 1
            if baseline:
                ratios.setdefault(strategy, []).append(congestion / baseline)

    rows = [
        {
            "strategy": strategy,
            "wins": wins.get(strategy, 0),
            "entries": entered[strategy],
            "mean ratio vs hindsight-static": (
                sum(ratios[strategy]) / len(ratios[strategy])
                if ratios.get(strategy)
                else "n/a"
            ),
        }
        for strategy in entered
    ]
    rows.sort(
        key=lambda row: (
            -int(row["wins"]),
            (
                float(row["mean ratio vs hindsight-static"])
                if isinstance(row["mean ratio vs hindsight-static"], float)
                else float("inf")
            ),
            str(row["strategy"]),
        )
    )
    return rows
