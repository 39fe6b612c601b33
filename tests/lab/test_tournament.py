"""Tests for the strategy-tournament layer (specs, execution, leaderboard)."""

from __future__ import annotations

import pytest

from repro.lab.registry import LabRegistry, run_missing, tournament_entry
from repro.lab.tournament import (
    TOURNAMENT_STRATEGIES,
    leaderboard_rows,
    tournament_spec,
)


@pytest.fixture(scope="module")
def stored_tournament(tmp_path_factory):
    """One executed tournament entry in a fresh registry."""
    registry = LabRegistry(tmp_path_factory.mktemp("tournament-registry"))
    entry = tournament_entry(tournament_spec("zipf", seed=0, small=True), 0)
    run_missing(registry, [entry])
    return registry, entry


class TestExecution:
    def test_tournament_kind_executes_like_a_scenario(self, stored_tournament):
        registry, entry = stored_tournament
        payload = registry.get(entry.key)
        assert payload["kind"] == "tournament"
        assert payload["name"] == "tournament/zipf"
        strategies = {r["strategy"] for r in payload["records"]}
        assert strategies == {
            str(s.get("label", s["kind"])) for s in TOURNAMENT_STRATEGIES
        }

    def test_rerun_is_a_noop(self, stored_tournament):
        registry, entry = stored_tournament
        result = run_missing(registry, [entry])
        assert result.already_stored == 1
        assert result.n_executed == 0


class TestLeaderboard:
    def test_standings_shape_and_baseline_ratio(self, stored_tournament):
        registry, entry = stored_tournament
        rows = leaderboard_rows([registry.get(entry.key)])
        assert [set(row) for row in rows] == [
            {"strategy", "wins", "entries", "mean ratio vs hindsight-static"}
        ] * len(rows)
        by_strategy = {row["strategy"]: row for row in rows}
        assert by_strategy["hindsight-static"][
            "mean ratio vs hindsight-static"
        ] == pytest.approx(1.0)
        assert sum(int(row["wins"]) for row in rows) >= 1

    def test_standings_sorted_by_wins_then_ratio(self, stored_tournament):
        registry, entry = stored_tournament
        rows = leaderboard_rows([registry.get(entry.key)])

        def sort_key(row):
            ratio = row["mean ratio vs hindsight-static"]
            return (
                -int(row["wins"]),
                float(ratio) if isinstance(ratio, float) else float("inf"),
                str(row["strategy"]),
            )

        assert rows == sorted(rows, key=sort_key)

    def test_leaderboard_is_deterministic(self, stored_tournament):
        registry, entry = stored_tournament
        payload = registry.get(entry.key)
        assert leaderboard_rows([payload]) == leaderboard_rows([payload])
