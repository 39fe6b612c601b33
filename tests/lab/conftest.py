"""Shared fixtures for the experiment-lab tests."""

from __future__ import annotations

import pytest

from repro.lab.registry import experiment_entry, experiment_seeds, scenario_entry
from repro.sim.scenario import scenario_spec


def _tiny_entries():
    """A fast four-entry suite (two scenarios, two experiments)."""
    seeds = experiment_seeds(0, ["E1", "E4"])
    return [
        scenario_entry(scenario_spec("zipf", seed=0, small=True), 0),
        scenario_entry(scenario_spec("storm", seed=0, small=True), 0),
        experiment_entry("E1", seeds["E1"], small=True),
        experiment_entry("E4", seeds["E4"], small=True),
    ]


@pytest.fixture(scope="session")
def tiny_suite():
    """The tiny suite as immutable entries (safe to share across tests)."""
    return _tiny_entries()
