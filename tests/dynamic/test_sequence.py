"""Tests for request sequences and their generators."""

import numpy as np
import pytest

from repro.dynamic.sequence import (
    RequestEvent,
    RequestSequence,
    phase_change_sequence,
    sequence_from_pattern,
)
from repro.errors import WorkloadError
from repro.network.builders import balanced_tree, single_bus
from repro.workload.generators import uniform_pattern


class TestRequestEvent:
    def test_kinds(self):
        read = RequestEvent(1, 0, "read")
        write = RequestEvent(1, 0, "write")
        assert read.is_read and not read.is_write
        assert write.is_write and not write.is_read

    def test_invalid_kind(self):
        with pytest.raises(WorkloadError):
            RequestEvent(1, 0, "fetch")


class TestRequestSequence:
    def test_basic_container_behaviour(self):
        events = [RequestEvent(1, 0, "read"), RequestEvent(2, 1, "write")]
        seq = RequestSequence(events, n_objects=2)
        assert len(seq) == 2
        assert seq[0].processor == 1
        assert [e.obj for e in seq] == [0, 1]

    def test_object_range_checked(self):
        with pytest.raises(WorkloadError):
            RequestSequence([RequestEvent(1, 5, "read")], n_objects=2)

    def test_validate_for_network(self):
        net = single_bus(3)
        seq = RequestSequence([RequestEvent(net.buses[0], 0, "read")], 1)
        with pytest.raises(WorkloadError):
            seq.validate_for(net)

    def test_prefix_and_concat(self):
        events = [RequestEvent(1, 0, "read")] * 5
        seq = RequestSequence(events, 1)
        assert len(seq.prefix(3)) == 3
        assert len(seq.concatenated_with(seq)) == 10
        other = RequestSequence([], 2)
        with pytest.raises(WorkloadError):
            seq.concatenated_with(other)

    def test_to_pattern_round_trip(self):
        net = single_bus(3)
        pattern = uniform_pattern(net, 4, requests_per_processor=10, seed=0)
        seq = sequence_from_pattern(net, pattern, seed=1)
        assert seq.to_pattern(net) == pattern

    @pytest.mark.parametrize("proc", [-1, 4])
    def test_to_pattern_rejects_events_outside_the_network(self, proc):
        """A negative id was credited to the last node's row and an id past
        the last node raised a bare IndexError; both are workload errors."""
        net = single_bus(3)  # nodes 0..3
        events = [RequestEvent(net.processors[0], 0, "read"), RequestEvent(proc, 0, "write")]
        with pytest.raises(WorkloadError, match=f"node {proc}"):
            RequestSequence(events, 1).to_pattern(net)


class TestGenerators:
    def test_sequence_length_matches_pattern_totals(self):
        net = balanced_tree(2, 2, 2)
        pattern = uniform_pattern(net, 6, requests_per_processor=8, seed=2)
        seq = sequence_from_pattern(net, pattern, seed=0)
        assert len(seq) == int(pattern.totals.sum())

    def test_shuffling_is_deterministic_given_seed(self):
        net = single_bus(3)
        pattern = uniform_pattern(net, 4, seed=3)
        a = sequence_from_pattern(net, pattern, seed=11)
        b = sequence_from_pattern(net, pattern, seed=11)
        assert a.events == b.events

    def test_phase_change_concatenates_phases(self):
        net = single_bus(3)
        phase1 = uniform_pattern(net, 4, requests_per_processor=5, seed=0)
        phase2 = uniform_pattern(net, 4, requests_per_processor=5, seed=1)
        seq = phase_change_sequence(net, [phase1, phase2], seed=2)
        assert len(seq) == int(phase1.totals.sum() + phase2.totals.sum())
        # aggregate equals the sum of the phases
        agg = seq.to_pattern(net)
        assert np.array_equal(agg.reads, phase1.reads + phase2.reads)
        assert np.array_equal(agg.writes, phase1.writes + phase2.writes)

    def test_phase_change_requires_matching_objects(self):
        net = single_bus(3)
        with pytest.raises(WorkloadError):
            phase_change_sequence(
                net,
                [uniform_pattern(net, 4, seed=0), uniform_pattern(net, 5, seed=0)],
            )
        with pytest.raises(WorkloadError):
            phase_change_sequence(net, [])
