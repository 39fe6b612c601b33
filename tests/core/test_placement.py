"""Tests for Placement, Share and RequestAssignment."""

import pytest

from repro.core.placement import Placement, RequestAssignment, Share
from repro.errors import AssignmentError, PlacementError
from repro.network.builders import single_bus
from repro.workload.access import AccessPattern


@pytest.fixture
def net():
    return single_bus(3)


@pytest.fixture
def pattern(net):
    procs = list(net.processors)
    return AccessPattern.from_requests(
        net,
        2,
        [
            (procs[0], 0, 2, 1),
            (procs[1], 0, 0, 3),
            (procs[2], 1, 4, 0),
        ],
    )


class TestPlacement:
    def test_single_holder(self, net):
        p = Placement.single_holder([net.processors[0], net.processors[1]])
        assert p.n_objects == 2
        assert p.holders(0) == frozenset({net.processors[0]})
        assert not p.is_redundant(0)
        assert p.total_copies() == 2

    def test_full_replication(self, net):
        p = Placement.full_replication(net, 3)
        assert p.n_objects == 3
        for x in range(3):
            assert p.holders(x) == frozenset(net.processors)
            assert p.is_redundant(x)

    def test_empty_holder_set_rejected(self):
        with pytest.raises(PlacementError):
            Placement([[1], []])

    def test_is_leaf_only(self, net):
        leafy = Placement.single_holder([net.processors[0]])
        assert leafy.is_leaf_only(net)
        bussy = Placement.single_holder([net.buses[0]])
        assert not bussy.is_leaf_only(net)

    def test_validate_for(self, net, pattern):
        good = Placement.single_holder([net.processors[0], net.processors[1]])
        good.validate_for(net, pattern, require_leaf_only=True)

    def test_validate_unknown_node(self, net, pattern):
        bad = Placement.single_holder([99, net.processors[0]])
        with pytest.raises(PlacementError):
            bad.validate_for(net, pattern)

    def test_validate_leaf_only_violation(self, net, pattern):
        bad = Placement.single_holder([net.buses[0], net.processors[0]])
        with pytest.raises(PlacementError):
            bad.validate_for(net, pattern, require_leaf_only=True)

    def test_validate_object_count_mismatch(self, net, pattern):
        bad = Placement.single_holder([net.processors[0]])
        with pytest.raises(PlacementError):
            bad.validate_for(net, pattern)

    def test_equality_and_hash(self, net):
        a = Placement([[1, 2], [3]])
        b = Placement([[2, 1], [3]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Placement([[1], [3]])


class TestShare:
    def test_total(self):
        s = Share(holder=1, reads=2, writes=3)
        assert s.total == 5

    def test_negative_rejected(self):
        with pytest.raises(AssignmentError):
            Share(holder=1, reads=-1, writes=0)


class TestRequestAssignment:
    def test_nearest_copy_prefers_local(self, net, pattern):
        procs = list(net.processors)
        placement = Placement([[procs[0], procs[1]], [procs[2]]])
        assignment = RequestAssignment.nearest_copy(net, pattern, placement)
        assert assignment.reference_copy(procs[0], 0) == procs[0]
        assert assignment.reference_copy(procs[1], 0) == procs[1]
        assert assignment.reference_copy(procs[2], 1) == procs[2]
        assert assignment.is_single_reference()
        assignment.validate_for(net, pattern, placement)

    def test_nearest_copy_tie_breaks_smallest_id(self, net, pattern):
        procs = list(net.processors)
        # processor 2 requests object 1; copies on procs[0] and procs[1] are
        # equidistant, so the smaller id wins
        placement = Placement([[procs[0]], [procs[0], procs[1]]])
        assignment = RequestAssignment.nearest_copy(net, pattern, placement)
        assert assignment.reference_copy(procs[2], 1) == min(procs[0], procs[1])

    def test_single_reference_constructor(self, net, pattern):
        procs = list(net.processors)
        reference = {
            (procs[0], 0): procs[1],
            (procs[1], 0): procs[1],
            (procs[2], 1): procs[2],
        }
        placement = Placement([[procs[1]], [procs[2]]])
        assignment = RequestAssignment.single_reference(pattern, reference)
        assignment.validate_for(net, pattern, placement)

    def test_single_reference_missing_pair(self, net, pattern):
        with pytest.raises(AssignmentError):
            RequestAssignment.single_reference(pattern, {})

    def test_shares_empty_for_silent_pair(self, net, pattern):
        procs = list(net.processors)
        placement = Placement([[procs[0]], [procs[0]]])
        assignment = RequestAssignment.nearest_copy(net, pattern, placement)
        assert assignment.shares(procs[2], 0) == ()

    def test_reference_copy_errors(self, net, pattern):
        procs = list(net.processors)
        placement = Placement([[procs[0]], [procs[0]]])
        assignment = RequestAssignment.nearest_copy(net, pattern, placement)
        with pytest.raises(AssignmentError):
            assignment.reference_copy(procs[2], 0)  # no requests

    def test_split_shares_detected(self, net, pattern):
        procs = list(net.processors)
        shares = {
            (procs[0], 0): [Share(procs[0], 1, 0), Share(procs[1], 1, 1)],
            (procs[1], 0): [Share(procs[1], 0, 3)],
            (procs[2], 1): [Share(procs[2], 4, 0)],
        }
        assignment = RequestAssignment(shares, 2)
        assert not assignment.is_single_reference()
        with pytest.raises(AssignmentError):
            assignment.reference_copy(procs[0], 0)
        placement = Placement([[procs[0], procs[1]], [procs[2]]])
        assignment.validate_for(net, pattern, placement)

    def test_validate_detects_count_mismatch(self, net, pattern):
        procs = list(net.processors)
        shares = {
            (procs[0], 0): [Share(procs[0], 1, 0)],  # pattern says 2 reads, 1 write
            (procs[1], 0): [Share(procs[0], 0, 3)],
            (procs[2], 1): [Share(procs[2], 4, 0)],
        }
        assignment = RequestAssignment(shares, 2)
        placement = Placement([[procs[0]], [procs[2]]])
        with pytest.raises(AssignmentError):
            assignment.validate_for(net, pattern, placement)

    def test_validate_detects_foreign_holder(self, net, pattern):
        procs = list(net.processors)
        shares = {
            (procs[0], 0): [Share(procs[2], 2, 1)],  # procs[2] holds no copy of 0
            (procs[1], 0): [Share(procs[0], 0, 3)],
            (procs[2], 1): [Share(procs[2], 4, 0)],
        }
        assignment = RequestAssignment(shares, 2)
        placement = Placement([[procs[0]], [procs[2]]])
        with pytest.raises(AssignmentError):
            assignment.validate_for(net, pattern, placement)

    def test_validate_detects_missing_shares(self, net, pattern):
        procs = list(net.processors)
        shares = {
            (procs[0], 0): [Share(procs[0], 2, 1)],
            (procs[2], 1): [Share(procs[2], 4, 0)],
        }
        assignment = RequestAssignment(shares, 2)
        placement = Placement([[procs[0]], [procs[2]]])
        with pytest.raises(AssignmentError):
            assignment.validate_for(net, pattern, placement)

    def test_object_index_out_of_range(self):
        with pytest.raises(AssignmentError):
            RequestAssignment({(0, 5): [Share(0, 1, 0)]}, 2)

    def test_phantom_shares_rejected(self):
        """Shares stored on a pair without requests must sum to zero and
        name a network node; before, they validated and were charged."""
        from repro.core.congestion import compute_loads

        net = single_bus(3)
        procs = list(net.processors)
        pat = AccessPattern.from_requests(net, 1, [(procs[0], 0, 3, 0)])
        placement = Placement([[procs[0]]])
        base = {(procs[0], 0): [Share(procs[0], 3, 0)]}
        RequestAssignment(base, 1).validate_for(net, pat, placement)
        assert compute_loads(net, pat, placement).congestion == 0.0
        for phantom in (procs[-1], net.buses[0], -1, net.n_nodes):
            shares = dict(base)
            shares[(phantom, 0)] = [Share(procs[0], 100, 0)]
            assignment = RequestAssignment(shares, 1)
            with pytest.raises(AssignmentError):
                assignment.validate_for(net, pat, placement)
            with pytest.raises(AssignmentError):
                compute_loads(net, pat, placement, assignment=assignment)
