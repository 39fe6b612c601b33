"""Tests for the deletion algorithm (Step 2, Observation 3.2)."""

import numpy as np
import pytest

from repro.core.congestion import object_edge_loads
from repro.core.deletion import (
    CopyRecord,
    apply_deletion,
    copies_to_placement,
    delete_rarely_used_copies,
    refine_copies,
)
from repro.core.nibble import nibble_placement
from repro.network.builders import random_tree, single_bus, star_of_buses
from repro.workload.access import AccessPattern
from repro.workload.generators import uniform_pattern


def run_deletion(seed, n_objects=6):
    net = random_tree(4, 7, seed=seed)
    pat = uniform_pattern(net, n_objects, requests_per_processor=10, seed=seed)
    nib = nibble_placement(net, pat)
    copies = apply_deletion(net, pat, nib.placement)
    return net, pat, nib, copies


class TestCopyRecord:
    def test_served_accumulates_per_processor(self):
        copy = CopyRecord(obj=0, node=3)
        copy.add(1, 2, 1)
        copy.add(1, 0, 4)
        copy.add(2, 1, 0)
        assert copy.s == 8
        assert dict((p, (r, w)) for p, r, w in copy.served) == {1: (2, 5), 2: (1, 0)}

    def test_zero_add_is_ignored(self):
        copy = CopyRecord(obj=0, node=3)
        copy.add(1, 0, 0)
        assert copy.served == []

    def test_take_all_empties(self):
        copy = CopyRecord(obj=0, node=3)
        copy.add(1, 2, 2)
        taken = copy.take_all()
        assert taken == [(1, 2, 2)]
        assert copy.s == 0

    def test_home_defaults_to_initial_node(self):
        copy = CopyRecord(obj=0, node=5)
        assert copy.home == 5


class TestObservation32:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_copy_serves_between_kappa_and_two_kappa(self, seed):
        net, pat, nib, copies = run_deletion(seed)
        for oc in copies:
            if oc.kappa == 0:
                continue
            for copy in oc.copies:
                assert oc.kappa <= copy.s <= 2 * oc.kappa

    @pytest.mark.parametrize("seed", range(6))
    def test_requests_are_conserved(self, seed):
        net, pat, nib, copies = run_deletion(seed)
        for oc in copies:
            assert oc.total_served == pat.total_requests(oc.obj)
            reads = sum(r for c in oc.copies for (_p, r, _w) in c.served)
            writes = sum(w for c in oc.copies for (_p, _r, w) in c.served)
            assert reads == int(pat.reads[:, oc.obj].sum())
            assert writes == int(pat.writes[:, oc.obj].sum())

    @pytest.mark.parametrize("seed", range(6))
    def test_surviving_holders_subset_of_nibble_holders(self, seed):
        net, pat, nib, copies = run_deletion(seed)
        for oc in copies:
            assert oc.holder_nodes <= nib.placement.holders(oc.obj)

    @pytest.mark.parametrize("seed", range(6))
    def test_per_edge_load_at_most_doubled(self, seed):
        """Observation 3.2: the modified placement is edge-optimal up to 2x."""
        net, pat, nib, copies = run_deletion(seed)
        fallback = [min(nib.placement.holders(x)) for x in range(pat.n_objects)]
        placement, assignment = copies_to_placement(copies, pat, fallback)
        for obj in range(pat.n_objects):
            nib_loads = object_edge_loads(net, pat, nib.placement, obj)
            mod_loads = object_edge_loads(
                net, pat, placement, obj, assignment=assignment
            )
            kappa = pat.write_contention(obj)
            # load increases by at most kappa on any edge (and hence <= 2x
            # the nibble load inside T(x), which already carries kappa)
            assert np.all(mod_loads <= nib_loads + kappa + 1e-9)


class TestStructuralBehaviour:
    def test_single_holder_untouched(self):
        net = single_bus(3)
        procs = list(net.processors)
        pat = AccessPattern.from_requests(net, 1, [(procs[0], 0, 0, 4), (procs[1], 0, 0, 4)])
        nib = nibble_placement(net, pat)
        assert len(nib.placement.holders(0)) == 1
        oc = delete_rarely_used_copies(net, pat, 0, nib.placement.holders(0))
        assert oc.holder_nodes == nib.placement.holders(0)
        assert oc.total_served == 8

    def test_rarely_used_copy_removed(self):
        net = star_of_buses(2, 2)
        procs = list(net.processors)
        # heavy requester far outweighs a light one; the light one's copy
        # (if any) must disappear because it serves fewer than kappa requests
        pat = AccessPattern.from_requests(
            net,
            1,
            [
                (procs[0], 0, 20, 5),
                (procs[3], 0, 1, 0),
            ],
        )
        nib = nibble_placement(net, pat)
        oc = delete_rarely_used_copies(net, pat, 0, nib.placement.holders(0))
        for copy in oc.copies:
            assert copy.s >= oc.kappa

    def test_splitting_creates_colocated_copies(self):
        net = single_bus(4)
        procs = list(net.processors)
        # kappa = 2, but the gravity-center copy serves 20 requests, so it
        # must be split into about 20 / (2*2) = 5 copies on the same node
        pat = AccessPattern.from_requests(
            net,
            1,
            [
                (procs[0], 0, 9, 1),
                (procs[1], 0, 9, 1),
            ],
        )
        nib = nibble_placement(net, pat)
        copies = apply_deletion(net, pat, nib.placement)
        oc = copies[0]
        assert oc.kappa == 2
        nodes = [c.node for c in oc.copies]
        # several copies may share a node
        assert len(oc.copies) >= 2
        for c in oc.copies:
            assert oc.kappa <= c.s <= 2 * oc.kappa
        assert oc.total_served == 20
        assert set(nodes) <= nib.placement.holders(0)

    def test_read_only_object_keeps_only_used_copies(self):
        net = star_of_buses(2, 2)
        procs = list(net.processors)
        pat = AccessPattern.from_requests(
            net, 1, [(procs[0], 0, 5, 0), (procs[3], 0, 7, 0)]
        )
        nib = nibble_placement(net, pat)
        copies = apply_deletion(net, pat, nib.placement)
        oc = copies[0]
        # unused (bus) copies of a read-only object are pruned
        assert all(c.s > 0 for c in oc.copies)
        assert oc.holder_nodes <= frozenset(procs)

    def test_copies_to_placement_requires_fallback_for_empty(self):
        net = single_bus(3)
        pat = AccessPattern.empty(net.n_nodes, 1)
        from repro.core.deletion import ObjectCopies
        from repro.errors import AlgorithmError

        empty = [ObjectCopies(obj=0, kappa=0, copies=[])]
        with pytest.raises(AlgorithmError):
            copies_to_placement(empty, pat)
        placement, assignment = copies_to_placement(
            empty, pat, fallback_holders=[net.processors[0]]
        )
        assert placement.holders(0) == frozenset({net.processors[0]})

    def test_copies_to_placement_fallback_mapping_missing_object(self):
        """A fallback mapping without an object that has no copies raises the
        same AlgorithmError as no fallback at all (not a bare KeyError)."""
        from repro.core.deletion import ObjectCopies
        from repro.errors import AlgorithmError

        net = single_bus(3)
        pat = AccessPattern.empty(net.n_nodes, 2)
        empty = [ObjectCopies(obj=x, kappa=0, copies=[]) for x in range(2)]
        with pytest.raises(AlgorithmError, match="object 1 has no copies"):
            copies_to_placement(empty, pat, fallback_holders={0: net.processors[0]})

    def test_disconnected_holder_set_rejected(self):
        net = single_bus(3)
        procs = list(net.processors)
        pat = AccessPattern.from_requests(net, 1, [(procs[0], 0, 1, 1)])
        from repro.errors import AlgorithmError

        with pytest.raises(AlgorithmError):
            delete_rarely_used_copies(net, pat, 0, frozenset({procs[0], procs[1]}))


class TestRefineCopies:
    def test_never_worse_and_consistent(self):
        from repro.core.congestion import compute_loads
        from repro.core.extended_nibble import extended_nibble

        net = random_tree(5, 10, seed=3)
        pat = uniform_pattern(net, 10, requests_per_processor=10, seed=3)
        result = extended_nibble(net, pat)
        refinement = refine_copies(net, pat, result.modified_copies)

        base = compute_loads(
            net, pat, result.placement, assignment=result.assignment
        ).congestion
        assert refinement.congestion_before == pytest.approx(base)
        assert refinement.congestion_after <= refinement.congestion_before + 1e-9

        # the inputs are cloned, never mutated
        assert sum(len(oc.copies) for oc in result.modified_copies) >= sum(
            len(oc.copies) for oc in refinement.copies
        )
        # the refined records still convert to a consistent placement whose
        # measured congestion equals the engine's incremental value
        fallback = [list(net.processors)[0]] * pat.n_objects
        placement, assignment = copies_to_placement(
            refinement.copies, pat, fallback_holders=fallback
        )
        check = compute_loads(net, pat, placement, assignment=assignment).congestion
        assert check == pytest.approx(refinement.congestion_after)

    def test_preserves_every_request(self):
        net = star_of_buses(3, 2)
        pat = uniform_pattern(net, 6, requests_per_processor=8, seed=1)
        nib = nibble_placement(net, pat)
        copies = apply_deletion(net, pat, nib.placement)
        refinement = refine_copies(net, pat, copies)
        served_before = sum(c.s for oc in copies for c in oc.copies)
        served_after = sum(c.s for oc in refinement.copies for c in oc.copies)
        assert served_before == served_after
        # every object keeps at least one copy
        assert all(oc.copies or pat.is_trivial(oc.obj) for oc in refinement.copies)
