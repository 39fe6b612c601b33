"""Tests for the baseline placement strategies."""

import numpy as np
import pytest

from repro.core.baselines import (
    full_replication_placement,
    greedy_congestion_placement,
    median_leaf_placement,
    owner_placement,
    random_placement,
)
from repro.core.congestion import compute_loads, total_communication_load
from repro.core.optimal import _per_object_leaf_loads
from repro.core.placement import Placement
from repro.network.builders import balanced_tree, random_tree, single_bus, star_of_buses
from repro.workload.access import AccessPattern
from repro.workload.adversarial import replication_trap
from repro.workload.generators import uniform_pattern, zipf_pattern
from tests.scalar_oracle import (
    reference_greedy_congestion_placement,
    reference_per_object_leaf_loads,
)

ALL_BASELINES = [
    owner_placement,
    median_leaf_placement,
    greedy_congestion_placement,
    lambda net, pat: random_placement(net, pat, seed=0),
    full_replication_placement,
]


class TestCommonContract:
    @pytest.mark.parametrize("factory", ALL_BASELINES)
    def test_valid_leaf_only_placement(self, factory):
        net = balanced_tree(2, 2, 2)
        pat = uniform_pattern(net, 8, seed=0)
        placement = factory(net, pat)
        placement.validate_for(net, pat, require_leaf_only=True)
        assert placement.n_objects == pat.n_objects

    @pytest.mark.parametrize("factory", ALL_BASELINES)
    def test_handles_empty_pattern(self, factory):
        net = single_bus(3)
        pat = AccessPattern.empty(net.n_nodes, 2)
        placement = factory(net, pat)
        placement.validate_for(net, pat, require_leaf_only=True)


class TestOwnerPlacement:
    def test_places_on_heaviest_requester(self):
        net = single_bus(3)
        p1, p2, p3 = net.processors
        pat = AccessPattern.from_requests(
            net, 2, [(p1, 0, 10, 0), (p2, 0, 1, 1), (p3, 1, 0, 7)]
        )
        placement = owner_placement(net, pat)
        assert placement.holders(0) == frozenset({p1})
        assert placement.holders(1) == frozenset({p3})

    def test_tie_breaks_to_smallest_processor(self):
        net = single_bus(3)
        p1, p2, _ = net.processors
        pat = AccessPattern.from_requests(net, 1, [(p1, 0, 5, 0), (p2, 0, 5, 0)])
        assert owner_placement(net, pat).holders(0) == frozenset({min(p1, p2)})


class TestMedianLeafPlacement:
    def test_minimises_total_load(self):
        net = star_of_buses(2, 2)
        procs = list(net.processors)
        # three requesters on one side, one on the other: the weighted median
        # lies on the heavy side
        pat = AccessPattern.from_requests(
            net,
            1,
            [
                (procs[0], 0, 4, 0),
                (procs[1], 0, 4, 0),
                (procs[3], 0, 1, 0),
            ],
        )
        placement = median_leaf_placement(net, pat)
        chosen = next(iter(placement.holders(0)))
        best = min(
            procs,
            key=lambda leaf: total_communication_load(
                net, pat, Placement.single_holder([leaf])
            ),
        )
        assert total_communication_load(
            net, pat, placement
        ) == pytest.approx(
            total_communication_load(
                net, pat, Placement.single_holder([best])
            )
        )
        assert chosen in procs


class TestGreedyPlacement:
    def test_not_worse_than_owner_on_uniform(self):
        net = balanced_tree(2, 2, 2)
        pat = uniform_pattern(net, 16, seed=1)
        greedy = compute_loads(net, pat, greedy_congestion_placement(net, pat)).congestion
        owner = compute_loads(net, pat, owner_placement(net, pat)).congestion
        assert greedy <= owner + 1e-9

    def test_respects_explicit_order(self):
        net = single_bus(3)
        pat = uniform_pattern(net, 4, seed=2)
        p1 = greedy_congestion_placement(net, pat, object_order=[0, 1, 2, 3])
        p2 = greedy_congestion_placement(net, pat, object_order=[3, 2, 1, 0])
        # both must be valid; they may differ
        p1.validate_for(net, pat)
        p2.validate_for(net, pat)


#: The candidate-search seed matrix: balanced trees, random trees and a
#: single bus, with bus and trunk bandwidths other than 1.
SEARCH_NETWORKS = {
    "balanced": lambda seed: balanced_tree(2, 3, 2, bus_bandwidth=1.5, trunk_bandwidth=3.0),
    "balanced-wide": lambda seed: balanced_tree(3, 2, 3, bus_bandwidth=2.0),
    "random": lambda seed: random_tree(
        5, 11, seed=seed, bus_bandwidth=2.5, trunk_bandwidth=0.5
    ),
    "single-bus": lambda seed: single_bus(6, bus_bandwidth=3.0),
}


def _search_instance(kind, seed):
    net = SEARCH_NETWORKS[kind](seed)
    if seed % 2:
        pat = zipf_pattern(net, 12, requests_per_processor=9, write_fraction=0.3, seed=seed)
    else:
        pat = uniform_pattern(net, 10, requests_per_processor=5, seed=seed)
    return net, pat


class TestCandidateSearchOracle:
    """The greedy baseline and the exact search build candidate blocks with
    ``pair_edge_loads_lanes`` and score them with ``trial_congestions``;
    both must reproduce their former hand-rolled code exactly."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", sorted(SEARCH_NETWORKS))
    def test_greedy_matches_reference(self, kind, seed):
        net, pat = _search_instance(kind, seed)
        assert greedy_congestion_placement(
            net, pat
        ) == reference_greedy_congestion_placement(net, pat)
        order = np.random.default_rng(seed).permutation(pat.n_objects).tolist()
        assert greedy_congestion_placement(
            net, pat, object_order=order
        ) == reference_greedy_congestion_placement(net, pat, object_order=order)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", sorted(SEARCH_NETWORKS))
    def test_candidate_blocks_match_reference(self, kind, seed):
        net, pat = _search_instance(kind, seed)
        procs = list(net.processors)
        pm = net.rooted().path_matrix()
        reference = reference_per_object_leaf_loads(net, pat, procs)
        blocks = _per_object_leaf_loads(net, pat, procs)
        assert len(blocks) == len(reference) == pat.n_objects
        for obj, (block, ref) in enumerate(zip(blocks, reference)):
            requesters = np.asarray(pat.requesters(obj), dtype=np.int64)
            targets = np.broadcast_to(procs, (requesters.size, len(procs)))
            direct = pm.pair_edge_loads_lanes(requesters, targets, pat.totals[requesters, obj])
            assert block.tobytes() == ref.tobytes() == direct.tobytes()
            assert block.shape == ref.shape == (net.n_edges, len(procs))


class TestRandomAndReplication:
    def test_random_is_deterministic_given_seed(self):
        net = balanced_tree(2, 2, 2)
        pat = uniform_pattern(net, 8, seed=3)
        assert random_placement(net, pat, seed=42) == random_placement(net, pat, seed=42)

    def test_full_replication_bad_under_writes(self):
        net = single_bus(8)
        pat = replication_trap(net, 8, reads_per_processor=2, writes_per_object=4, seed=0)
        replicated = compute_loads(net, pat, full_replication_placement(net, pat)).congestion
        single = compute_loads(net, pat, owner_placement(net, pat)).congestion
        assert replicated > single

    def test_full_replication_free_reads(self):
        net = single_bus(4)
        procs = list(net.processors)
        pat = AccessPattern.from_requests(
            net, 1, [(p, 0, 5, 0) for p in procs]
        )
        profile = compute_loads(net, pat, full_replication_placement(net, pat))
        assert profile.congestion == 0.0
