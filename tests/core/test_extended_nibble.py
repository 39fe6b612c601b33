"""Tests for the full extended-nibble strategy (Theorem 4.3)."""

import pytest

from repro.core.bounds import nibble_lower_bound
from repro.core.congestion import compute_loads
from repro.core.extended_nibble import extended_nibble
from repro.core.optimal import optimal_nonredundant
from repro.network.builders import (
    balanced_tree,
    path_of_buses,
    random_tree,
    single_bus,
    star_of_buses,
)
from repro.network.tree import NetworkBuilder
from repro.workload.access import AccessPattern
from repro.workload.adversarial import bisection_stress, write_conflict_pattern
from repro.workload.generators import random_sparse_pattern, uniform_pattern, zipf_pattern
from repro.workload.traces import shared_counter_trace, web_cache_trace


def assert_valid_result(net, pat, result):
    """Common structural checks on an ExtendedNibbleResult."""
    result.placement.validate_for(net, pat, require_leaf_only=True)
    result.assignment.validate_for(net, pat, result.placement)
    assert result.placement.n_objects == pat.n_objects


class TestStructuralValidity:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed):
        net = random_tree(5, 8, seed=seed)
        pat = random_sparse_pattern(net, 8, seed=seed)
        result = extended_nibble(net, pat)
        assert_valid_result(net, pat, result)

    def test_every_object_has_a_holder(self):
        net = balanced_tree(2, 2, 2)
        pat = AccessPattern.empty(net.n_nodes, 5)
        result = extended_nibble(net, pat)
        assert_valid_result(net, pat, result)
        assert result.congestion(net, pat) == 0.0

    def test_requestless_objects_sit_on_the_leaf_nearest_their_center(self):
        # bus 0 carries processors 4 and 5 directly; processors 2 and 3 have
        # smaller ids but sit one bus further away, behind bus 1
        builder = NetworkBuilder()
        root, bus = builder.add_bus("root"), builder.add_bus("child")
        near = [builder.add_processor(f"p{i}") for i in range(4)]
        builder.connect(bus, root)
        for proc in near[:2]:
            builder.connect(proc, bus)
        for proc in near[2:]:
            builder.connect(proc, root)
        net = builder.build()
        assert net.processors == (2, 3, 4, 5)
        pat = AccessPattern.from_requests(net, 3, [(2, 0, 3, 1)])
        result = extended_nibble(net, pat)
        assert_valid_result(net, pat, result)
        rooted = net.rooted()
        for obj in (1, 2):  # the requestless objects
            center = result.nibble.centers[obj]
            # the processor nearest the center, ties to the smallest id
            expected = min(net.processors, key=lambda p: (rooted.distance(center, p), p))
            assert result.placement.holders(obj) == frozenset({expected})
            assert expected == 4
        assert result.placement.holders(0) == frozenset({2})

    def test_timings_reported(self):
        net = single_bus(4)
        pat = uniform_pattern(net, 8, seed=0)
        result = extended_nibble(net, pat)
        assert result.timings.nibble >= 0
        assert result.timings.total >= result.timings.mapping

    @pytest.mark.parametrize(
        "make_net",
        [
            lambda: single_bus(6),
            lambda: balanced_tree(2, 3, 2),
            lambda: path_of_buses(5, leaves_per_bus=1),
            lambda: star_of_buses(3, 3),
        ],
        ids=["bus", "balanced", "path", "star"],
    )
    def test_various_topologies(self, make_net):
        net = make_net()
        pat = uniform_pattern(net, 16, requests_per_processor=8, seed=1)
        result = extended_nibble(net, pat)
        assert_valid_result(net, pat, result)


class TestApproximationGuarantee:
    @pytest.mark.parametrize("seed", range(10))
    def test_factor_seven_vs_nibble_lower_bound(self, seed):
        net = random_tree(5, 8, seed=seed)
        pat = random_sparse_pattern(net, 8, seed=seed)
        result = extended_nibble(net, pat)
        lb = nibble_lower_bound(net, pat)
        c = result.congestion(net, pat)
        if lb > 0:
            assert c <= 7 * lb + 1e-9
        else:
            assert c == 0.0

    @pytest.mark.parametrize(
        "make_pattern",
        [
            lambda net: shared_counter_trace(net, 4, 8, 8),
            lambda net: zipf_pattern(net, 24, seed=0),
            lambda net: web_cache_trace(net, 32, seed=0),
            lambda net: bisection_stress(net, 16, seed=0),
            lambda net: write_conflict_pattern(net, 16, seed=0),
        ],
        ids=["counter", "zipf", "web", "bisection", "conflict"],
    )
    def test_factor_seven_on_workload_families(self, make_pattern):
        net = balanced_tree(2, 3, 2)
        pat = make_pattern(net)
        result = extended_nibble(net, pat)
        lb = nibble_lower_bound(net, pat)
        c = result.congestion(net, pat)
        assert lb == 0 or c <= 7 * lb + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_factor_seven_vs_exact_optimum(self, seed):
        """On tiny instances, compare against the true optimum directly."""
        net = single_bus(4)
        pat = random_sparse_pattern(net, 4, density=0.6, max_frequency=5, seed=seed)
        result = extended_nibble(net, pat)
        c = result.congestion(net, pat)
        opt = optimal_nonredundant(net, pat).congestion
        if opt > 0:
            assert c <= 7 * opt + 1e-9

    def test_write_only_instances_match_single_copy_quality(self):
        # with writes only, redundancy never helps; the strategy should end
        # close to the exact optimum
        net = single_bus(5)
        pat = write_conflict_pattern(net, 6, writes_per_endpoint=4, seed=1)
        result = extended_nibble(net, pat)
        opt = optimal_nonredundant(net, pat).congestion
        assert result.congestion(net, pat) <= 7 * opt + 1e-9


class TestIntermediateArtefacts:
    def test_nibble_artefact_matches_standalone_run(self):
        from repro.core.nibble import nibble_placement

        net = balanced_tree(2, 2, 2)
        pat = uniform_pattern(net, 8, seed=2)
        result = extended_nibble(net, pat)
        standalone = nibble_placement(net, pat)
        assert result.nibble.placement == standalone.placement

    def test_modified_copies_cover_all_objects(self):
        net = balanced_tree(2, 2, 2)
        pat = uniform_pattern(net, 6, seed=3)
        result = extended_nibble(net, pat)
        assert len(result.modified_copies) == pat.n_objects
        assert [oc.obj for oc in result.modified_copies] == list(range(pat.n_objects))

    def test_mapping_diagnostics_consistent(self):
        net = balanced_tree(2, 3, 2)
        pat = shared_counter_trace(net, 4, 8, 8)
        result = extended_nibble(net, pat)
        # shared counters have huge write contention -> their nibble copies sit
        # on buses and must be mapped
        assert len(result.mapping.affected_objects) > 0
        assert result.mapping.tau_max > 0

    def test_assignment_reproduces_reported_congestion(self):
        net = star_of_buses(3, 2)
        pat = zipf_pattern(net, 16, seed=4)
        result = extended_nibble(net, pat)
        direct = compute_loads(
            net, pat, result.placement, assignment=result.assignment
        ).congestion
        assert direct == pytest.approx(result.congestion(net, pat))

    def test_deterministic(self):
        net = balanced_tree(2, 2, 2)
        pat = uniform_pattern(net, 8, seed=5)
        r1 = extended_nibble(net, pat)
        r2 = extended_nibble(net, pat)
        assert r1.placement == r2.placement
