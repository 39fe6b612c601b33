"""Tests for the topology-mutation engine (network/mutation.py)."""

import numpy as np
import pytest

from repro.errors import BandwidthError, InvalidEdgeError, MutationError, ReproError
from repro.network.builders import balanced_tree, single_bus, star_of_buses
from repro.network.mutation import (
    AttachLeaf,
    ChurnTrace,
    DetachLeaf,
    SetBusBandwidth,
    SetEdgeBandwidth,
    SplitBus,
    TimedMutation,
    apply_mutation,
    apply_mutations,
)
from repro.network.node import BusSpec, ProcessorSpec
from repro.network.tree import HierarchicalBusNetwork, NetworkBuilder
from repro.workload.churn import (
    bandwidth_degradation,
    flash_crowd_attach,
    mutation_storm,
    rolling_maintenance_detach,
)
from tests.properties.test_churn_differential import (
    read_network,
    reference_apply_mutation,
)


class TestBandwidthMutations:
    def test_set_edge_bandwidth(self):
        net = single_bus(3)
        e = net.edges[1]
        out = apply_mutation(net, SetEdgeBandwidth(e.u, e.v, 4.0))
        assert not out.structural
        assert out.network.edge_bandwidth(e.u, e.v) == 4.0
        assert out.network.n_nodes == net.n_nodes
        assert np.array_equal(out.node_map, np.arange(net.n_nodes))
        # untouched edges keep their bandwidths
        other = net.edges[0]
        assert out.network.edge_bandwidth(other.u, other.v) == net.edge_bandwidth(
            other.u, other.v
        )

    def test_set_bus_bandwidth(self):
        net = star_of_buses(2, 2)
        out = apply_mutation(net, SetBusBandwidth(0, 3.0))
        assert out.network.bus_bandwidth(0) == 3.0
        assert out.changed_bus == 0

    def test_invalid_bandwidths_rejected(self):
        net = single_bus(3)
        e = net.edges[0]
        with pytest.raises(BandwidthError):
            apply_mutation(net, SetEdgeBandwidth(e.u, e.v, 0.0))
        with pytest.raises(BandwidthError):
            apply_mutation(net, SetBusBandwidth(0, -1.0))

    def test_set_bus_bandwidth_on_processor_rejected(self):
        net = single_bus(3)
        proc = net.processors[0]
        with pytest.raises(MutationError):
            apply_mutation(net, SetBusBandwidth(proc, 2.0))

    @pytest.mark.parametrize("u, v", [(1, 2), (1, 1), (0, 99)])
    def test_set_edge_bandwidth_on_missing_edge_rejected(self, u, v):
        # two processors, a self-loop, an unknown node
        net = single_bus(3)
        with pytest.raises(MutationError) as info:
            apply_mutation(net, SetEdgeBandwidth(u, v, 2.0))
        assert isinstance(info.value.__cause__, InvalidEdgeError)


def _build_two_leaf_bus(bandwidth):
    builder = NetworkBuilder()
    bus = builder.add_bus("b")
    builder.connect(builder.add_processor(), bus)
    builder.connect(builder.add_processor(), bus, bandwidth=bandwidth)
    return builder.build()


# every entry point that takes a bandwidth, fed one value
BANDWIDTH_ENTRY_POINTS = {
    "constructor": lambda bw: HierarchicalBusNetwork(
        [BusSpec("b"), ProcessorSpec(), ProcessorSpec()], [(0, 1), (0, 2)], [1.0, bw]
    ),
    "NetworkBuilder.connect": _build_two_leaf_bus,
    "SetEdgeBandwidth": lambda bw: apply_mutation(single_bus(3), SetEdgeBandwidth(0, 1, bw)),
    "SetBusBandwidth": lambda bw: apply_mutation(single_bus(3), SetBusBandwidth(0, bw)),
    "AttachLeaf": lambda bw: apply_mutation(single_bus(3), AttachLeaf(0, bandwidth=bw)),
    "SplitBus.trunk_bandwidth": lambda bw: apply_mutation(
        single_bus(4), SplitBus(0, (1, 2), trunk_bandwidth=bw)
    ),
    "SplitBus.bus_bandwidth": lambda bw: apply_mutation(
        single_bus(4), SplitBus(0, (1, 2), bus_bandwidth=bw)
    ),
}


@pytest.mark.parametrize("bandwidth", [float("nan"), 0.0, -1.0])
@pytest.mark.parametrize("entry", sorted(BANDWIDTH_ENTRY_POINTS))
def test_bandwidth_not_above_zero_rejected(entry, bandwidth):
    # NaN compares false with everything, so a `<= 0` guard lets it through
    with pytest.raises(BandwidthError):
        BANDWIDTH_ENTRY_POINTS[entry](bandwidth)
    BANDWIDTH_ENTRY_POINTS[entry](2.0)  # the same call with a valid value passes


class TestAttachLeaf:
    def test_ids_are_appended(self):
        net = single_bus(3)
        out = apply_mutation(net, AttachLeaf(0, name="newbie"))
        new = out.network
        assert out.new_node == net.n_nodes
        assert out.new_edge == net.n_edges
        assert new.n_processors == net.n_processors + 1
        assert new.is_processor(out.new_node)
        assert new.name(out.new_node) == "newbie"
        assert new.edge_bandwidth(0, out.new_node) == 1.0
        # existing ids are untouched
        assert np.array_equal(out.node_map, np.arange(net.n_nodes))
        assert np.array_equal(out.edge_map, np.arange(net.n_edges))

    def test_attach_to_processor_rejected(self):
        net = single_bus(3)
        with pytest.raises(MutationError):
            apply_mutation(net, AttachLeaf(net.processors[0]))


class TestDetachLeaf:
    def test_renumbering(self):
        net = single_bus(4)
        victim = net.processors[1]
        out = apply_mutation(net, DetachLeaf(victim))
        new = out.network
        assert new.n_processors == 3
        assert out.node_map[victim] == -1
        assert out.edge_map[out.removed_edge] == -1
        # ids above the removed ones shift down by exactly one
        for v in range(victim + 1, net.n_nodes):
            assert out.node_map[v] == v - 1
        names_old = [net.name(v) for v in range(net.n_nodes) if v != victim]
        names_new = [new.name(v) for v in range(new.n_nodes)]
        assert names_old == names_new

    def test_mapped_edge_loads_drop_removed(self):
        net = single_bus(4)
        victim = net.processors[0]
        out = apply_mutation(net, DetachLeaf(victim))
        loads = np.arange(1, net.n_edges + 1, dtype=float)
        mapped = out.mapped_edge_loads(loads)
        keep = out.edge_map >= 0
        assert np.array_equal(mapped, loads[keep])

    def test_cannot_orphan_a_bus(self):
        # path star: child buses have exactly leaves_per_bus + 1 neighbours
        net = star_of_buses(2, 1)
        proc = net.processors[0]
        with pytest.raises(MutationError):
            apply_mutation(net, DetachLeaf(proc))

    def test_cannot_detach_bus(self):
        net = single_bus(3)
        with pytest.raises(MutationError):
            apply_mutation(net, DetachLeaf(0))


class TestSplitBus:
    def test_moved_edges_keep_ids_and_bandwidths(self):
        net = single_bus(5)
        rooted = net.rooted()
        moved = rooted.children(0)[:2]
        out = apply_mutation(net, SplitBus(0, moved, bus_bandwidth=2.0))
        new = out.network
        assert new.n_buses == net.n_buses + 1
        assert new.bus_bandwidth(out.new_node) == 2.0
        for m, eid in zip(out.moved_nodes, out.moved_edge_ids):
            endpoints = new.edge_endpoints(eid)
            assert set(endpoints) == {m, out.new_node}
            assert new.edge_bandwidth(eid) == net.edge_bandwidth(eid)
        assert new.has_edge(0, out.new_node)
        # tree validity: moved leaves are now two hops from the old bus
        assert new.rooted().distance(out.moved_nodes[0], 0) == 2

    def test_cannot_move_parent_or_everything(self):
        net = star_of_buses(2, 2)
        rooted = net.rooted()
        child_bus = [b for b in net.buses if b != 0][0]
        parent = rooted.parent(child_bus)
        with pytest.raises(MutationError):
            apply_mutation(net, SplitBus(child_bus, (parent,)))
        with pytest.raises(MutationError):
            apply_mutation(net, SplitBus(0, ()))

    def test_moved_must_be_neighbours(self):
        net = star_of_buses(2, 2)
        with pytest.raises(MutationError):
            apply_mutation(net, SplitBus(0, (net.processors[0],)))


class TestMatchesRebuild:
    """Exactness against the constructor rebuild when edge ids run against node ids.

    The churn generators number every child's edge in child-id order; a
    network read from a file need not.  Here every edge id is reversed.
    """

    @staticmethod
    def _reversed_edges():
        base = balanced_tree(2, 2, 3)  # b0 -> b1, b2 -> p3..p5, p6..p8
        specs = [
            BusSpec(base.name(v), 1.0 + v) if base.is_bus(v) else ProcessorSpec()
            for v in base.nodes()
        ]
        return HierarchicalBusNetwork(specs, base.edges[::-1], np.arange(8.0, 0.0, -1.0))

    @pytest.mark.parametrize(
        "mutation",
        [
            SetEdgeBandwidth(1, 4, 3.5),
            SetBusBandwidth(2, 5.5),
            AttachLeaf(1, name="joined", bandwidth=2.5),
            DetachLeaf(4),
            SplitBus(2, (6, 7), name="split", bus_bandwidth=3.5, trunk_bandwidth=2.5),
            SplitBus(1, (3, 4)),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_equals_rebuild(self, mutation):
        net = self._reversed_edges()
        before = read_network(net)
        new = apply_mutation(net, mutation).network
        assert read_network(new) == read_network(reference_apply_mutation(net, mutation))
        assert read_network(net) == before


class TestChurnTrace:
    def test_sorted_and_stable(self):
        net = single_bus(3)
        trace = ChurnTrace(
            [
                (5, AttachLeaf(0, name="b")),
                (2, SetBusBandwidth(0, 2.0)),
                (5, AttachLeaf(0, name="a")),
            ]
        )
        assert [ev.time for ev in trace] == [2, 5, 5]
        # ties keep the given order
        assert trace[1].mutation.name == "b"
        assert trace[2].mutation.name == "a"
        assert trace.attach_count() == 2
        assert trace.max_time == 5

    def test_negative_time_rejected(self):
        with pytest.raises(MutationError):
            TimedMutation(-1, SetBusBandwidth(0, 1.0))

    def test_concatenated(self):
        a = ChurnTrace([(1, SetBusBandwidth(0, 2.0))])
        b = ChurnTrace([(0, SetBusBandwidth(0, 3.0))])
        merged = a.concatenated_with(b)
        assert [ev.time for ev in merged] == [0, 1]


class TestChurnGenerators:
    """The workload-side churn generators produce valid, seeded traces."""

    @pytest.fixture
    def net(self):
        return balanced_tree(2, 3, 2)

    def test_flash_crowd_attach(self, net):
        trace = flash_crowd_attach(net, n_new_leaves=5, time=7, seed=0)
        assert len(trace) == 5
        assert all(isinstance(ev.mutation, AttachLeaf) for ev in trace)
        assert all(ev.time == 7 for ev in trace)
        final, _ = apply_mutations(net, trace.mutations)
        assert final.n_processors == net.n_processors + 5

    def test_rolling_maintenance_detach_valid_chain(self, net):
        trace = rolling_maintenance_detach(net, n_detach=4, spacing=3, seed=1)
        assert 1 <= len(trace) <= 4
        final, _ = apply_mutations(net, trace.mutations)
        final.validate()
        assert final.n_processors == net.n_processors - len(trace)

    def test_bandwidth_degradation_chain(self, net):
        trace = bandwidth_degradation(net, n_steps=6, factor=0.5, floor=0.25, seed=2)
        final, _ = apply_mutations(net, trace.mutations)
        final.validate()
        assert float(np.asarray(final.edge_bandwidths).min()) >= 0.25

    def test_mutation_storm_applies_cleanly(self, net):
        trace = mutation_storm(net, n_mutations=12, seed=3)
        assert len(trace) == 12
        final, _ = apply_mutations(net, trace.mutations)
        final.validate()

    def test_generators_are_deterministic(self, net):
        a = mutation_storm(net, n_mutations=8, seed=9)
        b = mutation_storm(net, n_mutations=8, seed=9)
        assert a.mutations == b.mutations

    def test_reproerror_hierarchy(self):
        assert issubclass(MutationError, ReproError)
