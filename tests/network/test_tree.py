"""Tests for the HierarchicalBusNetwork data structure and the builder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    BandwidthError,
    InvalidEdgeError,
    InvalidNodeError,
    NotATreeError,
    ReproError,
    TopologyError,
)
from repro.network.node import BusSpec, NodeKind, ProcessorSpec
from repro.network.tree import Edge, HierarchicalBusNetwork, NetworkBuilder


def build_simple():
    builder = NetworkBuilder()
    bus = builder.add_bus("bus", bandwidth=4.0)
    p0 = builder.add_processor("p0")
    p1 = builder.add_processor("p1")
    builder.connect(p0, bus, bandwidth=1.0)
    builder.connect(p1, bus, bandwidth=1.0)
    return builder.build(), bus, p0, p1


class TestEdge:
    def test_canonical_order(self):
        assert Edge(3, 1) == (1, 3)
        assert Edge(1, 3).u == 1
        assert Edge(1, 3).v == 3

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidEdgeError):
            Edge(2, 2)

    def test_other_endpoint(self):
        e = Edge(1, 5)
        assert e.other(1) == 5
        assert e.other(5) == 1
        with pytest.raises(InvalidEdgeError):
            e.other(3)


class TestNetworkBuilder:
    def test_basic_build(self):
        net, bus, p0, p1 = build_simple()
        assert net.n_nodes == 3
        assert net.n_processors == 2
        assert net.n_buses == 1
        assert net.is_bus(bus)
        assert net.is_processor(p0)
        assert net.is_processor(p1)
        assert net.bus_bandwidth(bus) == 4.0

    def test_connect_unknown_node(self):
        builder = NetworkBuilder()
        builder.add_bus("b")
        with pytest.raises(InvalidNodeError):
            builder.connect(0, 5)

    def test_nonpositive_bandwidth_rejected(self):
        builder = NetworkBuilder()
        b = builder.add_bus("b")
        p = builder.add_processor("p")
        with pytest.raises(BandwidthError):
            builder.connect(p, b, bandwidth=0)

    def test_names_default(self):
        net, bus, p0, _ = build_simple()
        assert net.name(bus) == "bus"
        assert net.name(p0) == "p0"
        assert net.node_by_name("p1") == 2
        with pytest.raises(InvalidNodeError):
            net.node_by_name("nope")


class TestValidation:
    def test_cycle_rejected(self):
        specs = [BusSpec("b0"), BusSpec("b1"), ProcessorSpec("p0"), ProcessorSpec("p1")]
        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        with pytest.raises(NotATreeError):
            HierarchicalBusNetwork(specs, edges)

    def test_disconnected_rejected(self):
        specs = [BusSpec("b0"), ProcessorSpec("p0"), ProcessorSpec("p1"), ProcessorSpec("p2")]
        edges = [(0, 1), (0, 2), (0, 2)]
        with pytest.raises((NotATreeError, InvalidEdgeError)):
            HierarchicalBusNetwork(specs, edges)

    def test_bus_leaf_rejected(self):
        specs = [BusSpec("b0"), BusSpec("b1"), ProcessorSpec("p0")]
        edges = [(0, 1), (0, 2)]
        with pytest.raises(TopologyError):
            HierarchicalBusNetwork(specs, edges)

    def test_processor_inner_rejected(self):
        specs = [ProcessorSpec("p0"), ProcessorSpec("p1"), ProcessorSpec("p2")]
        edges = [(0, 1), (0, 2)]
        with pytest.raises(TopologyError):
            HierarchicalBusNetwork(specs, edges)

    def test_single_processor_allowed(self):
        net = HierarchicalBusNetwork([ProcessorSpec("p")], [])
        assert net.n_nodes == 1
        assert net.height() == 0

    def test_single_bus_rejected(self):
        with pytest.raises(TopologyError):
            HierarchicalBusNetwork([BusSpec("b")], [])

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            HierarchicalBusNetwork([], [])

    def test_duplicate_edge_rejected(self):
        specs = [BusSpec("b"), ProcessorSpec("p0"), ProcessorSpec("p1")]
        with pytest.raises(InvalidEdgeError):
            HierarchicalBusNetwork(specs, [(0, 1), (1, 0), (0, 2)])


class TestAccessors:
    def test_edges_and_ids(self):
        net, bus, p0, p1 = build_simple()
        eid = net.edge_id(p0, bus)
        assert net.edge_endpoints(eid) == Edge(p0, bus)
        assert net.has_edge(bus, p1)
        assert not net.has_edge(p0, p1)
        with pytest.raises(InvalidEdgeError):
            net.edge_id(p0, p1)

    def test_neighbors_and_degree(self):
        net, bus, p0, p1 = build_simple()
        assert set(net.neighbors(bus)) == {p0, p1}
        assert net.degree(bus) == 2
        assert net.degree(p0) == 1
        assert net.max_degree() == 2

    def test_bandwidth_lookup(self):
        net, bus, p0, _ = build_simple()
        assert net.edge_bandwidth(p0, bus) == 1.0
        assert net.edge_bandwidth(net.edge_id(p0, bus)) == 1.0
        with pytest.raises(InvalidNodeError):
            net.bus_bandwidth(p0)

    def test_contains_iter_len(self):
        net, *_ = build_simple()
        assert 0 in net and 2 in net and 7 not in net
        assert len(net) == 3
        assert list(iter(net)) == [0, 1, 2]

    def test_invalid_node_errors(self):
        net, *_ = build_simple()
        with pytest.raises(InvalidNodeError):
            net.is_bus(17)
        with pytest.raises(InvalidNodeError):
            net.neighbors(-1)

    def test_kind(self):
        net, bus, p0, _ = build_simple()
        assert net.kind(bus) is NodeKind.BUS
        assert net.kind(p0) is NodeKind.PROCESSOR

    def test_equality_and_hash(self):
        net1, *_ = build_simple()
        net2, *_ = build_simple()
        assert net1 == net2
        assert hash(net1) == hash(net2)

    def test_bandwidth_arrays_readonly(self):
        net, *_ = build_simple()
        with pytest.raises(ValueError):
            net.edge_bandwidths[0] = 9.0
        with pytest.raises(ValueError):
            net.bus_bandwidths[0] = 9.0


class TestRootedCache:
    def test_canonical_root_is_bus(self):
        net, bus, *_ = build_simple()
        assert net.canonical_root() == bus

    def test_rooted_view_cached(self):
        net, bus, *_ = build_simple()
        assert net.rooted(bus) is net.rooted(bus)

    def test_height(self):
        net, *_ = build_simple()
        assert net.height() == 1

    def test_edge_bandwidth_sequence_constructor(self):
        specs = [BusSpec("b"), ProcessorSpec("p0"), ProcessorSpec("p1")]
        edges = [(0, 1), (0, 2)]
        net = HierarchicalBusNetwork(specs, edges, edge_bandwidths=[2.0, 3.0])
        assert net.edge_bandwidth(0, 1) == 2.0
        assert net.edge_bandwidth(0, 2) == 3.0
        with pytest.raises(BandwidthError):
            HierarchicalBusNetwork(specs, edges, edge_bandwidths=[2.0])


# --------------------------------------------------------------------------- #
# validate() against the per-node loop it replaced (verbatim)
# --------------------------------------------------------------------------- #
def reference_validate(net):
    """``HierarchicalBusNetwork.validate`` as the traversal and per-node kind loop it was."""
    n = net.n_nodes
    if len(net._edges) != n - 1:
        raise NotATreeError(
            f"a tree on {n} nodes has {n - 1} edges, got {len(net._edges)}"
        )
    # connectivity check by BFS from node 0
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in net._adjacency[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    if count != n:
        raise NotATreeError("the network graph is not connected")

    if n == 1:
        if not net.is_processor(0):
            raise TopologyError("a single-node network must be a processor")
    else:
        for v in range(n):
            deg = len(net._adjacency[v])
            if net.is_processor(v) and deg != 1:
                raise TopologyError(
                    f"processor {v} must be a leaf, has degree {deg}"
                )
            if net.is_bus(v) and deg < 2:
                raise TopologyError(
                    f"bus {v} must be an inner node, has degree {deg}"
                )
    if np.any(net._edge_bandwidth <= 0):
        raise BandwidthError("all edge bandwidths must be positive")
    if np.any(net._bus_bandwidth <= 0):
        raise BandwidthError("all bus bandwidths must be positive")


NON_POSITIVE = st.floats(min_value=-4.0, max_value=0.0)
POSITIVE = st.floats(min_value=0.25, max_value=8.0)


@st.composite
def unchecked_networks(draw):
    """A network built with ``validate=False`` from random finite inputs.

    Edges are a random spanning tree, that tree with one edge added (a
    cycle) or dropped (disconnected), or any ``n - 1`` distinct pairs.
    Kinds either fit the degrees (leaves are processors), with one node
    possibly flipped, or are random: so valid trees, bus leaves and inner
    processors all occur.  At most one edge and one bus bandwidth are
    non-positive.
    """
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    shape = draw(st.sampled_from(["tree", "tree", "add", "drop", "pairs"]))
    if shape == "add" and len(edges) < len(pairs):
        edges.append(draw(st.sampled_from([e for e in pairs if e not in edges])))
    elif shape == "drop" and edges:
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    elif shape == "pairs" and pairs:
        edges = draw(
            st.lists(st.sampled_from(pairs), min_size=n - 1, max_size=n - 1, unique=True)
        )
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if draw(st.sampled_from(["fit", "fit", "random"])) == "fit":
        kinds = [NodeKind.BUS if d >= 2 else NodeKind.PROCESSOR for d in degree]
        if draw(st.sampled_from([False, False, True])):
            flip = draw(st.integers(0, n - 1))
            kinds[flip] = NodeKind(1 - kinds[flip])
    else:
        kinds = draw(st.lists(st.sampled_from(NodeKind), min_size=n, max_size=n))
    specs = [
        BusSpec(f"b{i}", draw(POSITIVE)) if kind is NodeKind.BUS else ProcessorSpec()
        for i, kind in enumerate(kinds)
    ]
    edge_bandwidths = [draw(POSITIVE) for _ in edges]
    if edges and draw(st.sampled_from([False, False, True])):
        edge_bandwidths[draw(st.integers(0, len(edges) - 1))] = draw(NON_POSITIVE)
    net = HierarchicalBusNetwork(specs, edges, edge_bandwidths, validate=False)
    if net.buses and draw(st.sampled_from([False, False, True])):
        # NodeSpec refuses such a bus, so it can only be planted
        net._bus_bandwidth[draw(st.sampled_from(net.buses))] = draw(NON_POSITIVE)
    return net


def _verdict(check, net):
    try:
        check(net)
    except ReproError as exc:
        return type(exc), str(exc)
    return None


class TestValidateOracle:
    @settings(max_examples=300, deadline=None)
    @given(unchecked_networks())
    def test_same_verdict_as_reference(self, net):
        # same exception type and message (so the same first failing node),
        # or both pass
        assert _verdict(HierarchicalBusNetwork.validate, net) == _verdict(
            reference_validate, net
        )
