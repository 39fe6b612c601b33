"""The hierarchical bus network data structure.

A hierarchical bus network (Section 1.1 of the paper) is a weighted tree
``T = (P ∪ B, E, b)``:

* the leaves ``P`` are processors and are the only nodes that may store
  copies of shared data objects and that issue read/write requests,
* the inner nodes ``B`` are buses and can neither store copies nor issue
  requests,
* edges model switches; the function ``b`` assigns bandwidths to edges and
  buses.  The paper assumes processor switches (edges incident to a leaf)
  are the slowest part of the system and have bandwidth one, all other
  bandwidths are at least one.

:class:`HierarchicalBusNetwork` is an immutable, array-backed representation
of such a tree with dense integer node ids.  Use :class:`NetworkBuilder` to
construct instances incrementally, or the ready-made topologies in
:mod:`repro.network.builders`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    BandwidthError,
    InvalidEdgeError,
    InvalidNodeError,
    NotATreeError,
    TopologyError,
)
from repro.network.node import BusSpec, NodeKind, NodeSpec, ProcessorSpec

__all__ = ["Edge", "HierarchicalBusNetwork", "NetworkBuilder"]


class Edge(Tuple[int, int]):
    """Canonical (sorted) undirected edge ``(u, v)`` with ``u < v``."""

    __slots__ = ()

    def __new__(cls, u: int, v: int) -> "Edge":
        if u == v:
            raise InvalidEdgeError(f"self-loop edge ({u}, {v}) is not allowed")
        if u > v:
            u, v = v, u
        return super().__new__(cls, (u, v))

    @property
    def u(self) -> int:
        """Smaller endpoint."""
        return self[0]

    @property
    def v(self) -> int:
        """Larger endpoint."""
        return self[1]

    def other(self, node: int) -> int:
        """Return the endpoint different from ``node``."""
        if node == self[0]:
            return self[1]
        if node == self[1]:
            return self[0]
        raise InvalidEdgeError(f"node {node} is not an endpoint of {self}")


class HierarchicalBusNetwork:
    """Immutable weighted tree with processor leaves and bus inner nodes.

    Instances should normally be created through :class:`NetworkBuilder` or
    the topology factories in :mod:`repro.network.builders`; the constructor
    performs full validation of the hierarchical-bus-network model.

    Parameters
    ----------
    specs:
        One :class:`~repro.network.node.NodeSpec` per node; the position in
        the sequence is the node id.
    edges:
        Iterable of ``(u, v)`` pairs (order irrelevant).
    edge_bandwidths:
        Optional mapping or sequence giving the bandwidth of each edge.  If a
        sequence is given it must be parallel to ``edges``.  Edges without an
        explicit bandwidth default to 1 (processor switch edges) for edges
        incident to a processor and to 1 for bus-bus edges as well.
    validate:
        If true (default), check that the graph is a tree, that leaves are
        exactly the processors, and that bandwidths are positive.
    """

    __slots__ = (
        "_kinds",
        "_names",
        "_bus_bandwidth",
        "_edges",
        "_edge_index",
        "_edge_bandwidth",
        "_adjacency",
        "_incident_edges",
        "_processors",
        "_buses",
        "_rooted_cache",
    )

    def __init__(
        self,
        specs: Sequence[NodeSpec],
        edges: Iterable[Tuple[int, int]],
        edge_bandwidths: Optional[object] = None,
        validate: bool = True,
    ) -> None:
        n = len(specs)
        if n == 0:
            raise TopologyError("a network must contain at least one node")

        self._kinds = np.array([int(s.kind) for s in specs], dtype=np.int8)
        self._names: List[str] = []
        self._bus_bandwidth = np.ones(n, dtype=np.float64)
        for i, spec in enumerate(specs):
            default = ("p" if spec.is_processor else "b") + str(i)
            self._names.append(spec.name if spec.name is not None else default)
            if spec.is_bus:
                self._bus_bandwidth[i] = float(spec.bandwidth)

        edge_list = [Edge(u, v) for (u, v) in edges]
        self._edges: Tuple[Edge, ...] = tuple(edge_list)
        self._edge_index: Dict[Edge, int] = {}
        for idx, e in enumerate(self._edges):
            if e in self._edge_index:
                raise InvalidEdgeError(f"duplicate edge {e}")
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise InvalidNodeError(f"edge {e} references an unknown node")
            self._edge_index[e] = idx

        m = len(self._edges)
        self._edge_bandwidth = np.ones(m, dtype=np.float64)
        if edge_bandwidths is not None:
            if isinstance(edge_bandwidths, dict):
                for key, bw in edge_bandwidths.items():
                    e = Edge(*key)
                    if e not in self._edge_index:
                        raise InvalidEdgeError(f"bandwidth given for unknown edge {e}")
                    self._edge_bandwidth[self._edge_index[e]] = float(bw)
            else:
                values = list(edge_bandwidths)
                if len(values) != m:
                    raise BandwidthError(
                        "edge_bandwidths sequence must be parallel to edges: "
                        f"expected {m} values, got {len(values)}"
                    )
                self._edge_bandwidth = np.asarray(values, dtype=np.float64).copy()

        self._adjacency: List[List[int]] = [[] for _ in range(n)]
        self._incident_edges: List[List[int]] = [[] for _ in range(n)]
        for idx, e in enumerate(self._edges):
            self._adjacency[e.u].append(e.v)
            self._adjacency[e.v].append(e.u)
            self._incident_edges[e.u].append(idx)
            self._incident_edges[e.v].append(idx)
        for lst in self._adjacency:
            lst.sort()

        self._assemble(validate)

    # The per-node and per-edge columns.  None is written once installed, so
    # a network derived by a mutation shares every column it leaves unchanged.
    _COLUMNS = (
        "_kinds",
        "_names",
        "_bus_bandwidth",
        "_edges",
        "_edge_index",
        "_edge_bandwidth",
        "_adjacency",
        "_incident_edges",
    )

    def _assemble(self, validate: bool = True) -> None:
        """Finish a network whose columns are installed, then validate it.

        The one assembly step of the constructor and of :meth:`_derive`.
        """
        self._processors: Tuple[int, ...] = tuple(
            np.flatnonzero(self._kinds == int(NodeKind.PROCESSOR)).tolist()
        )
        self._buses: Tuple[int, ...] = tuple(
            np.flatnonzero(self._kinds == int(NodeKind.BUS)).tolist()
        )
        self._rooted_cache: Dict[int, object] = {}
        if validate:
            self.validate()

    def _derive(self, **columns: object) -> "HierarchicalBusNetwork":
        """A new validated network: this one's columns, the named ones replaced.

        Keywords name columns without the leading underscore
        (``edge_bandwidth=...``); every column not named is shared with this
        network, not copied.  :func:`~repro.network.mutation.apply_mutation`
        builds each mutated network this way.
        """
        derived = object.__new__(HierarchicalBusNetwork)
        for slot in self._COLUMNS:
            setattr(derived, slot, columns.pop(slot[1:], getattr(self, slot)))
        if columns:
            raise TypeError(f"unknown network columns {sorted(columns)}")
        derived._assemble()
        return derived

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the hierarchical-bus-network invariants.

        Raises
        ------
        NotATreeError
            If the graph is disconnected or contains a cycle.
        TopologyError
            If a bus is a leaf or a processor is an inner node (except for
            the degenerate single-processor network), or the single node is
            a bus.
        BandwidthError
            If any bandwidth is not positive (NaN included).
        """
        n = self.n_nodes
        adjacency = self._adjacency
        if len(self._edges) != n - 1:
            raise NotATreeError(
                f"a tree on {n} nodes has {n - 1} edges, got {len(self._edges)}"
            )
        # connectivity check by DFS from node 0 (a list indexes faster than
        # an array from Python)
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        if count != n:
            raise NotATreeError("the network graph is not connected")

        if n == 1:
            if not self.is_processor(0):
                raise TopologyError("a single-node network must be a processor")
        else:
            degree = np.fromiter(map(len, adjacency), dtype=np.int64, count=n)
            is_processor = self._kinds == int(NodeKind.PROCESSOR)
            bad = np.flatnonzero(np.where(is_processor, degree != 1, degree < 2))
            if bad.size:
                v = int(bad[0])
                if is_processor[v]:
                    raise TopologyError(
                        f"processor {v} must be a leaf, has degree {degree[v]}"
                    )
                raise TopologyError(
                    f"bus {v} must be an inner node, has degree {degree[v]}"
                )
        if not np.all(self._edge_bandwidth > 0):
            raise BandwidthError("all edge bandwidths must be positive")
        if not np.all(self._bus_bandwidth > 0):
            raise BandwidthError("all bus bandwidths must be positive")

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Total number of nodes ``|P ∪ B|``."""
        return int(self._kinds.shape[0])

    @property
    def n_edges(self) -> int:
        """Number of edges ``|E|`` (equals ``n_nodes - 1``)."""
        return len(self._edges)

    @property
    def n_processors(self) -> int:
        """Number of processors ``|P|``."""
        return len(self._processors)

    @property
    def n_buses(self) -> int:
        """Number of buses ``|B|``."""
        return len(self._buses)

    @property
    def processors(self) -> Tuple[int, ...]:
        """Node ids of all processors (leaves), ascending."""
        return self._processors

    @property
    def buses(self) -> Tuple[int, ...]:
        """Node ids of all buses (inner nodes), ascending."""
        return self._buses

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All edges in id order (the order used by edge-indexed arrays)."""
        return self._edges

    def nodes(self) -> range:
        """Iterate over all node ids."""
        return range(self.n_nodes)

    @property
    def node_kinds(self) -> np.ndarray:
        """:class:`~repro.network.node.NodeKind` code of every node (int8),
        indexed by node id; shared, so never write into it."""
        return self._kinds

    def is_processor(self, node: int) -> bool:
        """``True`` iff ``node`` is a processor (leaf)."""
        self._check_node(node)
        return self._kinds[node] == int(NodeKind.PROCESSOR)

    def is_bus(self, node: int) -> bool:
        """``True`` iff ``node`` is a bus (inner node)."""
        self._check_node(node)
        return self._kinds[node] == int(NodeKind.BUS)

    def kind(self, node: int) -> NodeKind:
        """Return the :class:`~repro.network.node.NodeKind` of ``node``."""
        self._check_node(node)
        return NodeKind(int(self._kinds[node]))

    def name(self, node: int) -> str:
        """Human readable name of ``node``."""
        self._check_node(node)
        return self._names[node]

    def node_by_name(self, name: str) -> int:
        """Return the id of the node with the given name.

        Raises :class:`~repro.errors.InvalidNodeError` if no node has that
        name.  Names are not required to be unique; the smallest matching id
        is returned.
        """
        for i, n in enumerate(self._names):
            if n == name:
                return i
        raise InvalidNodeError(f"no node named {name!r}")

    def neighbors(self, node: int) -> Sequence[int]:
        """Neighbours of ``node`` in ascending id order."""
        self._check_node(node)
        return tuple(self._adjacency[node])

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        self._check_node(node)
        return len(self._adjacency[node])

    def incident_edge_ids(self, node: int) -> Sequence[int]:
        """Ids of the edges incident to ``node``."""
        self._check_node(node)
        return tuple(self._incident_edges[node])

    # ------------------------------------------------------------------ #
    # edges and bandwidths
    # ------------------------------------------------------------------ #
    def edge_id(self, u: int, v: int) -> int:
        """Return the id of edge ``{u, v}``.

        Raises :class:`~repro.errors.InvalidEdgeError` if the edge does not
        exist.
        """
        e = Edge(u, v)
        try:
            return self._edge_index[e]
        except KeyError:
            raise InvalidEdgeError(f"edge {e} does not exist") from None

    def has_edge(self, u: int, v: int) -> bool:
        """``True`` iff ``{u, v}`` is an edge of the network."""
        if u == v:
            return False
        return Edge(u, v) in self._edge_index

    def edge_endpoints(self, edge_id: int) -> Edge:
        """Return the canonical ``(u, v)`` endpoints of an edge id."""
        try:
            return self._edges[edge_id]
        except IndexError:
            raise InvalidEdgeError(f"edge id {edge_id} out of range") from None

    def edge_bandwidth(self, u: int, v: Optional[int] = None) -> float:
        """Bandwidth ``b(e)`` of an edge, by id or by endpoints."""
        if v is None:
            eid = int(u)
            if not 0 <= eid < self.n_edges:
                raise InvalidEdgeError(f"edge id {eid} out of range")
        else:
            eid = self.edge_id(u, v)
        return float(self._edge_bandwidth[eid])

    def bus_bandwidth(self, node: int) -> float:
        """Bandwidth ``b(B)`` of a bus node."""
        self._check_node(node)
        if not self.is_bus(node):
            raise InvalidNodeError(f"node {node} is not a bus")
        return float(self._bus_bandwidth[node])

    @property
    def edge_bandwidths(self) -> np.ndarray:
        """Read-only array of edge bandwidths indexed by edge id."""
        arr = self._edge_bandwidth.view()
        arr.flags.writeable = False
        return arr

    @property
    def bus_bandwidths(self) -> np.ndarray:
        """Read-only array of per-node bus bandwidths (1.0 for processors)."""
        arr = self._bus_bandwidth.view()
        arr.flags.writeable = False
        return arr

    # ------------------------------------------------------------------ #
    # rooted views
    # ------------------------------------------------------------------ #
    def rooted(self, root: Optional[int] = None) -> "RootedTree":
        """Return a (cached) :class:`~repro.network.rooted.RootedTree` view.

        Parameters
        ----------
        root:
            Node to use as root.  Defaults to the canonical root: the bus
            with the smallest id, or node 0 for a bus-less (single node)
            network.
        """
        if root is None:
            root = self.canonical_root()
        self._check_node(root)
        view = self._rooted_cache.get(root)
        if view is None:
            from repro.network.rooted import RootedTree

            view = RootedTree(self, root)
            self._rooted_cache[root] = view
        return view  # type: ignore[return-value]

    def canonical_root(self) -> int:
        """The default root: smallest-id bus, or node 0 if there is no bus."""
        return self._buses[0] if self._buses else 0

    def height(self, root: Optional[int] = None) -> int:
        """Height of the tree rooted at ``root`` (canonical root by default)."""
        return self.rooted(root).height

    def max_degree(self) -> int:
        """Maximum node degree ``degree(T)``."""
        return max(len(adj) for adj in self._adjacency)

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def _check_node(self, node: int) -> None:
        if not isinstance(node, (int, np.integer)) or not 0 <= node < self.n_nodes:
            raise InvalidNodeError(f"invalid node id {node!r}")

    def __contains__(self, node: object) -> bool:
        return isinstance(node, (int, np.integer)) and 0 <= int(node) < self.n_nodes

    def __len__(self) -> int:
        return self.n_nodes

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n_nodes))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"HierarchicalBusNetwork(n_processors={self.n_processors}, "
            f"n_buses={self.n_buses}, height={self.height()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HierarchicalBusNetwork):
            return NotImplemented
        return (
            np.array_equal(self._kinds, other._kinds)
            and self._edges == other._edges
            and np.allclose(self._edge_bandwidth, other._edge_bandwidth)
            and np.allclose(self._bus_bandwidth, other._bus_bandwidth)
        )

    def __hash__(self) -> int:
        return hash((self._edges, self._kinds.tobytes()))


class NetworkBuilder:
    """Incrementally build a :class:`HierarchicalBusNetwork`.

    Example
    -------
    >>> builder = NetworkBuilder()
    >>> root = builder.add_bus("root", bandwidth=4)
    >>> for i in range(3):
    ...     p = builder.add_processor(f"p{i}")
    ...     _ = builder.connect(p, root)
    >>> net = builder.build()
    >>> net.n_processors, net.n_buses
    (3, 1)
    """

    def __init__(self) -> None:
        self._specs: List[NodeSpec] = []
        self._edges: List[Tuple[int, int]] = []
        self._edge_bandwidths: Dict[Tuple[int, int], float] = {}

    @property
    def n_nodes(self) -> int:
        """Number of nodes added so far."""
        return len(self._specs)

    def add_processor(self, name: Optional[str] = None) -> int:
        """Add a processor (leaf) node and return its id."""
        self._specs.append(ProcessorSpec(name))
        return len(self._specs) - 1

    def add_bus(self, name: Optional[str] = None, bandwidth: float = 1.0) -> int:
        """Add a bus (inner) node with bandwidth ``b(B)`` and return its id."""
        self._specs.append(BusSpec(name, bandwidth))
        return len(self._specs) - 1

    def connect(self, u: int, v: int, bandwidth: float = 1.0) -> Tuple[int, int]:
        """Add the switch edge ``{u, v}`` with bandwidth ``b(e)``.

        Returns the canonical ``(min, max)`` edge tuple.
        """
        if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
            raise InvalidNodeError(f"cannot connect unknown nodes ({u}, {v})")
        if not bandwidth > 0:  # NaN fails too
            raise BandwidthError(f"edge bandwidth must be positive, got {bandwidth}")
        e = (min(u, v), max(u, v))
        self._edges.append(e)
        self._edge_bandwidths[e] = float(bandwidth)
        return e

    def build(self, validate: bool = True) -> HierarchicalBusNetwork:
        """Freeze the builder into a validated network."""
        return HierarchicalBusNetwork(
            self._specs,
            self._edges,
            edge_bandwidths=dict(self._edge_bandwidths),
            validate=validate,
        )
