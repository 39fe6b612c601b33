"""Online data management strategies on hierarchical bus networks.

The dynamic model (discussed in Section 1.3 of the paper, following
[MMVW97] and [MVW99]) serves requests one by one without knowledge of the
future and may replicate, migrate and invalidate copies while doing so.
Copies may only reside on processors (the hierarchical bus network
restriction studied in this paper).

This module provides:

* :class:`OnlineCostAccount` -- the per-edge/bus load bookkeeping shared by
  all strategies; serving and management traffic are charged to the same
  congestion measure used in the static model.  Since the load-state
  refactor it is a thin facade over the incremental
  :class:`~repro.core.loadstate.LoadState` engine: every charge is an
  O(path) scatter and ``bus_loads`` / ``congestion`` are maintained
  incrementally instead of being recomputed from scratch on every read.
* :class:`StaticPlacementManager` -- serves the whole sequence from a fixed
  placement (no adaptation); used as the hindsight-static reference when the
  placement comes from the extended-nibble on the aggregate frequencies.
  Because it never adapts, a chunk of events collapses into one
  path-incidence scatter.
* :class:`EdgeCounterManager` -- an adaptive strategy in the spirit of the
  dynamic strategies of [MMVW97]: per-object read counters trigger
  replication towards frequent readers once they have paid the equivalent of
  a copy migration (``object_size`` requests), and writes invalidate replicas
  that have not been read since the previous write burst.  We make no
  competitive-ratio claim for this exact variant; the evaluation harness
  (:mod:`repro.dynamic.evaluate`) measures its empirical ratio against the
  hindsight-static reference.

Every strategy serves every span, one event or many, through
``serve_chunk``, with exactly the loads of serving its events one at a
time as the dynamic model defines.  That scalar serve loop lives in
``tests/scalar_oracle.py``, the reference of the differential suites.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import kernels
from repro.core.loadstate import LoadState
from repro.core.placement import Placement
from repro.dynamic.adaptive_state import AdaptiveState
from repro.dynamic.sequence import RequestSequence
from repro.errors import PlacementError, WorkloadError
from repro.network.rooted import RootedTree
from repro.network.tree import HierarchicalBusNetwork

__all__ = [
    "OnlineCostAccount",
    "OnlineStrategy",
    "StaticPlacementManager",
    "EdgeCounterManager",
    "HysteresisCounterManager",
    "RentOrBuyManager",
]


def _integer_amount(amount) -> int:
    """Validate one charge amount against the integer-load invariant.

    The exactness guarantees of the whole substrate (bit-for-bit parity,
    rollback journals, repair-equals-rebuild; ARCHITECTURE.md invariant 2)
    rely on charges being integer counts.  This enforces the invariant at
    the cost-account API boundary instead of by convention: integer-valued
    floats are accepted and normalised, fractional amounts are rejected.

    A genuinely-integer amount short-circuits without the float
    round-trip; the ``float``/``is_integer`` check only runs for float
    inputs.
    """
    if isinstance(amount, (int, np.integer)):
        return int(amount)
    value = float(amount)
    if not value.is_integer():
        raise WorkloadError(
            "charge amounts must be integer-valued request counts "
            f"(ARCHITECTURE.md invariant 2), got {amount!r}"
        )
    return int(value)


def _count_parameter(name: str, value) -> int:
    """Validate one adaptive strategy parameter: an integer of at least 1.

    ``object_size``, ``invalidation_patience``, ``migration_factor`` and
    the rent-or-buy thresholds count requests, so an ``int`` or numpy
    integer is taken as is and an integer-valued float is normalised the
    way :func:`_integer_amount` normalises charges.  A ``bool``, a
    fractional or non-finite float, a string or anything else raises
    :class:`~repro.errors.WorkloadError` naming the parameter instead of
    being truncated.
    """
    count = None
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        count = int(value)
    elif isinstance(value, (float, np.floating)) and float(value).is_integer():
        count = int(value)
    if count is None or count < 1:
        raise WorkloadError(f"{name} must be an integer of at least 1, got {value!r}")
    return count


def _integer_weights(w: np.ndarray) -> np.ndarray:
    """Validate a batch weight vector the same way, once per chunk.

    Whole chunk arrays are validated in one vectorized pass at the batch
    boundary (never per event inside the chunk loop); integer-dtype
    arrays -- the shape every chunk aggregation produces -- skip the
    modulo scan entirely, and only float-dtype input pays for the check.
    Fractional entries raise :class:`~repro.errors.WorkloadError` exactly
    as before.
    """
    arr = np.asarray(w)
    if arr.dtype.kind in "iub":
        return arr.astype(np.float64)
    arr = arr.astype(np.float64)
    if arr.size and not np.all(np.equal(np.mod(arr, 1.0), 0.0)):
        raise WorkloadError(
            "batch charge weights must be integer-valued request counts "
            "(ARCHITECTURE.md invariant 2)"
        )
    return arr


class OnlineCostAccount:
    """Accumulates per-edge loads (service + management traffic).

    Thin facade over :class:`~repro.core.loadstate.LoadState`: charges are
    incremental scatter updates and ``bus_loads`` / ``congestion`` reads are
    O(1)-amortised instead of full rescans, which is what makes streaming
    congestion trajectories over long request sequences affordable.
    """

    __slots__ = ("network", "state", "service_units", "management_units")

    def __init__(
        self, network: HierarchicalBusNetwork, state: Optional[LoadState] = None
    ) -> None:
        self.network = network
        self.state = state if state is not None else LoadState(network)
        self.service_units = 0
        self.management_units = 0

    @property
    def edge_loads(self) -> np.ndarray:
        """Per-edge accumulated loads (live view of the engine state)."""
        return self.state.edge_loads

    def _book(self, cost: int, management: bool) -> None:
        if management:
            self.management_units += cost
        else:
            self.service_units += cost

    def charge_steiner(self, rooted: RootedTree, terminals: Sequence[int],
                       amount: int = 1, management: bool = False) -> None:
        """Charge ``amount`` (an integer request count) on every edge of the
        Steiner tree of ``terminals``."""
        amount = _integer_amount(amount)
        terminals = list(terminals)
        if amount <= 0 or len(terminals) < 2:
            return
        n_edges = self.state.apply_steiner(terminals, amount)
        self._book(amount * n_edges, management)

    def charge_pairs(self, u, v, w, management: bool = False) -> None:
        """Charge weighted request pairs ``u[i] -> v[i]`` in one batch.

        Charges ``w[i]`` (integer-valued request counts, enforced like the
        scalar ``amount`` arguments) on every edge of each path, evaluated
        and costed by one fused kernel call (``LoadState.apply_pairs``).
        """
        w = _integer_weights(w)
        if w.size == 0:
            return
        self._book(int(round(self.state.apply_pairs(u, v, w))), management)

    @property
    def bus_loads(self) -> np.ndarray:
        """Per-node bus loads derived from the edge loads."""
        return self.state.bus_loads

    @property
    def congestion(self) -> float:
        """Maximum relative load over edges and buses."""
        return self.state.congestion

    @property
    def total_load(self) -> float:
        """Total communication load over all edges."""
        return self.state.total_load


def _rehome_target(outcome) -> int:
    """New-network id of the survivor closest to a detached leaf.

    When a detached processor held the only copy of an object, the copy is
    re-homed via the nearest-copy rule: it moves to the surviving processor
    closest to the departed leaf in the *old* topology (ties to the smallest
    id, matching every other nearest-copy resolution in the codebase).
    """
    old_net = outcome.old_network
    detached = int(outcome.removed_node)
    survivors = [p for p in old_net.processors if p != detached]
    home = old_net.rooted().nearest_in_set(detached, survivors)
    return int(outcome.node_map[home])


def _bulk_nearest_tables(pm, procs: np.ndarray, n_nodes: int, requests) -> None:
    """Build per-object nearest-copy tables in one blocked distance pass.

    ``requests`` is a list of ``(cache, obj, holders)`` sinks: ``cache``
    is a per-strategy table dict to fill, ``holders`` the object's holder
    ids as an ascending tuple.  One distance evaluation against the union
    of all requested holder sets replaces one
    ``PathMatrix.nearest_in_set`` call per (strategy, object); each table
    is then a gather + argmin over the shared distance block.  Holder
    columns stay sorted ascending, so ties resolve to the smallest id
    exactly like ``nearest_in_set``, and identical holder sets (fleet
    lanes that agree on an object's placement) share one table object.

    The blocked evaluation runs over (processors × holder union):
    ``PathMatrix.distances`` bounds its LCA scratch space internally, so
    this stays sub-quadratic in memory on huge networks -- no all-pairs
    matrix is ever materialised (the old ≤2048-node ``all_distances()``
    cache silently degraded past its node cap).
    """
    if not requests:
        return
    by_holders: Dict[tuple, list] = {}
    for cache, obj, holders in requests:
        by_holders.setdefault(holders, []).append((cache, obj))
    union = sorted({h for holders in by_holders for h in holders})
    column = {h: j for j, h in enumerate(union)}
    dist = pm.distances(
        procs[:, None], np.asarray(union, dtype=np.int64)[None, :]
    )
    for holders, sinks in by_holders.items():
        hs = np.asarray(holders, dtype=np.int64)
        sub = dist[:, [column[h] for h in holders]]
        table = np.full(n_nodes, -1, dtype=np.int64)
        table[procs] = hs[np.argmin(sub, axis=1)]
        for cache, obj in sinks:
            cache[obj] = table


class OnlineStrategy:
    """Interface of an online data management strategy."""

    def __init__(
        self,
        network: HierarchicalBusNetwork,
        n_objects: int,
        account: Optional[OnlineCostAccount] = None,
    ) -> None:
        self.network = network
        self.rooted = network.rooted()
        self.n_objects = int(n_objects)
        self.account = account if account is not None else OnlineCostAccount(network)

    def apply_mutation(self, outcome) -> None:
        """Carry the strategy and its cost account over a topology mutation.

        The shared :class:`~repro.core.loadstate.LoadState` is repaired in
        place (bit-for-bit equal to a from-scratch rebuild), then the
        strategy-specific holder state is remapped via
        :meth:`_repair_strategy_state`; copies stranded on a detached leaf
        are re-homed via the nearest-copy rule.  Accumulated service and
        management cost units are preserved.
        """
        self.account.state.repair(outcome)
        self.network = outcome.network
        self.account.network = outcome.network
        self.rooted = self.account.state.rooted
        self._repair_strategy_state(outcome)

    def _repair_strategy_state(self, outcome) -> None:
        """Hook for subclasses: remap holder ids after a mutation."""

    # Abstract without ABCMeta: construction stays possible, and
    # validate_strategy names a subclass that leaves it out.  The stub stays
    # on the class because perfbench's tracer wraps it by name.
    @abstractmethod
    def serve_chunk(self, sequence: RequestSequence, start: int, stop: int) -> None:
        """Serve the events ``sequence[start:stop]``, one event or many,
        with exactly the loads of serving them one at a time."""
        raise NotImplementedError

    def run(
        self, sequence: RequestSequence, chunk_size: Optional[int] = None
    ) -> OnlineCostAccount:
        """Serve a whole sequence and return the cost account.

        Thin adapter over the unified simulation kernel
        (:class:`repro.sim.engine.SimulationEngine`): the sequence becomes
        a churn-free timeline served through :meth:`serve_chunk`.
        ``chunk_size`` bounds the span length of the batch replay grid;
        the result is the same under any chunk size.
        """
        from repro.sim.engine import SimulationEngine

        SimulationEngine(self, chunk_size=chunk_size).run(sequence)
        return self.account


class StaticPlacementManager(OnlineStrategy):
    """Serve every request from a fixed placement (no adaptation).

    With the extended-nibble placement computed from the aggregate
    frequencies of the sequence, this is the hindsight-static reference the
    dynamic strategies are compared against.
    """

    def __init__(
        self,
        network: HierarchicalBusNetwork,
        placement: Placement,
        account: Optional[OnlineCostAccount] = None,
    ) -> None:
        super().__init__(network, placement.n_objects, account=account)
        placement.validate_for(network, require_leaf_only=True)
        self._placement = placement
        # nearest-copy table per object, resolved for all processors in one
        # batched distance evaluation on first touch
        self._nearest_cache: Dict[int, np.ndarray] = {}
        # per-object Steiner edge ids of the holder sets (write broadcasts)
        self._steiner_ids_cache: Dict[int, np.ndarray] = {}
        self._procs = np.asarray(network.processors, dtype=np.int64)

    def holders(self, obj: int) -> Set[int]:
        return set(self._placement.holders(obj))

    def _repair_strategy_state(self, outcome) -> None:
        if not outcome.structural:
            return
        self._nearest_cache.clear()  # tables are sized to the old node count
        self._steiner_ids_cache.clear()  # edge ids renumber under mutations
        self._procs = np.asarray(outcome.network.processors, dtype=np.int64)
        if outcome.removed_node is None:
            return  # attach/split keep node ids stable
        nm = outcome.node_map
        home = None  # one detach has one re-home target; resolve it lazily once
        new_holders = []
        for obj in range(self._placement.n_objects):
            mapped = sorted(int(nm[h]) for h in self._placement.holders(obj) if nm[h] >= 0)
            if not mapped:
                if home is None:
                    home = _rehome_target(outcome)
                mapped = [home]
            new_holders.append(mapped)
        self._placement = Placement(new_holders)

    def _nearest_table(self, obj: int) -> np.ndarray:
        """Per-node nearest-copy table of one object (cached, batch-built)."""
        table = self._nearest_cache.get(obj)
        if table is None:
            table = np.full(self.network.n_nodes, -1, dtype=np.int64)
            table[self._procs] = self.rooted.path_matrix().nearest_in_set(
                self._procs, self._placement.holders(obj)
            )
            self._nearest_cache[obj] = table
        return table

    def _nearest_tables_bulk(self, objs) -> None:
        """Build the nearest-copy tables of many objects in one LCA pass.

        Thin wrapper over the shared :func:`_bulk_nearest_tables` builder:
        one blocked distance evaluation against the union of all missing
        objects' holder sets replaces one
        :meth:`PathMatrix.nearest_in_set` call per object.  Holder columns
        stay sorted ascending, so ties resolve to the smallest id exactly
        like ``nearest_in_set``.
        """
        requests = [
            (self._nearest_cache, int(obj),
             tuple(sorted({int(h) for h in self._placement.holders(int(obj))})))
            for obj in objs
            if int(obj) not in self._nearest_cache
        ]
        _bulk_nearest_tables(
            self.rooted.path_matrix(), self._procs, self.network.n_nodes, requests
        )

    def _steiner_edge_ids_for(self, obj: int, entry_source) -> np.ndarray:
        """Edge ids of one object's write-broadcast Steiner tree (cached).

        ``entry_source`` is any substrate exposing ``_steiner_entry`` (the
        manager's own state, or the shared stacked state in fleet mode);
        the ids only depend on the topology and the holder set, so the
        per-object cache survives substrate swaps and bandwidth mutations
        and is cleared with the other holder-derived caches on structural
        repair.
        """
        edge_ids = self._steiner_ids_cache.get(obj)
        if edge_ids is None:
            terminals = self._placement.holders(obj)
            if len(terminals) < 2:
                edge_ids = np.empty(0, dtype=np.int64)
            else:
                key = frozenset(int(t) for t in terminals)
                edge_ids = entry_source._steiner_entry(key)[0]
            self._steiner_ids_cache[obj] = edge_ids
        return edge_ids

    @staticmethod
    def _aggregate_chunk(sequence: RequestSequence, start: int, stop: int):
        """Shared chunk aggregation of the sequential and fleet paths.

        Collapses ``sequence[start:stop]`` into unique ``(processor,
        object)`` request pairs with multiplicities, the pair rows grouped
        per object, and the written objects with write counts.  Both
        :meth:`serve_chunk` and :meth:`serve_chunk_fleet` feed off this one
        function, so the two paths cannot drift apart in how they
        aggregate -- the bit-for-bit fleet parity contract depends on
        that.  Returns ``None`` for an empty chunk.

        The unique-pair pass runs through
        :func:`repro.core.kernels.aggregate_pairs` (one int64-key sort
        instead of numpy's void-dtype column comparison); the differential
        tests pin it to the historical ``np.unique(..., axis=1)``
        aggregation kept in ``tests/scalar_oracle.py``.
        """
        procs, objs, writes = sequence.as_arrays()
        procs = procs[start:stop]
        objs = objs[start:stop]
        writes = writes[start:stop]
        if procs.size == 0:
            return None
        uprocs, uobjs, counts = kernels.aggregate_pairs(procs, objs)
        # group the pair rows per object in one sort pass (pairs sort by
        # processor first, so the object row is not globally sorted); the
        # stable order keeps each group's row indices ascending
        order = np.argsort(uobjs, kind="stable")
        uniq_objs, starts = np.unique(uobjs[order], return_index=True)
        bounds = np.append(starts[1:], order.size)
        by_object = [
            (int(obj), order[lo:hi])
            for obj, lo, hi in zip(uniq_objs, starts, bounds)
        ]
        written, write_counts = np.unique(objs[writes], return_counts=True)
        return uprocs, counts, by_object, written, write_counts

    def serve_chunk(self, sequence: RequestSequence, start: int, stop: int) -> None:
        """Vectorized batch replay of one chunk (exact event-loop parity).

        The placement is fixed, so a chunk of events collapses into
        aggregated request pairs (one column through the path-incidence
        operator) plus one Steiner charge per written object.  All charged
        quantities are integer-valued, so the resulting loads and cost units
        are bit-for-bit equal to serving the same events one by one.
        """
        aggregated = self._aggregate_chunk(sequence, start, stop)
        if aggregated is None:
            return
        u, counts, by_object, written, write_counts = aggregated
        # resolve each unique pair's reference copy via the per-object
        # tables (built in one bulk LCA pass, gathered per object)
        self._nearest_tables_bulk([obj for obj, _ in by_object])
        targets = np.empty(u.size, dtype=np.int64)
        for obj, rows in by_object:
            targets[rows] = self._nearest_table(obj)[u[rows]]
        self.account.charge_pairs(u, targets, counts)
        for obj, count in zip(written, write_counts):
            self.account.charge_steiner(
                self.rooted,
                sorted(self._placement.holders(int(obj))),
                amount=int(count),
            )

    def run_batch(self, sequence: RequestSequence) -> OnlineCostAccount:
        """Replay the whole sequence as one batch (see :meth:`serve_chunk`)."""
        return self.run(sequence, chunk_size=max(1, len(sequence)))

    @classmethod
    def serve_chunk_fleet(
        cls, managers: Sequence["StaticPlacementManager"], sequence, start, stop
    ) -> None:
        """Serve one chunk for a whole fleet of static managers at once.

        The fleet-replay group hook (see
        :func:`~repro.sim.protocol.fleet_groups`): all managers replay the
        same events, so the chunk aggregation (unique ``(processor,
        object)`` pairs and write counts) is computed **once**, nearest-copy
        targets are gathered per lane from the cached per-object tables,
        the LCA/distance pass runs batched over all lanes and the resulting
        per-lane edge-load columns go into the shared
        :class:`~repro.core.loadstate.StackedLoadState` as one
        lane-broadcast scatter.  Per-lane write broadcasts reuse the shared
        Steiner scatter-entry cache.

        All charged quantities are integer request counts, so every lane's
        loads and cost units are bit-for-bit those of calling the member's
        :meth:`serve_chunk` on its own.  The managers' accounts must sit on
        lanes of one stacked state, as
        :meth:`~repro.sim.engine.SimulationEngine.run_fleet` arranges.
        """
        states = [m.account.state for m in managers]
        aggregated = cls._aggregate_chunk(sequence, start, stop)
        if aggregated is None:
            return
        u, counts, by_object, written, write_counts = aggregated
        targets = np.empty((u.size, len(managers)), dtype=np.int64)
        for k, manager in enumerate(managers):
            manager._nearest_tables_bulk([obj for obj, _ in by_object])
            for obj, rows in by_object:
                targets[rows, k] = manager._nearest_table(obj)[u[rows]]

        parent = states[0].parent
        lanes = [s.lane_index for s in states]
        w = counts.astype(np.float64)
        # one batched LCA pass feeds both the distance booking and the
        # pair scatters (same depth arithmetic as pm.distances)
        pm = parent.pm
        anc = pm.lca(u[:, None], targets)
        depth = pm.depths
        dists = depth[u][:, None] + depth[targets] - 2 * depth[anc]
        columns = pm.pair_edge_loads_lanes(u, targets, w, anc)
        parent.apply_edge_loads_lanes(lanes, columns)
        for k, manager in enumerate(managers):
            manager.account._book(int(round(float(dists[:, k] @ w))), False)

        # write broadcasts: one per-lane Steiner column through the shared
        # entry cache, applied as a second lane-broadcast scatter.  All
        # charges in a span are non-negative, so the end-of-span congestion
        # (the only observation point) equals the per-charge running max of
        # the sequential path bit-for-bit.
        if written.size:
            steiner_cols = np.zeros((parent.n_edges, len(managers)))
            for k, manager in enumerate(managers):
                column = steiner_cols[:, k]
                booked = 0
                for obj, count in zip(written, write_counts):
                    edge_ids = manager._steiner_edge_ids_for(int(obj), parent)
                    if edge_ids.size:
                        column[edge_ids] += count
                        booked += int(count) * int(edge_ids.size)
                manager.account._book(booked, False)
            parent.apply_edge_loads_lanes(lanes, steiner_cols)


class EdgeCounterManager(OnlineStrategy):
    """Adaptive replication / invalidation driven by per-processor counters.

    The counter state lives in the array-backed
    :class:`~repro.dynamic.adaptive_state.AdaptiveState` substrate (flat
    holder/credit/unread-write arrays keyed by ``(object, processor)``),
    which is what enables the vectorized :meth:`serve_chunk` and the
    :meth:`serve_chunk_fleet` group hook: within a chunk, counters for a
    pair only advance on requests to exactly that pair, so the next
    threshold crossing per object is computable up front and every maximal
    static run between adaptation events collapses into one batched pair
    scatter -- bit-for-bit equal to the scalar event loop.

    Parameters
    ----------
    network:
        The hierarchical bus network.
    n_objects:
        Number of shared objects.
    object_size:
        Cost (in load units per edge) of copying an object across an edge;
        also the number of remote reads a processor must issue before it
        earns a local replica (rent-or-buy threshold).
    invalidation_patience:
        Number of consecutive writes an unused replica survives before it is
        dropped.
    initial_placement:
        Optional starting placement; defaults to the first requester
        ("first touch").
    """

    def __init__(
        self,
        network: HierarchicalBusNetwork,
        n_objects: int,
        object_size: int = 4,
        invalidation_patience: int = 2,
        initial_placement: Optional[Placement] = None,
        account: Optional[OnlineCostAccount] = None,
    ) -> None:
        super().__init__(network, n_objects, account=account)
        self.object_size = _count_parameter("object_size", object_size)
        self.invalidation_patience = _count_parameter(
            "invalidation_patience", invalidation_patience
        )
        # adaptation thresholds: the base strategy uses the copy cost for
        # both (rent-or-buy -- buy once you have paid the copy's worth in
        # remote requests).  Subclasses tune them independently; the
        # charged copy amount is always ``object_size``.
        self._replicate_threshold = self.object_size
        self._migrate_threshold = self.object_size
        self._adaptive = AdaptiveState(self.n_objects, network.n_nodes)
        # nearest tables keyed by holder-set *content*: thrash cycles
        # revisit the same holder sets, so tables survive transitions and
        # are shared across lanes with agreeing holder sets
        self._tables_by_holders: Dict[Tuple[int, ...], np.ndarray] = {}
        self._procs = np.asarray(network.processors, dtype=np.int64)
        if initial_placement is not None:
            initial_placement.validate_for(network, require_leaf_only=True)
            if initial_placement.n_objects != n_objects:
                raise PlacementError("initial placement has the wrong object count")
            mask = self._adaptive.holder_mask
            for obj in range(n_objects):
                for holder in initial_placement.holders(obj):
                    mask[obj, int(holder)] = True
            self._adaptive.n_holders = mask.sum(axis=1, dtype=np.int64)

    # ------------------------------------------------------------------ #
    def holders(self, obj: int) -> Set[int]:
        return self._adaptive.holders_set(obj)

    def memory_bytes(self) -> int:
        """Bytes held by the strategy state: the flat counter substrate
        plus the content-keyed nearest tables (capped at
        ``_MAX_HOLDER_TABLES`` entries).

        Bounded by the universe sizes alone -- never growing with the
        stream length; the soak-shaped tests pin that.
        """
        return self._adaptive.memory_bytes() + sum(
            t.nbytes for t in self._tables_by_holders.values()
        )

    def _repair_strategy_state(self, outcome) -> None:
        if not outcome.structural:
            return  # bandwidth mutations keep node ids and holders intact
        self._tables_by_holders.clear()  # tables are sized to the old node count
        self._procs = np.asarray(outcome.network.processors, dtype=np.int64)
        if outcome.removed_node is None:
            # attach/split keep existing node ids stable; new ids append,
            # so the counter arrays widen with zero columns
            self._adaptive.grow(outcome.network.n_nodes)
            return
        orphans = self._adaptive.remap_detach(
            outcome.node_map, outcome.network.n_nodes
        )
        if orphans.size:
            home = _rehome_target(outcome)
            for obj in orphans.tolist():
                self._adaptive.rehome(obj, home)

    # ------------------------------------------------------------------ #
    # vectorized chunk replay: per-object scans with deferred batch charges
    # ------------------------------------------------------------------ #
    # Content-keyed nearest tables are regenerated cheaply in bulk, so the
    # cache is simply dropped when too many distinct holder sets accumulate
    # (keeps memory_bytes() bounded by the universe sizes, never the stream).
    _MAX_HOLDER_TABLES = 1024

    def _scan(self, chunk) -> Tuple[List[tuple], List[tuple], List[tuple]]:
        """Phase 1 of the batched replay: one :func:`kernels.adaptive_scan`
        call advances every chunk object's counters, applying every
        adaptation decision, and returns the run and copy-movement records
        phase 2 charges.  Adaptation is a pure function of the per-object
        counters -- never of the accumulated loads -- so each object's
        whole decision cascade runs ahead of any charging."""
        adaptive = self._adaptive
        pm = self.rooted.path_matrix()
        return kernels.adaptive_scan(
            adaptive.holder_mask, adaptive.read_credit,
            adaptive.unread_writes, adaptive.n_holders, pm._up, pm._depth,
            *chunk, self._replicate_threshold, self._migrate_threshold,
            self.invalidation_patience,
        )

    def _table_requests_for_runs(self, runs: List[tuple]) -> List[tuple]:
        """Bulk-build requests for the multi-holder run holder sets that
        have no content-keyed nearest table yet (replication sources in
        ``mgmt_rep`` always share the holder set of their crossing run, so
        the run sets cover every phase-2 lookup)."""
        tables = self._tables_by_holders
        seen = set()
        requests = []
        for _obj, holders, _lo, _hi, _wc in runs:
            if len(holders) > 1 and holders not in tables \
                    and holders not in seen:
                seen.add(holders)
                requests.append((tables, holders, holders))
        return requests

    def _apply_deferred(self, sorted_procs: np.ndarray, runs: List[tuple],
                        mgmt_direct: List[tuple],
                        mgmt_rep: List[tuple]) -> None:
        """Phase 2 of the batched replay: resolve targets and charge.

        Every charge of a chunk commutes -- integer amounts into float64
        accumulators are exact in any order, and congestion is a monotone
        running max observed only at chunk boundaries, the same argument
        the static chunk path rests on -- so the runs recorded by phase 1
        collapse into three scatters: one aggregated service-pair charge
        (requests against the nearest copy of the run\'s holder set), one
        accumulated write-broadcast Steiner column, and one management
        charge covering all replication/migration copy movements.
        """
        tables = self._tables_by_holders
        state = self.account.state
        entry_source = getattr(state, "parent", state)
        n_nodes = np.int64(self.network.n_nodes)
        u_parts: List[np.ndarray] = []
        v_parts: List[np.ndarray] = []
        steiner_col = None
        booked = 0
        for _obj, holders, lo, hi, wc in runs:
            ep = sorted_procs[lo:hi]
            u_parts.append(ep)
            if len(holders) == 1:
                v_parts.append(np.full(ep.size, holders[0], dtype=np.int64))
            else:
                v_parts.append(tables[holders][ep])
                if wc:
                    ids = entry_source._steiner_entry(frozenset(holders))[0]
                    if ids.size:
                        if steiner_col is None:
                            steiner_col = np.zeros(entry_source.n_edges)
                        steiner_col[ids] += wc
                        booked += wc * int(ids.size)
        if u_parts:
            u = np.concatenate(u_parts)
            v = np.concatenate(v_parts)
            # aggregate identical (requester, target) pairs before the
            # path-incidence scatter, like the static chunk path does
            keys, counts = np.unique(u * n_nodes + v, return_counts=True)
            self.account.charge_pairs(keys // n_nodes, keys % n_nodes, counts)
        if steiner_col is not None:
            state.apply_edge_loads(steiner_col)
            self.account._book(booked, False)
        if mgmt_direct or mgmt_rep:
            srcs = [src for src, _p in mgmt_direct]
            dsts = [p for _src, p in mgmt_direct]
            for holders, p in mgmt_rep:
                srcs.append(holders[0] if len(holders) == 1
                            else int(tables[holders][p]))
                dsts.append(p)
            self.account.charge_pairs(
                np.asarray(srcs, dtype=np.int64),
                np.asarray(dsts, dtype=np.int64),
                np.full(len(srcs), self.object_size, dtype=np.int64),
                management=True,
            )

    @staticmethod
    def _decode_chunk(sequence: RequestSequence, start: int, stop: int):
        """Chunk decode shared by the sequential and fleet paths: the
        chunk's event columns ``(procs, writes, objs)`` plus its
        per-object CSR ``order``, a stable argsort of the objects, so
        ``order[lo:hi]`` lists one object's positions in event order."""
        procs_all, objs_all, writes_all = sequence.as_arrays()
        procs = np.ascontiguousarray(procs_all[start:stop], dtype=np.int64)
        objs = np.ascontiguousarray(objs_all[start:stop], dtype=np.int64)
        writes = np.ascontiguousarray(writes_all[start:stop], dtype=bool)
        return procs, writes, objs, np.argsort(objs, kind="stable")

    def serve_chunk(self, sequence: RequestSequence, start: int, stop: int) -> None:
        """Vectorized batch replay of one chunk (exact event-loop parity).

        Within a chunk, the counters of an ``(object, processor)`` pair
        only advance on requests to exactly that pair and an object\'s
        holder set only changes at its own adaptation events -- so each
        object\'s replicate/invalidate/migrate cascade is computed by one
        counter scan over its positions (:meth:`_scan`, one kernel call
        for the whole chunk), decoupled from the charge frontier.  The
        recorded maximal static runs are then charged in bulk
        (:meth:`_apply_deferred`): one blocked distance pass builds every
        missing nearest table, one aggregated pair scatter carries the
        service traffic, one Steiner column the write broadcasts, and one
        management scatter the copy movements.  Integer charges commute
        exactly, so loads, cost units, holder sets and end-of-chunk
        congestion are bit-for-bit those of event-by-event serving; the
        differential suites pin this under churn and across chunk grids.
        """
        if stop <= start:
            return
        chunk = self._decode_chunk(sequence, start, stop)
        runs, mgmt_direct, mgmt_rep = self._scan(chunk)
        if len(self._tables_by_holders) > self._MAX_HOLDER_TABLES:
            self._tables_by_holders.clear()
        _bulk_nearest_tables(
            self.rooted.path_matrix(), self._procs, self.network.n_nodes,
            self._table_requests_for_runs(runs),
        )
        procs, _writes, _objs, order = chunk
        self._apply_deferred(procs[order], runs, mgmt_direct, mgmt_rep)

    # ------------------------------------------------------------------ #
    # fleet group hook: K adaptive lanes share decode and table builds
    # ------------------------------------------------------------------ #
    @classmethod
    def serve_chunk_fleet(
        cls, managers: Sequence["EdgeCounterManager"], sequence, start, stop
    ) -> None:
        """Serve one chunk for a whole fleet of adaptive managers at once.

        K lanes (different ``object_size`` / ``invalidation_patience`` /
        threshold tunings) share one chunk decode with its per-object
        CSR, and one blocked distance pass for every nearest table any
        lane is missing -- lanes whose holder sets agree share the very
        table object, lanes that diverge get their own.  Each lane then
        runs its own counter scan (one kernel call per lane) and applies
        its own deferred charges (through its lane of the shared
        :class:`~repro.core.loadstate.StackedLoadState`, with the Steiner
        scatter entries shared substrate-wide), because the run grids of
        differently-tuned lanes genuinely diverge.  Every lane\'s loads,
        cost units and holder sets are bit-for-bit those of K sequential
        runs (ARCHITECTURE.md invariants 6/7); ``test_fleet_parity.py``
        pins it.  The managers must share one network object and sit on
        lanes of one stacked state, as
        :meth:`~repro.sim.engine.SimulationEngine.run_fleet` arranges.
        """
        if stop <= start:
            return
        lead = managers[0]
        chunk = cls._decode_chunk(sequence, start, stop)
        per_lane: List[tuple] = []
        requests: List[tuple] = []
        for manager in managers:
            records = manager._scan(chunk)
            per_lane.append(records)
            if len(manager._tables_by_holders) > cls._MAX_HOLDER_TABLES:
                manager._tables_by_holders.clear()
            requests.extend(manager._table_requests_for_runs(records[0]))
        _bulk_nearest_tables(
            lead.rooted.path_matrix(), lead._procs, lead.network.n_nodes,
            requests,
        )
        procs, _writes, _objs, order = chunk
        sorted_procs = procs[order]
        for manager, records in zip(managers, per_lane):
            manager._apply_deferred(sorted_procs, *records)


class HysteresisCounterManager(EdgeCounterManager):
    """Edge-counter adaptation with migration hysteresis.

    Replicas are earned at the base rent-or-buy threshold, but a lonely
    copy only follows a persistent remote writer after
    ``migration_factor`` times as much accumulated credit.  Migrating the
    only copy is the decision that hurts most when it flaps (every
    subsequent reader pays the relocation), so it is held to a stricter
    standard than replication -- classic hysteresis damping for
    alternating-writer workloads.  The copy still costs ``object_size``
    per edge when it does move.
    """

    def __init__(
        self,
        network: HierarchicalBusNetwork,
        n_objects: int,
        object_size: int = 4,
        invalidation_patience: int = 2,
        migration_factor: int = 2,
        initial_placement: Optional[Placement] = None,
        account: Optional[OnlineCostAccount] = None,
    ) -> None:
        super().__init__(
            network, n_objects, object_size=object_size,
            invalidation_patience=invalidation_patience,
            initial_placement=initial_placement, account=account,
        )
        self.migration_factor = _count_parameter("migration_factor", migration_factor)
        self._migrate_threshold = self.object_size * self.migration_factor


class RentOrBuyManager(EdgeCounterManager):
    """Rent-or-buy variant with thresholds decoupled from the copy cost.

    The base strategy replicates/migrates once a processor has paid the
    copy cost in remote requests (both thresholds equal ``object_size``).
    This variant keeps the *charged* copy amount at ``object_size`` but
    exposes the decision thresholds as independent tuning knobs -- the
    classic rent-or-buy trade-off: lower thresholds buy (replicate or
    migrate) earlier and pay more management traffic, higher thresholds
    rent longer and pay more service traffic.  The tournament layer sweeps
    these against the base strategy.
    """

    def __init__(
        self,
        network: HierarchicalBusNetwork,
        n_objects: int,
        object_size: int = 4,
        invalidation_patience: int = 2,
        replicate_threshold: Optional[int] = None,
        migrate_threshold: Optional[int] = None,
        initial_placement: Optional[Placement] = None,
        account: Optional[OnlineCostAccount] = None,
    ) -> None:
        super().__init__(
            network, n_objects, object_size=object_size,
            invalidation_patience=invalidation_patience,
            initial_placement=initial_placement, account=account,
        )
        replicate_at = (
            self.object_size if replicate_threshold is None
            else _count_parameter("replicate_threshold", replicate_threshold)
        )
        migrate_at = (
            replicate_at if migrate_threshold is None
            else _count_parameter("migrate_threshold", migrate_threshold)
        )
        self.replicate_threshold = replicate_at
        self.migrate_threshold = migrate_at
        self._replicate_threshold = replicate_at
        self._migrate_threshold = migrate_at
