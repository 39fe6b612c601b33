"""Incremental congestion engine shared by the replay layers.

PR 1 vectorized the *batch* cost model: given a whole placement, the sparse
path-incidence structure of :mod:`repro.core.pathmatrix` evaluates all loads
in a few numpy scatters.  The layers that *replay requests* -- the online
strategies of :mod:`repro.dynamic`, the round simulator of
:mod:`repro.distributed.request_sim` and the tentative-move searches of
:mod:`repro.core.optimal` / :mod:`repro.core.deletion` -- have the opposite
access shape: many small deltas (one path, one Steiner tree, one candidate
column) interleaved with congestion reads.  Recomputing bus loads and the
max relative load from scratch on every read makes each of those layers
quadratic in practice.

:class:`LoadState` is the shared substrate for that access shape:

* **O(touched) delta application.**  ``apply_steiner`` / ``apply_edges``
  scatter a delta onto the touched entries only.  Edge and bus loads live
  in one fused array (bus loads doubled, i.e. the plain incident-edge
  sum), so a cached Steiner entry updates and re-checks both with a
  single fancy-indexed gather/scatter.  Request paths (batched request
  chunks) go through ``apply_pairs`` and whole per-edge vectors
  (candidate placements) through ``apply_edge_loads``.
* **Lazily-repaired running max.**  The congestion (max relative load over
  edges and buses) is kept incrementally: a non-negative delta can only
  raise relative loads, so the running max is repaired from the touched
  entries alone.  A negative delta marks the value stale and the next read
  performs one vectorized rescan.
* **Snapshot / rollback.**  ``snapshot()`` opens a journal; ``rollback``
  re-applies the journalled deltas negated and restores the congestion
  value recorded at snapshot time, so local search and branch-and-bound can
  tentatively evaluate moves in O(touched entries) instead of re-deriving
  loads with :func:`repro.core.congestion.compute_loads`.

All loads of the cost model are integer-valued (request counts) and bus
loads are half-integers, so every update -- in any order, including the
negated rollback replay -- is exact in double precision.  This is what makes
the bit-for-bit parity guarantees of the property tests possible.

:class:`StackedLoadState` extends the same substrate to *fleets*: K
strategy lanes replaying the same timeline hold their loads as one
``(K, n_rows)`` array over one shared :class:`~repro.core.pathmatrix.PathMatrix`
and one shared scatter-entry cache, so batched charges amortise the
index computations across all lanes and a topology repair debits/credits
every lane in a single array surgery.  :meth:`StackedLoadState.lane`
returns a :class:`LaneState` view exposing the per-lane slice of the
replay API (``apply_steiner`` / ``apply_pairs`` / ``congestion`` /
``repair``), bit-for-bit equal to a standalone
:class:`LoadState` fed the same charges -- the exactness argument above
is order-free, so lane rows and standalone arrays agree bitwise.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.errors import AlgorithmError, MutationError

__all__ = ["LoadState", "LoadSnapshot", "StackedLoadState", "LaneState"]


class LoadSnapshot:
    """Opaque token returned by :meth:`LoadState.snapshot`.

    Records the journal position and the congestion tracker state at
    snapshot time; :meth:`LoadState.rollback` restores both exactly.
    ``epoch`` pins the snapshot to the topology it was taken on: a snapshot
    cannot be rolled back or committed across a :meth:`LoadState.repair`.
    """

    __slots__ = ("mark", "congestion", "stale", "active", "epoch")

    def __init__(self, mark: int, congestion: float, stale: bool, epoch: int = 0) -> None:
        self.mark = mark
        self.congestion = congestion
        self.stale = stale
        self.active = True
        self.epoch = epoch


class _SubstrateGeometry:
    """Topology-derived arrays and scatter-entry caches of a load substrate.

    Shared by :class:`LoadState` (one lane, 1-D fused array) and
    :class:`StackedLoadState` (K lanes, 2-D fused array): both keep the
    same endpoint/denominator/incidence arrays and the same
    per-terminal-set scatter-entry cache, so the two substrate shapes
    cannot diverge in how they address the fused load rows.
    """

    __slots__ = (
        "network",
        "rooted",
        "pm",
        "n_edges",
        "n_nodes",
        "_denom",
        "_edge_u",
        "_edge_v",
        "_node_is_bus",
        "_bus_nodes",
        "_inc_indptr",
        "_inc_edges",
        "_steiner_cache",
        "_pair_subs",
        "_topology_epoch",
    )

    def _init_geometry(self, network, rooted) -> None:
        self.network = network
        self.rooted = rooted if rooted is not None else network.rooted()
        self.pm = self.rooted.path_matrix()

        self.n_edges = network.n_edges
        self.n_nodes = network.n_nodes

        # endpoint / bus arrays are shared with the path matrix (identical
        # construction from network.edges; both sides treat them as
        # immutable), so huge networks hold one int32 copy, not two
        self._edge_u = self.pm._edge_u
        self._edge_v = self.pm._edge_v
        self._node_is_bus = self.pm._bus_mask
        self._bus_nodes = np.flatnonzero(self.pm._bus_mask)

        self._denom = self._build_denominators(network)
        self._inc_indptr, self._inc_edges = self._build_incident_csr()

        self._steiner_cache: dict = {}
        self._pair_subs: dict = {}
        self._topology_epoch = 0

    def _build_denominators(self, network) -> np.ndarray:
        """Fused relative-load denominators for the current edge/node arrays.

        Edge bandwidths, then doubled bus bandwidths (the node block stores
        doubled loads).  Processor rows always hold zero load; their
        denominator is pinned to 1 so the whole-array rescan never divides
        by a meaningless bandwidth.  Shared by ``__init__`` and
        :meth:`repair` so the two construction paths cannot diverge.
        """
        denom = np.ones(self.n_edges + self.n_nodes, dtype=np.float64)
        denom[: self.n_edges] = np.asarray(network.edge_bandwidths, dtype=np.float64)
        bus_bw2 = 2.0 * np.asarray(network.bus_bandwidths, dtype=np.float64)
        denom[self.n_edges + self._bus_nodes] = bus_bw2[self._bus_nodes]
        return denom

    def _build_incident_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Incident-edge CSR per node, built from the endpoint arrays.

        ``inc_edges[indptr[v]:indptr[v+1]]`` are the edge ids incident to
        node ``v``, ascending, with the ``u`` endpoint of an edge listed
        before its ``v`` endpoint.  Used for per-bus reads and the
        consistency check; shared by ``__init__`` and :meth:`repair`.
        """
        endpoints = np.empty(2 * self.n_edges, dtype=kernels.INDEX_DTYPE)
        endpoints[0::2] = self._edge_u
        endpoints[1::2] = self._edge_v
        eids = np.repeat(np.arange(self.n_edges, dtype=kernels.INDEX_DTYPE), 2)
        order = np.argsort(endpoints, kind="stable")
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(endpoints, minlength=self.n_nodes))
        return indptr, eids[order]

    def incident_edge_ids(self, node: int) -> np.ndarray:
        """Edge ids incident to ``node`` (precomputed CSR slice)."""
        return self._inc_edges[self._inc_indptr[node] : self._inc_indptr[node + 1]]

    def memory_bytes(self) -> int:
        """Bytes held by the substrate arrays (the memory audit hook).

        Counts the fused load array, the denominator / incidence arrays and
        the shared :class:`~repro.core.pathmatrix.PathMatrix` tables, with
        arrays shared between the two deduplicated by identity.
        """
        pm = self.pm
        arrays = {
            id(a): a
            for a in (
                self._loads,
                self._denom,
                self._edge_u,
                self._edge_v,
                self._node_is_bus,
                self._bus_nodes,
                self._inc_indptr,
                self._inc_edges,
                pm._parent,
                pm._parent_edge,
                pm._depth,
                pm._up,
                pm._rp_indptr,
                pm._rp_edges,
                pm._rp_nodes,
                pm._edge_u,
                pm._edge_v,
                pm._bus_mask,
            )
        }
        return int(sum(a.nbytes for a in arrays.values()))

    # ------------------------------------------------------------------ #
    # scatter entries (shared by all lanes of a substrate)
    # ------------------------------------------------------------------ #
    def _make_entry(self, edge_ids: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Precompute the scatter entry of a fixed edge set (a Steiner tree).

        The edge ids of a Steiner tree are distinct, so the fused indices
        (edges, then touched bus rows) can use plain fancy indexing instead
        of ``np.add.at``; the entry carries the per-index increments (1 per
        edge, the endpoint multiplicity per bus -- a bus interior to the
        tree is touched by several of its edges) and the gathered
        denominators for the one-gather running-max repair.
        """
        nodes = np.concatenate([self._edge_u[edge_ids], self._edge_v[edge_ids]])
        buses = nodes[self._node_is_bus[nodes]]
        bus_nodes, mult = np.unique(buses, return_counts=True)
        fused = np.concatenate([edge_ids, self.n_edges + bus_nodes])
        inc = np.concatenate([np.ones(edge_ids.size), mult.astype(np.float64)])
        return (edge_ids, fused, inc, self._denom[fused])

    def _steiner_entry(self, key: frozenset) -> Tuple[np.ndarray, ...]:
        entry = self._steiner_cache.get(key)
        if entry is None:
            ids = np.asarray(self.rooted.steiner_edge_ids(key), dtype=np.int64)
            entry = self._make_entry(ids)
            self._steiner_cache[key] = entry
        return entry

    def _refresh_cached_denoms(self) -> None:
        """Re-gather the denominators cached inside every scatter entry."""
        cache = self._steiner_cache
        for key, (ids, fused, inc, _denom) in list(cache.items()):
            cache[key] = (ids, fused, inc, self._denom[fused])

    # ------------------------------------------------------------------ #
    # structural helpers shared with the strategies
    # ------------------------------------------------------------------ #
    def nearest_in_set(self, nodes, candidates: Sequence[int]) -> np.ndarray:
        """Nearest candidate per node (ties to the smallest id), vectorized."""
        return self.pm.nearest_in_set(np.asarray(nodes, dtype=np.int64), candidates)

    def _pair_substrate(self, lane: int = 0) -> kernels.PairSubstrate:
        """The fused pair-charge substrate of one load row (lane ``lane``
        of a stacked state), checked and cached until the next repair."""
        sub = self._pair_subs.get(lane)
        if sub is None:
            pm = self.pm
            loads = self._loads if self._loads.ndim == 1 else self._loads[lane]
            sub = kernels.PairSubstrate(
                pm._up,
                pm._depth,
                pm._rp_edges,
                pm._rp_nodes,
                pm._rp_indptr,
                self._edge_u,
                self._edge_v,
                self._node_is_bus,
                self._denom,
                loads,
            )
            self._pair_subs[lane] = sub
        return sub


def _pair_arrays(u, v, w) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``u, v, w`` of a batched pair charge as contiguous 1-D int64, int64
    and float64 arrays of one size."""
    u = np.ascontiguousarray(u, dtype=np.int64)
    v = np.ascontiguousarray(v, dtype=np.int64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    if u.ndim != 1 or not u.shape == v.shape == w.shape:
        raise AlgorithmError("pair charge arrays u, v and w must be 1-D and of one size")
    return u, v, w


class LoadState(_SubstrateGeometry):
    """Incremental edge/bus load and congestion bookkeeping for one network.

    Parameters
    ----------
    network:
        The :class:`~repro.network.tree.HierarchicalBusNetwork`.
    rooted:
        Optional rooted view; defaults to the network's cached canonical
        rooting (the same one the batch evaluators use).

    Internally all loads live in one fused array of length
    ``n_edges + n_nodes``: the edge block holds per-edge loads, the node
    block holds *doubled* bus loads (the plain incident-edge sum; halving
    happens on read so every increment stays integer-valued and exact).
    Relative loads divide the fused array by a fused bandwidth array, which
    turns both the rescan and the per-delta running-max repair into a
    single gather / divide / max.
    """

    __slots__ = (
        "_loads",
        "_congestion",
        "_stale",
        "_journal",
        "_snapshots",
    )

    def __init__(self, network, rooted=None) -> None:
        self._init_geometry(network, rooted)
        self._loads = np.zeros(self.n_edges + self.n_nodes, dtype=np.float64)
        self._congestion = 0.0
        self._stale = False
        self._journal: List[Tuple[str, object, object]] = []
        self._snapshots: List[LoadSnapshot] = []

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    @property
    def edge_loads(self) -> np.ndarray:
        """Per-edge accumulated loads (live view of the fused array)."""
        return self._loads[: self.n_edges]

    @property
    def bus_loads(self) -> np.ndarray:
        """Per-node bus loads (zero for processors), derived incrementally."""
        return self._loads[self.n_edges :] * 0.5

    def bus_load(self, bus: int) -> float:
        """Load of one bus (half the incident-edge load sum)."""
        return float(self._loads[self.n_edges + bus]) * 0.5

    @property
    def total_load(self) -> float:
        """Total communication load (sum of all edge loads)."""
        return float(self._loads[: self.n_edges].sum())

    @property
    def congestion(self) -> float:
        """Max relative load over edges and buses (lazily repaired)."""
        if self._stale:
            self._congestion = self._rescan()
            self._stale = False
        return self._congestion

    def _rescan(self) -> float:
        if not self._loads.size:
            return 0.0
        return kernels.rescan(self._loads, self._denom)

    def verify_bus_loads(self) -> bool:
        """Debug check: incremental bus loads match a CSR recomputation."""
        edge_loads = self.edge_loads
        for bus in self._bus_nodes:
            expected = edge_loads[self.incident_edge_ids(int(bus))].sum()
            if expected != self._loads[self.n_edges + bus]:
                return False
        return True

    # ------------------------------------------------------------------ #
    # delta application
    # ------------------------------------------------------------------ #
    def _apply_entry(self, entry: Tuple[np.ndarray, ...], amount: float) -> None:
        _ids, fused, inc, denom = entry
        loads = self._loads
        loads[fused] += inc * amount
        if not self._stale:
            if amount >= 0:
                value = float((loads[fused] / denom).max())
                if value > self._congestion:
                    self._congestion = value
            else:
                self._stale = True
        if self._snapshots:
            self._journal.append(("entry", entry, amount))

    def apply_steiner(self, terminals: Iterable[int], amount: float = 1.0) -> int:
        """Charge ``amount`` on every edge of the Steiner tree of ``terminals``.

        Returns the number of Steiner edges.  Cached per terminal set.
        """
        key = frozenset(int(t) for t in terminals)
        entry = self._steiner_entry(key)
        if entry[0].size and amount != 0:
            self._apply_entry(entry, amount)
        return int(entry[0].size)

    def apply_edges(self, edge_ids, amount: float = 1.0) -> int:
        """Add ``amount`` to every listed edge (ids may repeat); O(len(ids)).

        Returns the number of edge entries charged.  Bus loads and the
        congestion tracker are updated from the touched entries alone.
        """
        ids = np.asarray(edge_ids, dtype=np.int64)
        if ids.size == 0 or amount == 0:
            return 0
        np.add.at(self._loads, ids, amount)
        nodes = np.concatenate([self._edge_u[ids], self._edge_v[ids]])
        buses = nodes[self._node_is_bus[nodes]] + self.n_edges
        np.add.at(self._loads, buses, amount)
        if not self._stale:
            if amount >= 0:
                touched = np.concatenate([ids, buses])
                value = float((self._loads[touched] / self._denom[touched]).max())
                if value > self._congestion:
                    self._congestion = value
            else:
                self._stale = True
        if self._snapshots:
            self._journal.append(("edges", (ids, buses), amount))
        return int(ids.size)

    def apply_edge_loads(self, vector: np.ndarray) -> None:
        """Add a whole per-edge load vector (one candidate / batch column).

        The caller must not mutate ``vector`` while a snapshot that saw this
        apply is still open (the journal keeps a reference, not a copy).
        """
        vec = np.ascontiguousarray(vector, dtype=np.float64)
        if vec.shape != (self.n_edges,):
            raise AlgorithmError("edge-load vector has the wrong shape")
        any_negative = self._scatter_vector(vec, 1.0)
        if not self._stale:
            if not any_negative:
                # a full column touches everything: one vectorized rescan
                value = self._rescan()
                if value > self._congestion:
                    self._congestion = value
            else:
                self._stale = True
        if self._snapshots:
            self._journal.append(("vector", vec, None))

    def _scatter_vector(self, vec: np.ndarray, sign: float) -> bool:
        """Fused edge-block + bus-fold apply of one per-edge column.

        Returns whether any entry of ``vec`` fails ``>= 0`` (the staleness
        trigger); the rollback path ignores the flag.
        """
        return kernels.apply_column(
            self._loads,
            vec,
            self._edge_u,
            self._edge_v,
            self._node_is_bus,
            self.n_edges,
            sign,
        )

    def apply_pairs(self, u, v, w) -> float:
        """Charge weighted request pairs ``u[i] -> v[i]`` in one batch.

        Equivalent to ``apply_edge_loads`` of their per-edge column
        (exactly, for integer-valued weights), in one fused kernel call
        (:func:`repro.core.kernels.charge_pairs`).
        Negative weights mark the congestion stale.  Returns the charged
        cost ``Σ w[i]·dist(u[i], v[i])``.
        """
        u, v, w = _pair_arrays(u, v, w)
        if u.size == 0:
            return 0.0
        col = np.empty(self.n_edges, dtype=np.float64) if self._snapshots else None
        cost, self._congestion, self._stale = kernels.charge_pairs(
            self._pair_substrate(), u, v, w,
            self._congestion, self._stale, col,
        )
        if col is not None:
            self._journal.append(("vector", col, None))
        return cost

    # ------------------------------------------------------------------ #
    # tentative evaluation
    # ------------------------------------------------------------------ #
    def trial_congestions(self, columns: np.ndarray) -> np.ndarray:
        """Congestion of (current state + column) for every column, read-only.

        ``columns`` has shape ``(n_edges, k)``; the result has shape ``(k,)``.
        Used by search layers to score candidate moves in one pass without
        mutating the state.
        """
        cols = np.asarray(columns, dtype=np.float64)
        if cols.ndim == 1:
            cols = cols[:, None]
        n_edges = self.n_edges
        fused = np.zeros((self._loads.size, cols.shape[1]), dtype=np.float64)
        fused[:n_edges] = cols
        bus2 = fused[n_edges:]
        np.add.at(bus2, self._edge_u, cols)
        np.add.at(bus2, self._edge_v, cols)
        bus2[~self._node_is_bus] = 0.0
        fused += self._loads[:, None]
        return (fused / self._denom[:, None]).max(axis=0)

    # ------------------------------------------------------------------ #
    # snapshot / rollback
    # ------------------------------------------------------------------ #
    def snapshot(self) -> LoadSnapshot:
        """Start journalling deltas; returns a token for rollback/commit."""
        snap = LoadSnapshot(
            len(self._journal), self._congestion, self._stale, self._topology_epoch
        )
        self._snapshots.append(snap)
        return snap

    def _check_epoch(self, snap: LoadSnapshot) -> None:
        if snap.epoch != self._topology_epoch:
            raise MutationError(
                "cannot rollback or commit across a topology mutation: the "
                "snapshot was taken before repair() changed the network; "
                "journalled deltas no longer address the fused load array"
            )

    def rollback(self, snap: LoadSnapshot) -> None:
        """Undo every delta applied since ``snap`` (LIFO discipline).

        Also restores the congestion tracker recorded at snapshot time, so a
        rolled-back tentative move leaves no staleness behind.  Raises
        :class:`~repro.errors.MutationError` when the snapshot predates a
        :meth:`repair` -- rolling journalled deltas onto a repaired array
        would silently corrupt the loads.
        """
        self._check_epoch(snap)
        self._pop_to(snap)
        while len(self._journal) > snap.mark:
            kind, payload, amount = self._journal.pop()
            if kind == "entry":
                _ids, fused, inc, _denom = payload
                self._loads[fused] -= inc * amount
            elif kind == "edges":
                ids, buses = payload
                np.add.at(self._loads, ids, -amount)
                np.add.at(self._loads, buses, -amount)
            else:  # "vector"
                self._scatter_vector(payload, -1.0)
        self._congestion = snap.congestion
        self._stale = snap.stale

    def commit(self, snap: LoadSnapshot) -> None:
        """Keep every delta applied since ``snap`` and close the snapshot."""
        self._check_epoch(snap)
        self._pop_to(snap)
        if not self._snapshots:
            self._journal.clear()

    def _pop_to(self, snap: LoadSnapshot) -> None:
        if not snap.active:
            raise AlgorithmError("snapshot was already rolled back or committed")
        while self._snapshots:
            top = self._snapshots.pop()
            top.active = False
            if top is snap:
                return
        raise AlgorithmError("snapshot does not belong to this LoadState")

    def load_profile(self):
        """Materialise the current state as a static :class:`LoadProfile`."""
        from repro.core.congestion import LoadProfile

        return LoadProfile(
            network=self.network,
            edge_loads=self.edge_loads.copy(),
            bus_loads=self.bus_loads,
        )

    # ------------------------------------------------------------------ #
    # topology repair
    # ------------------------------------------------------------------ #
    def repair(self, outcomes) -> None:
        """Carry this state over one or more topology mutations, in place.

        ``outcomes`` is a single :class:`~repro.network.mutation.MutationOutcome`
        or a sequence of them (applied in order; each must start from the
        network the previous one produced).  After repair the state is
        **bit-for-bit equal to a from-scratch rebuild**: a fresh
        ``LoadState(outcome.network)`` charged with
        ``outcome.mapped_edge_loads(old_edge_loads)`` -- removed edges drop
        their loads, new edges start at zero, bus rows and relative-load
        denominators follow.  The repair itself is vectorized array
        surgery:

        * bandwidth mutations touch only the affected denominator entries
          (and refresh the denominators cached in scatter entries);
        * ``attach_leaf`` appends zero-load rows;
        * ``detach_leaf`` drops the leaf's rows and debits its switch-edge
          load from its bus row;
        * ``split_bus`` debits the moved switch-edge loads from the split
          bus and credits them to the new bus row.

        Exactness relies on loads being integer-valued (invariant 2 of
        ARCHITECTURE.md).  Snapshots cannot cross a repair: repairing with
        open snapshots raises :class:`~repro.errors.MutationError` (the
        journalled tentative deltas would otherwise silently become
        permanent), and any later :meth:`rollback` / :meth:`commit` of a
        snapshot taken before a repair raises it too.  The Steiner
        scatter cache is cleared on structural mutations (it recharges
        lazily).
        """
        from repro.network.mutation import MutationOutcome

        if self._snapshots:
            raise MutationError(
                "cannot repair while snapshots are open: roll back or commit "
                "tentative deltas first (journalled moves would otherwise be "
                "silently committed by the repair)"
            )
        if isinstance(outcomes, MutationOutcome):
            outcomes = [outcomes]
        for outcome in outcomes:
            self._repair_one(outcome)

    def _repair_one(self, outcome) -> None:
        from repro.network.mutation import AttachLeaf, DetachLeaf, SplitBus

        if outcome.old_network is not self.network:
            raise MutationError(
                "mutation outcome does not apply to this state's network"
            )
        new_rooted = self.rooted.repaired(outcome)
        new_pm = self.pm.repaired(outcome, new_rooted)
        network = outcome.network
        n_edges_old = self.n_edges
        mutation = outcome.mutation

        if not outcome.structural:
            if outcome.changed_edge is not None:
                self._denom[outcome.changed_edge] = network.edge_bandwidth(
                    outcome.changed_edge
                )
            if outcome.changed_bus is not None:
                self._denom[n_edges_old + outcome.changed_bus] = (
                    2.0 * network.bus_bandwidth(outcome.changed_bus)
                )
            # scatter entries cache their denominator gather: refresh it
            self._refresh_cached_denoms()
        else:
            edge_block = self._loads[:n_edges_old]
            node_block = self._loads[n_edges_old:]
            zero = np.zeros(1, dtype=np.float64)
            if isinstance(mutation, AttachLeaf):
                loads = np.concatenate([edge_block, zero, node_block, zero])
            elif isinstance(mutation, DetachLeaf):
                node_rows = node_block.copy()
                node_rows[outcome.touched_bus] -= edge_block[outcome.removed_edge]
                loads = np.concatenate(
                    [edge_block[outcome.edge_map >= 0], node_rows[outcome.node_map >= 0]]
                )
            elif isinstance(mutation, SplitBus):
                mids = np.asarray(outcome.moved_edge_ids, dtype=np.int64)
                moved_sum = float(edge_block[mids].sum())
                node_rows = node_block.copy()
                node_rows[outcome.touched_bus] -= moved_sum
                loads = np.concatenate(
                    [edge_block, zero, node_rows, np.asarray([moved_sum])]
                )
            else:
                raise MutationError(
                    f"no repair rule for mutation {type(mutation).__name__}"
                )
            self._loads = loads
            self.n_edges = network.n_edges
            self.n_nodes = network.n_nodes
            self._edge_u = new_pm._edge_u
            self._edge_v = new_pm._edge_v
            self._node_is_bus = new_pm._bus_mask
            self._bus_nodes = np.flatnonzero(new_pm._bus_mask)

            self._denom = self._build_denominators(network)
            self._inc_indptr, self._inc_edges = self._build_incident_csr()

            self._steiner_cache.clear()

        self._pair_subs.clear()
        self.network = network
        self.rooted = new_rooted
        self.pm = new_pm
        self._stale = True
        self._topology_epoch += 1
        self._journal.clear()

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Zero all loads and drop journal/snapshot state (caches survive)."""
        if self._snapshots:
            raise AlgorithmError("cannot reset while snapshots are open")
        self._loads[:] = 0.0
        self._congestion = 0.0
        self._stale = False
        self._journal.clear()


class StackedLoadState(_SubstrateGeometry):
    """K load lanes over one shared substrate (the fleet-replay engine).

    Replaying the same request/churn timeline under K strategies against K
    independent :class:`LoadState` instances pays K times for everything
    that only depends on the *topology*: scatter-entry construction, bus
    folds, congestion rescans and churn repairs.  The stacked state keeps
    one fused load array of shape ``(K, n_edges + n_nodes)`` instead, with

    * **shared geometry** -- one :class:`~repro.core.pathmatrix.PathMatrix`,
      one denominator array and one Steiner scatter-entry cache for all
      lanes;
    * **lane-broadcast batch charges** -- :meth:`apply_edge_loads_lanes`
      adds one per-edge column per lane in a single batched scatter (the
      bus fold and the per-lane running-max repair are vectorized over the
      lane axis);
    * **per-lane running-max congestion** -- ``_congestion`` / ``_stale``
      are arrays over lanes, maintained with exactly the rules of
      :class:`LoadState`;
    * **one shared churn repair** -- :meth:`repair` carries *all* lanes
      over a topology mutation with a single 2-D array surgery
      (debit/credit per lane row), and is idempotent per
      :class:`~repro.network.mutation.MutationOutcome` so every lane's
      strategy can call it through its own view without double-applying.

    All charges are integer-valued (ARCHITECTURE.md invariant 2), so each
    lane row is bit-for-bit the fused array of a standalone
    :class:`LoadState` fed the same charges in any order -- the fleet
    parity tests pin this down.

    Lanes do not journal: :meth:`LaneState.snapshot` raises.  Search
    layers needing tentative moves keep using :class:`LoadState`.
    """

    __slots__ = (
        "n_lanes",
        "_loads",
        "_congestion",
        "_stale",
        "_lanes",
        "_applied_outcomes",
    )

    def __init__(self, network, n_lanes: int, rooted=None) -> None:
        if n_lanes < 1:
            raise AlgorithmError("a stacked load state needs at least one lane")
        self._init_geometry(network, rooted)
        self.n_lanes = int(n_lanes)
        self._loads = np.zeros(
            (self.n_lanes, self.n_edges + self.n_nodes), dtype=np.float64
        )
        self._congestion = np.zeros(self.n_lanes, dtype=np.float64)
        self._stale = np.zeros(self.n_lanes, dtype=bool)
        self._lanes = tuple(LaneState(self, k) for k in range(self.n_lanes))
        self._applied_outcomes: Optional[List] = None

    @property
    def lanes(self) -> Tuple["LaneState", ...]:
        """All lane views, in lane order."""
        return self._lanes

    def lane(self, index: int) -> "LaneState":
        """The view of one lane (stable across repairs)."""
        return self._lanes[index]

    # ------------------------------------------------------------------ #
    # per-lane primitives (called through the LaneState views)
    # ------------------------------------------------------------------ #
    def _lane_congestion(self, k: int) -> float:
        if self._stale[k]:
            row = self._loads[k]
            self._congestion[k] = kernels.rescan(row, self._denom) if row.size else 0.0
            self._stale[k] = False
        return float(self._congestion[k])

    def _apply_entry_lane(self, k: int, entry: Tuple[np.ndarray, ...], amount: float) -> None:
        _ids, fused, inc, denom = entry
        row = self._loads[k]
        row[fused] += inc * amount
        if not self._stale[k]:
            if amount >= 0:
                value = float((row[fused] / denom).max())
                if value > self._congestion[k]:
                    self._congestion[k] = value
            else:
                self._stale[k] = True

    # ------------------------------------------------------------------ #
    # lane-broadcast batch application
    # ------------------------------------------------------------------ #
    def apply_edge_loads_lanes(self, lanes, columns: np.ndarray) -> None:
        """Add one per-edge load column per listed lane, batched.

        ``columns`` has shape ``(n_edges, len(lanes))`` (column ``j`` goes
        to lane ``lanes[j]``); the bus fold and the congestion update run
        once over the whole block instead of once per lane.  Lane ids must
        be distinct.  Produces bit-for-bit the loads and congestion of
        ``LoadState.apply_edge_loads`` called per lane.
        """
        lanes = np.ascontiguousarray(lanes, dtype=np.int64)
        cols = np.ascontiguousarray(columns, dtype=np.float64)
        if cols.ndim == 1:
            cols = cols[:, None]
        if cols.shape != (self.n_edges, lanes.size):
            raise AlgorithmError("edge-load column block has the wrong shape")
        if np.unique(lanes).size != lanes.size:
            # a buffered fancy-index "+=" would drop all but one duplicate
            raise AlgorithmError("lane ids must be distinct")
        negative = kernels.apply_columns_lanes(
            self._loads,
            lanes,
            cols,
            self._edge_u,
            self._edge_v,
            self._node_is_bus,
            self.n_edges,
        )
        if negative.any():
            self._stale[lanes[negative]] = True
        fresh = lanes[~negative & ~self._stale[lanes]]
        if fresh.size:
            values = kernels.rescan_rows(self._loads, fresh, self._denom)
            self._congestion[fresh] = np.maximum(self._congestion[fresh], values)

    # ------------------------------------------------------------------ #
    # reads over the whole fleet
    # ------------------------------------------------------------------ #
    @property
    def congestions(self) -> np.ndarray:
        """Per-lane congestion values (stale lanes rescanned first)."""
        if self._stale.any():
            rows = np.flatnonzero(self._stale)
            self._congestion[rows] = kernels.rescan_rows(
                self._loads, rows, self._denom
            )
            self._stale[rows] = False
        return self._congestion.copy()

    def verify_bus_loads(self, lane: Optional[int] = None) -> bool:
        """Debug check: incremental bus loads match a CSR recomputation."""
        lanes = range(self.n_lanes) if lane is None else (lane,)
        for k in lanes:
            row = self._loads[k]
            for bus in self._bus_nodes:
                expected = row[self.incident_edge_ids(int(bus))].sum()
                if expected != row[self.n_edges + bus]:
                    return False
        return True

    # ------------------------------------------------------------------ #
    # shared topology repair
    # ------------------------------------------------------------------ #
    def repair(self, outcomes) -> None:
        """Carry every lane over one or more topology mutations, in place.

        One 2-D array surgery debits/credits all lane rows at once; the
        per-lane result is bit-for-bit what :meth:`LoadState.repair` does
        to a standalone state.  The repair is **idempotent per call
        arguments**: each lane's strategy calls it through its own view
        with the same outcome (or outcome sequence), only the first call
        applies the mutations, and every later identical call is a no-op
        (re-applying would fail anyway -- an outcome's ``old_network`` no
        longer matches after the first application).  Only the previous
        call's outcomes are remembered, so no unbounded history of old
        networks is kept alive.
        """
        from repro.network.mutation import MutationOutcome

        if isinstance(outcomes, MutationOutcome):
            outcomes = [outcomes]
        else:
            outcomes = list(outcomes)
        previous = self._applied_outcomes
        if (
            previous is not None
            and len(previous) == len(outcomes)
            and all(a is b for a, b in zip(previous, outcomes))
        ):
            return
        for outcome in outcomes:
            self._repair_one(outcome)
        self._applied_outcomes = outcomes

    def _repair_one(self, outcome) -> None:
        from repro.network.mutation import AttachLeaf, DetachLeaf, SplitBus

        if outcome.old_network is not self.network:
            raise MutationError(
                "mutation outcome does not apply to this state's network"
            )
        new_rooted = self.rooted.repaired(outcome)
        new_pm = self.pm.repaired(outcome, new_rooted)
        network = outcome.network
        n_edges_old = self.n_edges
        mutation = outcome.mutation

        if not outcome.structural:
            if outcome.changed_edge is not None:
                self._denom[outcome.changed_edge] = network.edge_bandwidth(
                    outcome.changed_edge
                )
            if outcome.changed_bus is not None:
                self._denom[n_edges_old + outcome.changed_bus] = (
                    2.0 * network.bus_bandwidth(outcome.changed_bus)
                )
            self._refresh_cached_denoms()
        else:
            edge_block = self._loads[:, :n_edges_old]
            node_block = self._loads[:, n_edges_old:]
            zero = np.zeros((self.n_lanes, 1), dtype=np.float64)
            if isinstance(mutation, AttachLeaf):
                loads = np.concatenate([edge_block, zero, node_block, zero], axis=1)
            elif isinstance(mutation, DetachLeaf):
                node_rows = node_block.copy()
                node_rows[:, outcome.touched_bus] -= edge_block[:, outcome.removed_edge]
                # the masked column gathers come out F-ordered (and
                # concatenate preserves that when every input is F); the
                # lane kernels need a C-ordered stack
                loads = np.ascontiguousarray(
                    np.concatenate(
                        [
                            edge_block[:, outcome.edge_map >= 0],
                            node_rows[:, outcome.node_map >= 0],
                        ],
                        axis=1,
                    )
                )
            elif isinstance(mutation, SplitBus):
                mids = np.asarray(outcome.moved_edge_ids, dtype=np.int64)
                moved_sum = edge_block[:, mids].sum(axis=1)
                node_rows = node_block.copy()
                node_rows[:, outcome.touched_bus] -= moved_sum
                loads = np.concatenate(
                    [edge_block, zero, node_rows, moved_sum[:, None]], axis=1
                )
            else:
                raise MutationError(
                    f"no repair rule for mutation {type(mutation).__name__}"
                )
            self._loads = loads
            self.n_edges = network.n_edges
            self.n_nodes = network.n_nodes
            self._edge_u = new_pm._edge_u
            self._edge_v = new_pm._edge_v
            self._node_is_bus = new_pm._bus_mask
            self._bus_nodes = np.flatnonzero(new_pm._bus_mask)

            self._denom = self._build_denominators(network)
            self._inc_indptr, self._inc_edges = self._build_incident_csr()

            self._steiner_cache.clear()

        self._pair_subs.clear()
        self.network = network
        self.rooted = new_rooted
        self.pm = new_pm
        self._stale[:] = True
        self._topology_epoch += 1


class LaneState:
    """One lane of a :class:`StackedLoadState`, shaped like a :class:`LoadState`.

    Exposes the replay slice of the :class:`LoadState` API (charges, reads,
    repair) against the lane's row of the shared fused array, so a
    strategy's :class:`~repro.dynamic.online.OnlineCostAccount` can sit on
    a fleet lane without knowing it.  Journalling (snapshot / rollback /
    commit) is not supported on lanes -- tentative-move search layers keep
    their own standalone :class:`LoadState`.
    """

    __slots__ = ("parent", "lane_index")

    def __init__(self, parent: StackedLoadState, lane_index: int) -> None:
        self.parent = parent
        self.lane_index = int(lane_index)

    # -- geometry proxies ---------------------------------------------- #
    @property
    def network(self):
        return self.parent.network

    @property
    def rooted(self):
        return self.parent.rooted

    @property
    def pm(self):
        return self.parent.pm

    @property
    def n_edges(self) -> int:
        return self.parent.n_edges

    @property
    def n_nodes(self) -> int:
        return self.parent.n_nodes

    # -- reads ---------------------------------------------------------- #
    @property
    def edge_loads(self) -> np.ndarray:
        """Per-edge accumulated loads (live view of the lane row)."""
        return self.parent._loads[self.lane_index, : self.parent.n_edges]

    @property
    def bus_loads(self) -> np.ndarray:
        """Per-node bus loads (zero for processors), derived incrementally."""
        return self.parent._loads[self.lane_index, self.parent.n_edges :] * 0.5

    def bus_load(self, bus: int) -> float:
        """Load of one bus (half the incident-edge load sum)."""
        return float(self.parent._loads[self.lane_index, self.parent.n_edges + bus]) * 0.5

    def incident_edge_ids(self, node: int) -> np.ndarray:
        """Edge ids incident to ``node`` (shared CSR slice)."""
        return self.parent.incident_edge_ids(node)

    @property
    def total_load(self) -> float:
        """Total communication load (sum of the lane's edge loads)."""
        return float(self.edge_loads.sum())

    @property
    def congestion(self) -> float:
        """Max relative load over edges and buses (lazily repaired)."""
        return self.parent._lane_congestion(self.lane_index)

    def verify_bus_loads(self) -> bool:
        """Debug check: the lane's bus rows match a CSR recomputation."""
        return self.parent.verify_bus_loads(self.lane_index)

    # -- delta application ---------------------------------------------- #
    def apply_steiner(self, terminals: Iterable[int], amount: float = 1.0) -> int:
        """Charge ``amount`` on every edge of the Steiner tree of ``terminals``."""
        key = frozenset(int(t) for t in terminals)
        entry = self.parent._steiner_entry(key)
        if entry[0].size and amount != 0:
            self.parent._apply_entry_lane(self.lane_index, entry, amount)
        return int(entry[0].size)

    def apply_edge_loads(self, vector: np.ndarray) -> None:
        """Add a whole per-edge load vector to this lane."""
        vec = np.asarray(vector, dtype=np.float64)
        if vec.shape != (self.parent.n_edges,):
            raise AlgorithmError("edge-load vector has the wrong shape")
        self.parent.apply_edge_loads_lanes([self.lane_index], vec[:, None])

    def apply_pairs(self, u, v, w) -> float:
        """Charge weighted request pairs ``u[i] -> v[i]`` in one batch
        (:meth:`LoadState.apply_pairs` on the lane row); returns the cost."""
        u, v, w = _pair_arrays(u, v, w)
        if u.size == 0:
            return 0.0
        parent, k = self.parent, self.lane_index
        cost, congestion, stale = kernels.charge_pairs(
            parent._pair_substrate(k), u, v, w,
            float(parent._congestion[k]), bool(parent._stale[k]),
        )
        parent._congestion[k] = congestion
        parent._stale[k] = stale
        return cost

    # -- structural helpers --------------------------------------------- #
    def nearest_in_set(self, nodes, candidates: Sequence[int]) -> np.ndarray:
        """Nearest candidate per node (ties to the smallest id), vectorized."""
        return self.parent.nearest_in_set(nodes, candidates)

    def load_profile(self):
        """Materialise the lane's current state as a static ``LoadProfile``."""
        from repro.core.congestion import LoadProfile

        return LoadProfile(
            network=self.parent.network,
            edge_loads=self.edge_loads.copy(),
            bus_loads=self.bus_loads,
        )

    # -- repair ---------------------------------------------------------- #
    def repair(self, outcomes) -> None:
        """Carry the whole stacked substrate over a mutation (idempotent)."""
        self.parent.repair(outcomes)

    # -- unsupported LoadState surface ----------------------------------- #
    def snapshot(self):
        """Lanes do not journal; tentative-move search needs a LoadState."""
        raise AlgorithmError(
            "fleet lanes do not support snapshot/rollback: use a standalone "
            "LoadState for tentative-move search"
        )

    def trial_congestions(self, columns):
        """Unsupported on lanes (see :meth:`snapshot`)."""
        raise AlgorithmError(
            "fleet lanes do not support trial evaluation: use a standalone "
            "LoadState for tentative-move search"
        )
