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

* **Three kinds of charge.**  Request pairs (batched request chunks) go
  through ``apply_pairs``, Steiner trees (write broadcasts) through
  ``apply_steiner`` and whole per-edge columns (candidate placements,
  delivery rounds) through ``apply_edge_loads``.  Edge and bus loads live
  in one fused array (bus loads doubled, i.e. the plain incident-edge
  sum), so a cached Steiner entry updates and re-checks both with a
  single fancy-indexed gather/scatter on the touched entries only.
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

Every load row belongs to a :class:`StackedLoadState`: K strategy lanes
replaying the same timeline hold their loads as one ``(K, n_rows)`` array
over one shared :class:`~repro.core.pathmatrix.PathMatrix` and one shared
scatter-entry cache, so batched charges amortise the index computations
across all lanes and a topology repair debits/credits every lane in a
single array surgery.  A :class:`LoadState` is the view of one lane:
``LoadState(network)`` owns a one-lane stack, and
:attr:`StackedLoadState.lanes` are the views of a K-lane one.  The
view keeps the lane's running max, staleness flag and journal as plain
attributes, so the one-lane hot path touches no array element for them.
The exactness argument above is order-free, so a lane of a K-lane stack
and a standalone state fed the same charges agree bitwise.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core import kernels
from repro.errors import AlgorithmError, MutationError

__all__ = ["LoadState", "LoadSnapshot", "StackedLoadState"]


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


def _pair_arrays(u, v, w) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``u, v, w`` of a batched pair charge as contiguous 1-D int64, int64
    and float64 arrays of one size."""
    u = np.ascontiguousarray(u, dtype=np.int64)
    v = np.ascontiguousarray(v, dtype=np.int64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    if u.ndim != 1 or not u.shape == v.shape == w.shape:
        raise AlgorithmError("pair charge arrays u, v and w must be 1-D and of one size")
    return u, v, w


class LoadState:
    """Incremental edge/bus load and congestion bookkeeping for one network.

    Parameters
    ----------
    network:
        The :class:`~repro.network.tree.HierarchicalBusNetwork`.
    rooted:
        Optional rooted view; defaults to the network's cached canonical
        rooting (the same one the batch evaluators use).

    A load state is the view of one lane of a :class:`StackedLoadState`:
    ``LoadState(network)`` owns a one-lane stack, and
    :attr:`StackedLoadState.lanes` are the views of a K-lane stack
    (``stack`` and ``lane_index`` name the row).  The stack owns the load
    rows, the denominators, the scatter caches and the repair; the view
    keeps the lane's running max, its staleness flag and its journal.

    Internally all loads live in one fused row of length
    ``n_edges + n_nodes``: the edge block holds per-edge loads, the node
    block holds *doubled* bus loads (the plain incident-edge sum; halving
    happens on read so every increment stays integer-valued and exact).
    Relative loads divide the fused row by a fused bandwidth array, which
    turns both the rescan and the per-delta running-max repair into a
    single gather / divide / max.
    """

    __slots__ = (
        "stack",
        "lane_index",
        "_loads",
        "_congestion",
        "_stale",
        "_journal",
        "_snapshots",
    )

    def __init__(self, network, rooted=None) -> None:
        stack = StackedLoadState(network, 1, rooted)
        stack._lanes = (self._bind(stack, 0),)

    def _bind(self, stack: "StackedLoadState", index: int) -> "LoadState":
        """Make this object the zero-load view of row ``index`` of ``stack``."""
        self.stack = stack
        self.lane_index = index
        self._loads = stack._loads[index]
        self._congestion = 0.0
        self._stale = False
        self._journal: List[Tuple[str, object, object]] = []
        self._snapshots: List[LoadSnapshot] = []
        return self

    # ------------------------------------------------------------------ #
    # the stack's geometry
    # ------------------------------------------------------------------ #
    @property
    def network(self):
        """The network the loads are kept on."""
        return self.stack.network

    @property
    def rooted(self):
        """The rooted view of :attr:`network`."""
        return self.stack.rooted

    @property
    def pm(self):
        """The :class:`~repro.core.pathmatrix.PathMatrix` of :attr:`rooted`."""
        return self.stack.pm

    @property
    def n_edges(self) -> int:
        return self.stack.n_edges

    @property
    def n_nodes(self) -> int:
        return self.stack.n_nodes

    def memory_bytes(self) -> int:
        """Bytes held by the substrate arrays (the memory audit hook)."""
        return self.stack.memory_bytes()

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    @property
    def edge_loads(self) -> np.ndarray:
        """Per-edge accumulated loads (live view of the fused row)."""
        return self._loads[: self.stack.n_edges]

    @property
    def bus_loads(self) -> np.ndarray:
        """Per-node bus loads (zero for processors), derived incrementally."""
        return self._loads[self.stack.n_edges :] * 0.5

    @property
    def total_load(self) -> float:
        """Total communication load (sum of all edge loads)."""
        return float(self._loads[: self.stack.n_edges].sum())

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
        return kernels.rescan(self._loads, self.stack._denom)

    def verify_bus_loads(self) -> bool:
        """Debug check: the incremental bus loads equal a fresh fold of the
        edge loads, processor entries (which must read 0) included."""
        fresh = self.pm.bus_loads_from_edge_loads(self.edge_loads)
        return bool(np.array_equal(fresh, self.bus_loads))

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
        entry = self.stack._steiner_entry(key)
        if entry[0].size and amount != 0:
            self._apply_entry(entry, amount)
        return int(entry[0].size)

    def apply_edge_loads(self, vector: np.ndarray) -> None:
        """Add a whole per-edge load vector (one candidate / batch column).

        The caller must not mutate ``vector`` while a snapshot that saw this
        apply is still open (the journal keeps a reference, not a copy).
        """
        vec = np.ascontiguousarray(vector, dtype=np.float64)
        if vec.shape != (self.stack.n_edges,):
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
        stack = self.stack
        return kernels.apply_column(
            self._loads,
            vec,
            stack._edge_u,
            stack._edge_v,
            stack._node_is_bus,
            stack.n_edges,
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
        stack = self.stack
        col = np.empty(stack.n_edges, dtype=np.float64) if self._snapshots else None
        cost, self._congestion, self._stale = kernels.charge_pairs(
            stack._pair_substrate(self.lane_index), u, v, w,
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

        ``columns`` has shape ``(n_edges, k)`` (or ``(n_edges,)`` for one
        column); the result has shape ``(k,)``.  Used by search layers to
        score candidate moves in one pass without mutating the state.  The
        block's bus rows come from :func:`repro.core.kernels.bus_fold`, the
        fold behind :meth:`PathMatrix.bus_loads_from_edge_loads
        <repro.core.pathmatrix.PathMatrix.bus_loads_from_edge_loads>`.
        """
        stack = self.stack
        n_edges = stack.n_edges
        cols = np.ascontiguousarray(columns, dtype=np.float64)
        if cols.ndim == 1:
            cols = cols[:, None]
        if cols.ndim != 2 or cols.shape[0] != n_edges:
            raise AlgorithmError("edge-load column block has the wrong shape")
        fused = np.zeros((self._loads.size, cols.shape[1]), dtype=np.float64)
        fused[:n_edges] = cols
        kernels.bus_fold(
            fused[n_edges:], stack._edge_u, stack._edge_v, stack._node_is_bus, cols
        )
        fused += self._loads[:, None]
        return (fused / stack._denom[:, None]).max(axis=0)

    # ------------------------------------------------------------------ #
    # snapshot / rollback
    # ------------------------------------------------------------------ #
    def snapshot(self) -> LoadSnapshot:
        """Start journalling deltas; returns a token for rollback/commit.

        Only the lane of a one-lane stack journals: the lanes of a K-lane
        stack are fleet lanes, which replay and never roll back.
        """
        if self.stack.n_lanes > 1:
            raise AlgorithmError(
                "fleet lanes do not support snapshot/rollback: use a standalone "
                "LoadState for tentative-move search"
            )
        snap = LoadSnapshot(
            len(self._journal), self._congestion, self._stale,
            self.stack._topology_epoch,
        )
        self._snapshots.append(snap)
        return snap

    def _check_epoch(self, snap: LoadSnapshot) -> None:
        if snap.epoch != self.stack._topology_epoch:
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
        ``outcome.mapped_edge_loads(old_edge_loads)``.  The stack does the
        array surgery (:meth:`StackedLoadState.repair`) for all its lanes
        at once, and a repeat of the same call through another lane is a
        no-op.

        Exactness relies on loads being integer-valued (invariant 2 of
        ARCHITECTURE.md).  Snapshots cannot cross a repair: repairing with
        open snapshots raises :class:`~repro.errors.MutationError` (the
        journalled tentative deltas would otherwise silently become
        permanent), and any later :meth:`rollback` / :meth:`commit` of a
        snapshot taken before a repair raises it too.
        """
        self.stack.repair(outcomes)

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Zero all loads and drop journal/snapshot state (caches survive)."""
        if self._snapshots:
            raise AlgorithmError("cannot reset while snapshots are open")
        self._loads[:] = 0.0
        self._congestion = 0.0
        self._stale = False
        self._journal.clear()


class StackedLoadState:
    """K load lanes over one shared substrate: the owner of every load row.

    Replaying the same request/churn timeline under K strategies against K
    separate substrates pays K times for everything that only depends on
    the *topology*: scatter-entry construction and churn repairs.  The
    stacked state keeps one fused load array of shape
    ``(K, n_edges + n_nodes)`` instead, with

    * **shared geometry** -- one :class:`~repro.core.pathmatrix.PathMatrix`,
      one denominator array, one Steiner scatter-entry cache and one pair
      substrate per lane row;
    * **one churn repair** -- :meth:`repair` carries *all* lanes over a
      topology mutation with a single 2-D array surgery (debit/credit per
      lane row), and is idempotent per
      :class:`~repro.network.mutation.MutationOutcome` so every lane's
      strategy can call it through its own view without double-applying.

    Each lane is a :class:`LoadState` view (:attr:`lanes`) whose running
    max follows exactly the rules of a standalone state.  All charges are
    integer-valued (ARCHITECTURE.md invariant 2), so each lane row is
    bit-for-bit the row of a standalone state fed the same charges in any
    order -- the fleet parity tests pin this down.

    The lanes of a stack with more than one lane do not journal:
    :meth:`LoadState.snapshot` raises.  Search layers needing tentative
    moves keep using a standalone :class:`LoadState`.
    """

    __slots__ = (
        "network",
        "rooted",
        "pm",
        "n_edges",
        "n_nodes",
        "n_lanes",
        "_loads",
        "_denom",
        "_edge_u",
        "_edge_v",
        "_node_is_bus",
        "_steiner_cache",
        "_pair_subs",
        "_topology_epoch",
        "_lanes",
        "_applied_outcomes",
    )

    def __init__(self, network, n_lanes: int, rooted=None) -> None:
        if n_lanes < 1:
            raise AlgorithmError("a stacked load state needs at least one lane")
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

        self._denom = self._build_denominators(network)

        self._steiner_cache: dict = {}
        self._pair_subs: dict = {}
        self._topology_epoch = 0
        self._applied_outcomes: Optional[List] = None

        self.n_lanes = int(n_lanes)
        self._loads = np.zeros(
            (self.n_lanes, self.n_edges + self.n_nodes), dtype=np.float64
        )
        self._lanes = tuple(
            LoadState.__new__(LoadState)._bind(self, k) for k in range(self.n_lanes)
        )

    @property
    def lanes(self) -> Tuple[LoadState, ...]:
        """All lane views, in lane order (stable across repairs)."""
        return self._lanes

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
        buses = np.flatnonzero(self._node_is_bus)
        denom[self.n_edges + buses] = bus_bw2[buses]
        return denom

    def memory_bytes(self) -> int:
        """Bytes held by the substrate arrays (the memory audit hook).

        Counts the fused load array, the denominator and endpoint arrays,
        the shared :class:`~repro.core.pathmatrix.PathMatrix` tables and the
        cached Steiner scatter entries, with arrays shared between them
        deduplicated by identity.
        """
        pm = self.pm
        entries = [a for entry in self._steiner_cache.values() for a in entry]
        arrays = {
            id(a): a
            for a in (
                self._loads,
                self._denom,
                self._edge_u,
                self._edge_v,
                self._node_is_bus,
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
                *entries,
            )
        }
        return int(sum(a.nbytes for a in arrays.values()))

    # ------------------------------------------------------------------ #
    # scatter entries (shared by all lanes)
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

    # Entries are rebuilt cheaply on a miss, so the cache is simply dropped
    # once it holds this many terminal sets: an adaptive stream's holder
    # sets are its keys, and no structural repair may come to clear it.
    _MAX_STEINER_ENTRIES = 1024

    def _steiner_entry(self, key: frozenset) -> Tuple[np.ndarray, ...]:
        cache = self._steiner_cache
        entry = cache.get(key)
        if entry is None:
            if len(cache) >= self._MAX_STEINER_ENTRIES:
                cache.clear()
            ids = np.asarray(self.rooted.steiner_edge_ids(key), dtype=np.int64)
            entry = self._make_entry(ids)
            cache[key] = entry
        return entry

    def _refresh_cached_denoms(self) -> None:
        """Re-gather the denominators cached inside every scatter entry."""
        cache = self._steiner_cache
        for key, (ids, fused, inc, _denom) in list(cache.items()):
            cache[key] = (ids, fused, inc, self._denom[fused])

    def _pair_substrate(self, lane: int) -> kernels.PairSubstrate:
        """The fused pair-charge substrate of one lane row, checked and
        cached until the next repair."""
        sub = self._pair_subs.get(lane)
        if sub is None:
            pm = self.pm
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
                self._loads[lane],
            )
            self._pair_subs[lane] = sub
        return sub

    # ------------------------------------------------------------------ #
    # topology repair
    # ------------------------------------------------------------------ #
    def repair(self, outcomes) -> None:
        """Carry every lane over one or more topology mutations, in place.

        One 2-D array surgery debits/credits all lane rows at once, and
        every lane row ends **bit-for-bit equal to a from-scratch
        rebuild** (see :meth:`LoadState.repair`):

        * bandwidth mutations touch only the affected denominator entries
          (and refresh the denominators cached in scatter entries);
        * ``attach_leaf`` appends zero-load columns;
        * ``detach_leaf`` drops the leaf's columns and debits its
          switch-edge load from its bus column;
        * ``split_bus`` debits the moved switch-edge loads from the split
          bus and credits them to the new bus column.

        The repair is **idempotent per call arguments**: each lane's
        strategy calls it through its own view with the same outcome (or
        outcome sequence), only the first call applies the mutations, and
        every later identical call is a no-op (re-applying would fail
        anyway -- an outcome's ``old_network`` no longer matches after the
        first application).  Only the previous call's outcomes are
        remembered, so no unbounded history of old networks is kept alive.
        A lane with open snapshots refuses the repair with
        :class:`~repro.errors.MutationError`.  The Steiner scatter cache is
        cleared on structural mutations (it recharges lazily).
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
        if any(lane._snapshots for lane in self._lanes):
            raise MutationError(
                "cannot repair while snapshots are open: roll back or commit "
                "tentative deltas first (journalled moves would otherwise be "
                "silently committed by the repair)"
            )
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
            # scatter entries cache their denominator gather: refresh it
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

            self._denom = self._build_denominators(network)

            self._steiner_cache.clear()

        self._pair_subs.clear()
        self.network = network
        self.rooted = new_rooted
        self.pm = new_pm
        self._topology_epoch += 1
        for k, lane in enumerate(self._lanes):
            lane._loads = self._loads[k]
            lane._stale = True
            lane._journal.clear()
