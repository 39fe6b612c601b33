"""Placements and reference-copy assignments.

A *placement* (Section 1.1 of the paper) determines, for every shared data
object ``x``, a non-empty set ``P_x`` of nodes holding copies of ``x`` and,
for every processor ``P``, a *reference copy* ``c(P, x) ∈ P_x`` that serves
``P``'s requests to ``x``.

Two placement flavours appear in the paper:

* *tree placements* produced by the nibble strategy of [MMVW97], where inner
  nodes (buses) may hold copies, and
* *bus-network placements*, where only processors (leaves) may hold copies
  -- the model of this paper, and the output of the extended-nibble
  strategy.

Both are represented by :class:`Placement`; :meth:`Placement.is_leaf_only`
distinguishes them and :meth:`Placement.validate_for` can enforce the
leaf-only restriction.

The deletion step of the extended-nibble strategy may split the requests of
a single processor across several copies; :class:`RequestAssignment` captures
such (possibly fractional, in the sense of *split counts*) assignments
exactly, while keeping the common single-reference-copy case convenient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AssignmentError, PlacementError
from repro.network.tree import HierarchicalBusNetwork
from repro.workload.access import AccessPattern

__all__ = ["Placement", "Share", "RequestAssignment"]


class Placement:
    """Copy locations ``P_x`` for every shared object.

    Parameters
    ----------
    holders:
        One iterable of node ids per object; must be non-empty for every
        object (every object needs at least one copy).
    """

    __slots__ = ("_holders",)

    def __init__(self, holders: Sequence[Iterable[int]]) -> None:
        frozen: List[frozenset] = []
        for x, hs in enumerate(holders):
            fs = frozenset(int(h) for h in hs)
            if not fs:
                raise PlacementError(f"object {x} has an empty holder set")
            frozen.append(fs)
        self._holders: Tuple[frozenset, ...] = tuple(frozen)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def single_holder(cls, holder_per_object: Sequence[int]) -> "Placement":
        """Non-redundant placement with one holder per object."""
        return cls([[h] for h in holder_per_object])

    @classmethod
    def full_replication(
        cls, network: HierarchicalBusNetwork, n_objects: int
    ) -> "Placement":
        """Every processor holds a copy of every object."""
        procs = list(network.processors)
        return cls([procs for _ in range(n_objects)])

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def n_objects(self) -> int:
        """Number of objects the placement covers."""
        return len(self._holders)

    def holders(self, obj: int) -> frozenset:
        """The holder set ``P_x`` of object ``obj``."""
        return self._holders[obj]

    def all_holders(self) -> Tuple[frozenset, ...]:
        """Holder sets of all objects, indexed by object."""
        return self._holders

    def total_copies(self) -> int:
        """Total number of (object, holder) pairs."""
        return sum(len(h) for h in self._holders)

    def is_redundant(self, obj: int) -> bool:
        """True if object ``obj`` has more than one copy."""
        return len(self._holders[obj]) > 1

    def is_leaf_only(self, network: HierarchicalBusNetwork) -> bool:
        """True iff every holder is a processor (bus-network placement)."""
        return all(
            network.is_processor(h) for hs in self._holders for h in hs
        )

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate_for(
        self,
        network: HierarchicalBusNetwork,
        pattern: Optional[AccessPattern] = None,
        require_leaf_only: bool = False,
    ) -> None:
        """Check holder node ids (and optionally the leaf-only restriction).

        Parameters
        ----------
        network:
            Network the placement refers to.
        pattern:
            Optional access pattern; if given, the number of objects must
            match.
        require_leaf_only:
            If true, raise when a bus holds a copy (the hierarchical bus
            network model forbids this).
        """
        if pattern is not None and pattern.n_objects != self.n_objects:
            raise PlacementError(
                f"placement covers {self.n_objects} objects, "
                f"pattern has {pattern.n_objects}"
            )
        for x, hs in enumerate(self._holders):
            for h in hs:
                if h not in network:
                    raise PlacementError(f"object {x}: unknown holder node {h}")
                if require_leaf_only and not network.is_processor(h):
                    raise PlacementError(
                        f"object {x}: holder {h} is a bus, but the hierarchical "
                        "bus network model allows copies only on processors"
                    )

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return self._holders == other._holders

    def __hash__(self) -> int:
        return hash(self._holders)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Placement(n_objects={self.n_objects}, "
            f"total_copies={self.total_copies()})"
        )


@dataclass(frozen=True)
class Share:
    """A portion of one processor's requests to one object served by a holder.

    ``reads`` and ``writes`` are the number of read and write requests of the
    (processor, object) pair that are served by ``holder``.
    """

    holder: int
    reads: int
    writes: int

    def __post_init__(self) -> None:
        if self.reads < 0 or self.writes < 0:
            raise AssignmentError("share counts must be non-negative")

    @property
    def total(self) -> int:
        """Total number of requests in this share."""
        return self.reads + self.writes


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """First row of every run of equal key tuples (rows sorted by the keys)."""
    first = np.zeros(keys[0].size, dtype=bool)
    first[:1] = True
    for key in keys:
        first[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(first)


class RequestAssignment:
    """Assignment of every request to the copy that serves it.

    In the simplest (paper-default) case every (processor, object) pair has a
    single reference copy; the deletion step of the extended-nibble strategy
    may however split one pair's requests between several copies.  This class
    stores, for every (processor, object) pair with requests, the
    :class:`Share` rows describing how the requests are split.

    Storage is columnar (CSR): pair ``i`` is ``(pair_procs[i], pair_objs[i])``,
    pairs sorted by object and then processor, and its shares are the rows
    ``indptr[i]:indptr[i + 1]`` of the ``holders``/``reads``/``writes``
    columns, one row per holder, sorted by holder (every constructor merges
    the shares a pair has on one holder).  :meth:`shares` and :meth:`items`
    are views that build :class:`Share` records on demand.
    """

    __slots__ = (
        "_n_objects",
        "_pair_procs",
        "_pair_objs",
        "_indptr",
        "_holders",
        "_reads",
        "_writes",
        "_lookup",
    )

    def __init__(
        self,
        shares: Mapping[Tuple[int, int], Sequence[Share]],
        n_objects: int,
    ) -> None:
        rows: List[Tuple[int, int, int, int, int]] = []
        for key, value in shares.items():
            proc, obj = int(key[0]), int(key[1])
            if not 0 <= obj < n_objects:
                raise AssignmentError(f"object index {obj} out of range")
            rows.extend((proc, obj, s.holder, s.reads, s.writes) for s in value)
        self._install(n_objects, *np.array(rows, dtype=np.int64).reshape(-1, 5).T)

    def _install(self, n_objects: int, procs, objs, holders, reads, writes) -> None:
        """Set the CSR columns from share rows in any order.

        Rows of one (processor, object, holder) triple are merged, and a
        pair's shares are sorted by holder.
        """
        procs, objs, holders, reads, writes = (
            np.asarray(c, dtype=np.int64).ravel()
            for c in (procs, objs, holders, reads, writes)
        )
        bad = np.flatnonzero((objs < 0) | (objs >= n_objects))
        if bad.size:
            raise AssignmentError(f"object index {int(objs[bad[0]])} out of range")
        if np.any(reads < 0) or np.any(writes < 0):
            raise AssignmentError("share counts must be non-negative")
        order = np.lexsort((holders, procs, objs))
        procs, objs, holders = procs[order], objs[order], holders[order]
        reads, writes = reads[order], writes[order]
        starts = _run_starts(objs, procs, holders)
        if procs.size:
            reads = np.add.reduceat(reads, starts)
            writes = np.add.reduceat(writes, starts)
        procs, objs, holders = procs[starts], objs[starts], holders[starts]
        pairs = _run_starts(objs, procs)
        self._n_objects = int(n_objects)
        self._pair_procs = procs[pairs]
        self._pair_objs = objs[pairs]
        self._indptr = np.append(pairs, procs.size)
        self._holders = holders
        self._reads = reads
        self._writes = writes
        for column in (self._pair_procs, self._pair_objs, self._indptr, holders, reads, writes):
            column.flags.writeable = False
        self._lookup = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls,
        n_objects: int,
        procs,
        objs,
        holders,
        reads,
        writes,
    ) -> "RequestAssignment":
        """Build an assignment from flat share rows (one lexsort, one ``reduceat``).

        Row ``k`` says that ``holders[k]`` serves ``reads[k]`` reads and
        ``writes[k]`` writes of processor ``procs[k]`` to object ``objs[k]``.
        """
        assignment = cls.__new__(cls)
        assignment._install(n_objects, procs, objs, holders, reads, writes)
        return assignment

    @classmethod
    def nearest_copy(
        cls,
        network: HierarchicalBusNetwork,
        pattern: AccessPattern,
        placement: Placement,
    ) -> "RequestAssignment":
        """Assign every processor to the closest copy (ties: smallest id).

        This is the paper's convention for the nibble placement (Section 3.2:
        "the reference copy ``c(P, x)`` is the copy of ``x`` stored on the
        node closest to ``P``").
        """
        placement.validate_for(network, pattern)
        rooted = network.rooted()
        obj_idx, proc_idx = np.nonzero(pattern.totals.T)
        holders = np.empty_like(proc_idx)
        bounds = np.searchsorted(obj_idx, np.arange(pattern.n_objects + 1))
        for obj in range(pattern.n_objects):
            lo, hi = bounds[obj], bounds[obj + 1]
            if lo < hi:
                table = rooted.nearest_tables([placement.holders(obj)])[0]
                holders[lo:hi] = table[proc_idx[lo:hi]]
        return cls.from_rows(
            pattern.n_objects,
            proc_idx,
            obj_idx,
            holders,
            pattern.reads[proc_idx, obj_idx],
            pattern.writes[proc_idx, obj_idx],
        )

    @classmethod
    def single_reference(
        cls,
        pattern: AccessPattern,
        reference: Mapping[Tuple[int, int], int],
    ) -> "RequestAssignment":
        """Build an assignment from an explicit ``(processor, object) -> holder`` map."""
        obj_idx, proc_idx = np.nonzero(pattern.totals.T)
        holders: List[int] = []
        for proc, obj in zip(proc_idx.tolist(), obj_idx.tolist()):
            try:
                holders.append(reference[(proc, obj)])
            except KeyError:
                raise AssignmentError(
                    f"no reference copy given for processor {proc}, object {obj}"
                ) from None
        return cls.from_rows(
            pattern.n_objects,
            proc_idx,
            obj_idx,
            holders,
            pattern.reads[proc_idx, obj_idx],
            pattern.writes[proc_idx, obj_idx],
        )

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def n_objects(self) -> int:
        """Number of objects covered."""
        return self._n_objects

    def share_rows(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only columns ``(procs, objs, holders, reads, writes)``, one per share.

        Rows are grouped by pair, pairs sorted by object and then processor.
        """
        counts = np.diff(self._indptr)
        return (
            np.repeat(self._pair_procs, counts),
            np.repeat(self._pair_objs, counts),
            self._holders,
            self._reads,
            self._writes,
        )

    def _scalar_view(self):
        """``({(proc, obj): pair}, indptr, [(holder, reads, writes)])`` as
        Python objects, built on the first per-pair lookup."""
        if self._lookup is None:
            pairs = zip(self._pair_procs.tolist(), self._pair_objs.tolist())
            self._lookup = (
                {key: i for i, key in enumerate(pairs)},
                self._indptr.tolist(),
                list(zip(self._holders.tolist(), self._reads.tolist(), self._writes.tolist())),
            )
        return self._lookup

    def _shares_at(self, i: int) -> Tuple[Share, ...]:
        _pairs, indptr, rows = self._scalar_view()
        return tuple(Share(h, r, w) for h, r, w in rows[indptr[i] : indptr[i + 1]])

    def shares(self, proc: int, obj: int) -> Tuple[Share, ...]:
        """Shares of the (processor, object) pair (empty if no requests)."""
        i = self._scalar_view()[0].get((proc, obj))
        return () if i is None else self._shares_at(i)

    def items(self) -> List[Tuple[Tuple[int, int], Tuple[Share, ...]]]:
        """``((processor, object), shares)`` for every stored pair, by object
        and then processor."""
        return [(key, self._shares_at(i)) for key, i in self._scalar_view()[0].items()]

    def reference_copy(self, proc: int, obj: int) -> int:
        """The single reference copy of a pair (error if split across copies)."""
        entries = self.shares(proc, obj)
        if not entries:
            raise AssignmentError(f"processor {proc} has no requests to object {obj}")
        holders = {s.holder for s in entries}
        if len(holders) != 1:
            raise AssignmentError(
                f"requests of processor {proc} to object {obj} are split across "
                f"holders {sorted(holders)}"
            )
        return entries[0].holder

    def is_single_reference(self) -> bool:
        """True iff no (processor, object) pair is split across holders."""
        first = np.repeat(self._holders[self._indptr[:-1]], np.diff(self._indptr))
        return bool(np.all(self._holders == first))

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate_for(
        self,
        network: HierarchicalBusNetwork,
        pattern: AccessPattern,
        placement: Placement,
    ) -> None:
        """Check consistency of the assignment.

        * every pair with requests in the pattern has shares,
        * every stored pair's processor is a node of ``network`` and its
          shares sum to the pattern frequencies (zero for a pair without
          requests),
        * every share's holder is a holder of the object in ``placement``.

        The checks run over all pairs at once; the first failing pair in
        (object, processor) order is reported.
        """
        if pattern.n_objects != self._n_objects:
            raise AssignmentError("assignment and pattern cover different object counts")
        n_rows = pattern.n_nodes
        req_objs, req_procs = np.nonzero(pattern.totals.T)
        procs, objs = self._pair_procs, self._pair_objs
        failing: List[Tuple[int, int]] = []

        # requested pairs without shares
        rows = np.flatnonzero((procs >= 0) & (procs < n_rows))
        missing = np.flatnonzero(
            ~np.isin(req_objs * n_rows + req_procs, objs[rows] * n_rows + procs[rows])
        )
        if missing.size:
            failing.append((int(req_objs[missing[0]]), int(req_procs[missing[0]])))

        if procs.size:
            bad = (procs < 0) | (procs >= network.n_nodes)
            expect_reads = np.zeros(procs.size, dtype=np.int64)
            expect_writes = np.zeros(procs.size, dtype=np.int64)
            expect_reads[rows] = pattern.reads[procs[rows], objs[rows]]
            expect_writes[rows] = pattern.writes[procs[rows], objs[rows]]
            starts = self._indptr[:-1]
            bad |= np.add.reduceat(self._reads, starts) != expect_reads
            bad |= np.add.reduceat(self._writes, starts) != expect_writes
            bad |= np.logical_or.reduceat(
                ~self._holds(network, placement), starts
            )
            first = np.flatnonzero(bad)
            if first.size:
                failing.append((int(objs[first[0]]), int(procs[first[0]])))

        if failing:
            obj, proc = min(failing)
            raise AssignmentError(self._pair_error(network, pattern, placement, proc, obj))

    def _holds(self, network: HierarchicalBusNetwork, placement: Placement) -> np.ndarray:
        """Per share row: the holder is a network node holding the object."""
        n = network.n_nodes
        sizes = [len(hs) for hs in placement.all_holders()]
        held = np.fromiter(
            (h for hs in placement.all_holders() for h in hs),
            dtype=np.int64,
            count=sum(sizes),
        )
        held_objs = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        valid = (held >= 0) & (held < n)
        holders = self._holders
        row_objs = np.repeat(self._pair_objs, np.diff(self._indptr))
        ok = (holders >= 0) & (holders < n) & (row_objs < len(sizes))
        ok[ok] = np.isin(row_objs[ok] * n + holders[ok], held_objs[valid] * n + held[valid])
        return ok

    def _pair_error(
        self,
        network: HierarchicalBusNetwork,
        pattern: AccessPattern,
        placement: Placement,
        proc: int,
        obj: int,
    ) -> str:
        """The message of the first failed check of one pair."""
        entries = self.shares(proc, obj)
        if not entries:
            return f"processor {proc} requests object {obj} but has no shares"
        if proc not in network:
            return (
                f"shares for object {obj} are stored under processor {proc}, "
                "which is not a node of the network"
            )
        requested = (0, 0)
        if proc < pattern.n_nodes:
            requested = (pattern.reads_of(proc, obj), pattern.writes_of(proc, obj))
        if (sum(s.reads for s in entries), sum(s.writes for s in entries)) != requested:
            return (
                f"shares of processor {proc}, object {obj} do not sum to the "
                "pattern frequencies"
            )
        holders = placement.holders(obj)
        for s in entries:
            if s.holder not in holders:
                return (
                    f"share of processor {proc}, object {obj} uses holder "
                    f"{s.holder} which is not in P_x = {sorted(holders)}"
                )
            if s.holder not in network:
                return f"unknown holder node {s.holder}"
        raise AssertionError("validate_for flagged a pair that passes every check")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RequestAssignment(n_objects={self._n_objects}, "
            f"n_pairs={self._pair_procs.size})"
        )
