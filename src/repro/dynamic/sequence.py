"""Request sequences for the dynamic (online) data management model.

The paper studies the *static* problem (frequencies known in advance) and
discusses, in its related-work section, the *dynamic* model of [MMVW97] /
[MVW99] in which requests arrive online and the strategy may replicate,
migrate and invalidate copies while serving them.  This subpackage provides
the substrate to study that model on hierarchical bus networks:

* :class:`RequestSequence` -- an ordered sequence of read/write requests
  issued by processors, stored as three columns; :class:`RequestEvent` is
  the one-request view of it;
* generators that interleave an :class:`~repro.workload.access.AccessPattern`
  into a sequence (stationary workloads) or switch between patterns
  (phase-changing workloads, where online adaptation pays off);
* :meth:`RequestSequence.to_pattern` -- the aggregate frequencies, used to
  compute the hindsight-static reference placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.network.node import NodeKind
from repro.network.tree import HierarchicalBusNetwork
from repro.workload.access import AccessPattern

__all__ = [
    "RequestEvent",
    "RequestSequence",
    "sequence_from_pattern",
    "phase_change_sequence",
]

READ = "read"
WRITE = "write"

# (processors, objects, is_write): int64, int64, bool
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class RequestEvent:
    """One read or write request issued by a processor."""

    processor: int
    obj: int
    kind: str  # "read" or "write"

    def __post_init__(self) -> None:
        if self.kind not in (READ, WRITE):
            raise WorkloadError(f"unknown request kind {self.kind!r}")

    @property
    def is_write(self) -> bool:
        """True for write requests."""
        return self.kind == WRITE

    @property
    def is_read(self) -> bool:
        """True for read requests."""
        return self.kind == READ


class RequestSequence:
    """An ordered sequence of requests over a fixed object universe.

    The requests are stored as three columns -- issuing processors and
    objects (``int64``) and the write flags (``bool``) -- which every fast
    path reads directly.  :class:`RequestEvent` objects exist only as views:
    ``events``, iteration and indexing build them on demand, for the scalar
    ``serve`` references and for tests.

    Build a sequence from events with ``RequestSequence(events, n_objects)``
    or from columns with :meth:`from_columns`.
    """

    __slots__ = ("_procs", "_objs", "_writes", "_n_objects")

    def __init__(
        self,
        events: Iterable[RequestEvent],
        n_objects: int,
        *,
        columns: Optional[Columns] = None,
    ) -> None:
        if columns is None:
            events = tuple(events)
            n = len(events)
            columns = (
                np.fromiter((ev.processor for ev in events), np.int64, n),
                np.fromiter((ev.obj for ev in events), np.int64, n),
                np.fromiter((ev.kind == WRITE for ev in events), bool, n),
            )
        if n_objects < 0:
            raise WorkloadError("n_objects must be non-negative")
        procs, objs, writes = columns
        procs = np.asarray(procs, dtype=np.int64)
        objs = np.asarray(objs, dtype=np.int64)
        writes = np.asarray(writes, dtype=bool)
        if not procs.ndim == 1 or not procs.shape == objs.shape == writes.shape:
            raise WorkloadError("request columns must be 1-d and of equal length")
        if objs.size and (objs.min() < 0 or objs.max() >= n_objects):
            bad = np.flatnonzero((objs < 0) | (objs >= n_objects))[0]
            raise WorkloadError(f"event object {int(objs[bad])} out of range")
        self._procs, self._objs, self._writes = procs, objs, writes
        self._n_objects = int(n_objects)

    @classmethod
    def from_columns(
        cls,
        procs: np.ndarray,
        objs: np.ndarray,
        is_write: np.ndarray,
        n_objects: int,
    ) -> "RequestSequence":
        """A sequence over the given ``(procs, objs, is_write)`` columns."""
        return cls((), n_objects, columns=(procs, objs, is_write))

    def as_arrays(self) -> Columns:
        """The columns ``(processors, objects, is_write)`` of the sequence."""
        return self._procs, self._objs, self._writes

    @property
    def n_objects(self) -> int:
        """Number of shared objects referenced by the sequence."""
        return self._n_objects

    def _views(self, index: slice) -> Tuple[RequestEvent, ...]:
        return tuple(
            RequestEvent(proc, obj, WRITE if write else READ)
            for proc, obj, write in zip(
                self._procs[index].tolist(),
                self._objs[index].tolist(),
                self._writes[index].tolist(),
            )
        )

    @property
    def events(self) -> Tuple[RequestEvent, ...]:
        """The events in order (built on each access)."""
        return self._views(slice(None))

    def __len__(self) -> int:
        return len(self._procs)

    def __iter__(self) -> Iterator[RequestEvent]:
        return iter(self.events)

    def __getitem__(self, index):
        """One event, or a tuple of events for a slice."""
        if isinstance(index, slice):
            return self._views(index)
        return RequestEvent(
            int(self._procs[index]),
            int(self._objs[index]),
            WRITE if self._writes[index] else READ,
        )

    def subsequence(self, start: int, stop: int) -> "RequestSequence":
        """The events ``start:stop`` as a new sequence (sharing the columns)."""
        window = slice(start, stop)
        return RequestSequence.from_columns(
            self._procs[window], self._objs[window], self._writes[window],
            self._n_objects,
        )

    def validate_for(self, network: HierarchicalBusNetwork) -> None:
        """Check that every request is issued by a processor of ``network``."""
        procs = self._procs
        inside = (procs >= 0) & (procs < network.n_nodes)
        bad = ~inside
        bad[inside] = network.node_kinds[procs[inside]] != NodeKind.PROCESSOR
        if bad.any():
            raise WorkloadError(
                f"event issued by node {int(procs[np.argmax(bad)])}, which is "
                "not a processor"
            )

    def to_pattern(self, network: HierarchicalBusNetwork) -> AccessPattern:
        """Aggregate frequencies of the whole sequence (hindsight workload).

        One ``bincount`` per request kind over the columns.  Raises
        :class:`~repro.errors.WorkloadError` for an event whose processor
        id is not a node of ``network``.
        """
        procs, objs, is_write = self.as_arrays()
        n_nodes, n_objects = network.n_nodes, self._n_objects
        outside = np.flatnonzero((procs < 0) | (procs >= n_nodes))
        if outside.size:
            raise WorkloadError(
                f"event issued by node {int(procs[outside[0]])}, which is not "
                "a node of the network"
            )
        cells = procs * n_objects + objs
        shape = (n_nodes, n_objects)
        size = n_nodes * n_objects
        reads = np.bincount(cells[~is_write], minlength=size).reshape(shape)
        writes = np.bincount(cells[is_write], minlength=size).reshape(shape)
        pattern = AccessPattern(reads, writes)
        pattern.validate_for(network)
        return pattern

    def prefix(self, length: int) -> "RequestSequence":
        """The first ``length`` events as a new sequence."""
        return self.subsequence(0, max(0, length))

    def concatenated_with(self, other: "RequestSequence") -> "RequestSequence":
        """Concatenate two sequences over the same object universe."""
        if other.n_objects != self._n_objects:
            raise WorkloadError("sequences must share the object universe")
        return RequestSequence.from_columns(
            *(np.concatenate(pair) for pair in zip(self.as_arrays(), other.as_arrays())),
            self._n_objects,
        )


def sequence_from_pattern(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> RequestSequence:
    """Interleave an access pattern into a uniformly shuffled request sequence.

    Every (processor, object) read/write frequency becomes that many
    individual events; the order is a uniformly random permutation, so the
    sequence is stationary and its aggregate equals the original pattern.
    Before the shuffle the events run by object, then processor ascending,
    reads before writes -- the permutation is applied to that order, which
    fixes the sequence a seed produces.
    """
    gen = rng if rng is not None else np.random.default_rng(seed)
    pattern.validate_for(network)
    # one cell per (object, node, kind) in that nesting order
    counts = np.stack([pattern.reads.T, pattern.writes.T], axis=-1).ravel()
    cells = np.flatnonzero(counts)
    repeats = counts[cells]
    n_cells_per_object = 2 * pattern.n_nodes
    procs = np.repeat((cells % n_cells_per_object) // 2, repeats)
    objs = np.repeat(cells // n_cells_per_object, repeats)
    writes = np.repeat(cells % 2 == 1, repeats)
    order = gen.permutation(procs.size)
    return RequestSequence.from_columns(
        procs[order], objs[order], writes[order], pattern.n_objects
    )


def phase_change_sequence(
    network: HierarchicalBusNetwork,
    patterns: Sequence[AccessPattern],
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> RequestSequence:
    """Concatenate several workload phases into one sequence.

    Each phase is shuffled internally but phases follow each other in order,
    modelling an application whose sharing behaviour changes over time -- the
    situation in which an adaptive online strategy can beat any single static
    placement.
    """
    if not patterns:
        raise WorkloadError("need at least one phase")
    n_objects = patterns[0].n_objects
    gen = rng if rng is not None else np.random.default_rng(seed)
    combined: Optional[RequestSequence] = None
    for pattern in patterns:
        if pattern.n_objects != n_objects:
            raise WorkloadError("all phases must share the object universe")
        phase = sequence_from_pattern(network, pattern, rng=gen)
        combined = phase if combined is None else combined.concatenated_with(phase)
    assert combined is not None
    return combined
