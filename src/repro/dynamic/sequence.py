"""Request sequences for the dynamic (online) data management model.

The paper studies the *static* problem (frequencies known in advance) and
discusses, in its related-work section, the *dynamic* model of [MMVW97] /
[MVW99] in which requests arrive online and the strategy may replicate,
migrate and invalidate copies while serving them.  This subpackage provides
the substrate to study that model on hierarchical bus networks:

* :class:`RequestEvent` / :class:`RequestSequence` -- an ordered sequence of
  read/write requests issued by processors;
* generators that interleave an :class:`~repro.workload.access.AccessPattern`
  into a sequence (stationary workloads) or switch between patterns
  (phase-changing workloads, where online adaptation pays off);
* :meth:`RequestSequence.to_pattern` -- the aggregate frequencies, used to
  compute the hindsight-static reference placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
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
    """An ordered sequence of requests over a fixed object universe."""

    __slots__ = ("_events", "_n_objects", "_arrays")

    def __init__(self, events: Sequence[RequestEvent], n_objects: int) -> None:
        self._events: Tuple[RequestEvent, ...] = tuple(events)
        if n_objects < 0:
            raise WorkloadError("n_objects must be non-negative")
        for ev in self._events:
            if not 0 <= ev.obj < n_objects:
                raise WorkloadError(f"event object {ev.obj} out of range")
        self._n_objects = int(n_objects)
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columnar view ``(processors, objects, is_write)`` of the events.

        Built once and cached; the batch replay mode of the online layer
        slices whole chunks out of these arrays instead of iterating the
        event objects.
        """
        if self._arrays is None:
            n = len(self._events)
            procs = np.empty(n, dtype=np.int64)
            objs = np.empty(n, dtype=np.int64)
            writes = np.zeros(n, dtype=bool)
            for i, ev in enumerate(self._events):
                procs[i] = ev.processor
                objs[i] = ev.obj
                writes[i] = ev.kind == WRITE
            self._arrays = (procs, objs, writes)
        return self._arrays

    @property
    def n_objects(self) -> int:
        """Number of shared objects referenced by the sequence."""
        return self._n_objects

    @property
    def events(self) -> Tuple[RequestEvent, ...]:
        """The events in order."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[RequestEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> RequestEvent:
        return self._events[index]

    def validate_for(self, network: HierarchicalBusNetwork) -> None:
        """Check that every request is issued by a processor of ``network``."""
        for ev in self._events:
            if ev.processor not in network or not network.is_processor(ev.processor):
                raise WorkloadError(
                    f"event issued by node {ev.processor}, which is not a processor"
                )

    def to_pattern(self, network: HierarchicalBusNetwork) -> AccessPattern:
        """Aggregate frequencies of the whole sequence (hindsight workload).

        One ``bincount`` per request kind over the cached columns.  Raises
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
        return RequestSequence(self._events[: max(0, length)], self._n_objects)

    def concatenated_with(self, other: "RequestSequence") -> "RequestSequence":
        """Concatenate two sequences over the same object universe."""
        if other.n_objects != self._n_objects:
            raise WorkloadError("sequences must share the object universe")
        return RequestSequence(self._events + other.events, self._n_objects)


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
    """
    gen = rng if rng is not None else np.random.default_rng(seed)
    pattern.validate_for(network)
    events: List[RequestEvent] = []
    for obj in range(pattern.n_objects):
        for proc in pattern.requesters(obj):
            events.extend(
                RequestEvent(proc, obj, READ) for _ in range(pattern.reads_of(proc, obj))
            )
            events.extend(
                RequestEvent(proc, obj, WRITE)
                for _ in range(pattern.writes_of(proc, obj))
            )
    order = gen.permutation(len(events))
    shuffled = [events[i] for i in order]
    return RequestSequence(shuffled, pattern.n_objects)


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
