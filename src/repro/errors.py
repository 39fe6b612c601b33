"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so that
callers can catch library errors without accidentally swallowing programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TopologyError",
    "NotATreeError",
    "InvalidNodeError",
    "InvalidEdgeError",
    "BandwidthError",
    "MutationError",
    "WorkloadError",
    "PlacementError",
    "AssignmentError",
    "AlgorithmError",
    "CapacityError",
    "InfeasibleError",
    "SimulationError",
    "SerializationError",
    "LabError",
    "FaultError",
    "InjectedFault",
]


class ReproError(Exception):
    """Base class for all exceptions raised by :mod:`repro`."""


class TopologyError(ReproError):
    """The network topology violates the hierarchical-bus-network model."""


class NotATreeError(TopologyError):
    """The supplied graph is not a tree (disconnected or contains a cycle)."""


class InvalidNodeError(TopologyError):
    """A node identifier does not exist or has the wrong kind."""


class InvalidEdgeError(TopologyError):
    """An edge does not exist in the network."""


class BandwidthError(TopologyError):
    """A bandwidth value is missing or not a positive number."""


class MutationError(TopologyError):
    """A topology mutation is invalid or was applied inconsistently.

    Raised when a mutation would break the hierarchical-bus-network model
    (e.g. detaching the last processor of a bus), when a churn trace is
    malformed, and when substrate state that cannot survive a mutation is
    used across one (e.g. rolling a :class:`repro.core.loadstate.LoadState`
    back to a snapshot taken before a topology mutation).
    """


class WorkloadError(ReproError):
    """An access pattern (read/write frequency matrix) is malformed."""


class PlacementError(ReproError):
    """A placement is malformed (empty holder set, holder on a bus, ...)."""


class AssignmentError(PlacementError):
    """A reference-copy assignment is inconsistent with the placement."""


class AlgorithmError(ReproError):
    """An algorithm reached a state that its analysis proves impossible.

    Raised, e.g., when the downwards phase of the mapping algorithm cannot
    find a free child edge -- Lemma 4.1 of the paper shows this cannot
    happen, so hitting this error indicates a bug or a malformed input.
    """


class CapacityError(ReproError):
    """A network exceeds the index capacity of the compiled substrate.

    The path/incidence substrate stores node ids, edge ids and lifting
    indices as int32 so that the CSR tables of 10^5-10^6-leaf networks fit
    in memory.  Constructing a substrate whose node count, edge count or
    total root-path entry count does not fit in int32 raises this error
    explicitly -- indices are never silently wrapped.
    """


class InfeasibleError(ReproError):
    """An exact solver determined that no feasible solution exists."""


class SimulationError(ReproError):
    """The distributed simulation engine was used inconsistently."""


class SerializationError(ReproError):
    """A serialized network or workload could not be decoded."""


class LabError(ReproError):
    """The experiment-lab run registry was used inconsistently.

    Raised when a registry index or artifact is malformed, when an entry
    required by a report is missing from the registry, and when
    ``run-missing`` jobs fail -- once, after every other entry of the
    sweep has run (a failed run is never registered, so a resumed sweep
    retries it).
    """


class FaultError(ReproError):
    """A fault-injection plan is malformed or was installed inconsistently."""


class InjectedFault(ReproError):
    """A deterministic fault fired at an instrumented fault point.

    Raised by the hooks of :mod:`repro.faults` to *simulate* a crash or a
    dropped connection.  It derives from :class:`ReproError` so generic
    library error handling stays safe, but robustness layers (the serving
    stack, the chaos tests) catch it explicitly to exercise their
    crash-recovery paths.  The message always carries the plan seed, the
    fault site and the hit index, so any chaos failure is replayable.
    """
