"""The formal strategy protocol the simulation kernel drives.

Any object exposing this surface can be replayed by the
:class:`~repro.sim.engine.SimulationEngine` -- the online strategies of
:mod:`repro.dynamic.online` implement it, and future scheduling/sharding
strategies plug in here without touching the kernel.  ``serve_chunk`` is
the one way events reach a strategy: the engine hands it every serve
span, one event or many.

**Fleet capability.**  A strategy *class* may additionally expose a
``serve_chunk_fleet(members, sequence, start, stop)`` classmethod: given
several instances of that class whose cost accounts sit on lanes of one
shared :class:`~repro.core.loadstate.StackedLoadState`, it serves the
chunk for all of them in one batched pass (shared aggregation and
edge-batch gathers, per-lane placement decisions).  It must produce
bit-for-bit the loads and cost units of calling each member's
``serve_chunk`` separately; the fleet engine calls ``serve_chunk`` on the
lane of a strategy without the hook.  Both the static managers and the
adaptive counter family of :mod:`repro.dynamic.online` implement the
hook.  :func:`fleet_groups` is the partitioning rule the engine uses.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Set, Tuple, runtime_checkable

from repro.errors import SimulationError

__all__ = ["PlacementStrategy", "validate_strategy", "fleet_groups"]

_REQUIRED_METHODS = ("serve_chunk", "apply_mutation", "holders")
_REQUIRED_ATTRS = ("network", "account")


@runtime_checkable
class PlacementStrategy(Protocol):
    """Structural protocol of a replayable data-management strategy.

    Attributes
    ----------
    network:
        The current :class:`~repro.network.tree.HierarchicalBusNetwork`
        (kept up to date across mutations by :meth:`apply_mutation`).
    account:
        The strategy's cost account; must expose the incremental
        :class:`~repro.core.loadstate.LoadState` as ``account.state`` and
        the derived ``congestion`` / ``total_load`` reads.
    """

    network: object
    account: object

    def serve_chunk(self, sequence, start: int, stop: int) -> None:
        """Serve ``sequence[start:stop]``, one event or many.

        Must produce bit-for-bit the loads of serving the same events one
        at a time, as the dynamic model defines (the scalar oracle of the
        test suite).
        """

    def apply_mutation(self, outcome) -> None:
        """Carry the strategy and its account over a topology mutation."""

    def holders(self, obj: int) -> Set[int]:
        """Current holder set of an object (inspection / tests)."""


def _implemented(method) -> bool:
    """A callable that is not an abstract stub."""
    return callable(method) and not getattr(method, "__isabstractmethod__", False)


def validate_strategy(strategy) -> None:
    """Raise :class:`~repro.errors.SimulationError` unless ``strategy``
    structurally implements :class:`PlacementStrategy`.

    A method marked abstract counts as missing, and so does an account
    without a ``state``: nothing could serve such a strategy, so it is
    refused before any event is served.
    """
    missing = [
        name
        for name in _REQUIRED_METHODS
        if not _implemented(getattr(strategy, name, None))
    ]
    missing += [name for name in _REQUIRED_ATTRS if not hasattr(strategy, name)]
    if hasattr(strategy, "account") and getattr(strategy.account, "state", None) is None:
        missing.append("account.state")
    if missing:
        raise SimulationError(
            f"{type(strategy).__name__} does not implement the "
            f"PlacementStrategy protocol: missing {', '.join(sorted(missing))}"
        )


def fleet_groups(
    strategies: Sequence[object],
) -> List[Tuple[Optional[type], List[object]]]:
    """Partition a strategy fleet into batched groups and singletons.

    Strategies whose class defines the ``serve_chunk_fleet`` hook are
    grouped by exact class (one batched call per class and serve span);
    every other strategy forms a ``(None, [strategy])`` entry served
    through its own ``serve_chunk``.  Group order follows first
    appearance, members keep fleet order -- the partition is deterministic
    so fleet replays are reproducible.
    """
    groups: List[Tuple[Optional[type], List[object]]] = []
    index: dict = {}
    for strategy in strategies:
        hook = getattr(type(strategy), "serve_chunk_fleet", None)
        if callable(hook):
            key = type(strategy)
            if key in index:
                groups[index[key]][1].append(strategy)
            else:
                index[key] = len(groups)
                groups.append((key, [strategy]))
        else:
            groups.append((None, [strategy]))
    return groups
