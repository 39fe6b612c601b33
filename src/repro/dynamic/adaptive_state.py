"""Array-backed counter substrate for adaptive placement strategies.

The adaptive strategies of :mod:`repro.dynamic.online` track, per shared
object, which processors hold a copy plus two saturating counters per
``(object, processor)`` pair: the *read credit* a non-holder has
accumulated towards earning a replica, and the *unread writes* a replica
has survived since it was last read.  The original implementation kept a
``dict``/``set`` triple per touched object; this module replaces it with
three flat arrays over the full ``(n_objects, n_nodes)`` grid plus a
per-object holder count:

* ``holder_mask`` -- boolean holder membership,
* ``read_credit`` / ``unread_writes`` -- int64 counters,
* ``n_holders`` -- per-object holder population (``0`` means the object
  has never been requested -- it materialises on first touch).

The array form is what makes the vectorized chunk path of
:class:`~repro.dynamic.online.EdgeCounterManager` possible: counters for
an ``(object, processor)`` pair only advance on requests to exactly that
pair, so scanning a chunk's counter evolution is cheap row arithmetic and
the next threshold crossing per object is computable up front.  It also
bounds memory by construction -- the footprint is a function of the
universe sizes, never of the stream length -- and :meth:`memory_bytes`
makes that auditable, matching the substrate-wide audit hooks of
``repro.core``.

**Exact-semantics contract.**  The counter scan of
:func:`repro.core.kernels.adaptive_scan` advances these arrays; every
transition mirrors the historical dict/set behaviour bit for bit (the
differential suites pin this against the scalar transitions kept in
``tests/scalar_oracle.py``):

* a processor *becoming* a holder (replication, migration) has both its
  counters reset;
* a processor *losing* its replica (invalidation) has its unread-write
  counter purged -- its read credit survives, exactly as the dict
  implementation kept ``read_credit`` entries across invalidations;
* migration wholesale-resets the unread-write row, matching the
  historical ``unread_writes = {proc: 0}``.

Those reset rules double as the hygiene invariant the soak tests pin:
``unread_writes`` is zero everywhere outside the holder mask, so the
counter state can never accumulate stale entries the way long-lived
per-object dicts could.
"""

from __future__ import annotations

from typing import List, Set

import numpy as np

from repro.errors import WorkloadError

__all__ = ["AdaptiveState"]


class AdaptiveState:
    """Flat counter state of one adaptive strategy instance.

    Parameters
    ----------
    n_objects:
        Size of the shared-object universe.
    n_nodes:
        Node-id range of the current network (holders are always
        processors, but rows are indexed by node id so lookups need no
        translation).
    """

    __slots__ = ("n_objects", "n_nodes", "holder_mask", "read_credit",
                 "unread_writes", "n_holders")

    def __init__(self, n_objects: int, n_nodes: int) -> None:
        if n_objects < 0 or n_nodes < 1:
            raise WorkloadError(
                f"invalid adaptive-state shape ({n_objects} objects, "
                f"{n_nodes} nodes)"
            )
        self.n_objects = int(n_objects)
        self.n_nodes = int(n_nodes)
        self.holder_mask = np.zeros((n_objects, n_nodes), dtype=bool)
        self.read_credit = np.zeros((n_objects, n_nodes), dtype=np.int64)
        self.unread_writes = np.zeros((n_objects, n_nodes), dtype=np.int64)
        self.n_holders = np.zeros(n_objects, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def touched(self, obj: int) -> bool:
        """True once the object has materialised (holds at least one copy)."""
        return bool(self.n_holders[obj])

    def holders_list(self, obj: int) -> List[int]:
        """Holder node ids of one object, ascending (= sorted)."""
        return np.flatnonzero(self.holder_mask[obj]).tolist()

    def holders_set(self, obj: int) -> Set[int]:
        """Holder node ids of one object as a set (inspection surface)."""
        return set(self.holders_list(obj))

    def memory_bytes(self) -> int:
        """Bytes held by the counter arrays (a function of the universe
        sizes only -- never of how many events have been served)."""
        return (
            self.holder_mask.nbytes
            + self.read_credit.nbytes
            + self.unread_writes.nbytes
            + self.n_holders.nbytes
        )

    # ------------------------------------------------------------------ #
    # topology churn
    # ------------------------------------------------------------------ #
    def grow(self, n_nodes: int) -> None:
        """Widen the node axis after attach/split churn (new ids append).

        The dict implementation absorbed new node ids implicitly; the
        dense arrays must widen explicitly, with zero columns for the new
        nodes (no copies, no credit).
        """
        if n_nodes < self.n_nodes:
            raise WorkloadError(
                f"cannot shrink adaptive state from {self.n_nodes} to "
                f"{n_nodes} nodes via grow(); use remap_detach()"
            )
        if n_nodes == self.n_nodes:
            return
        pad = n_nodes - self.n_nodes
        self.holder_mask = np.pad(self.holder_mask, ((0, 0), (0, pad)))
        self.read_credit = np.pad(self.read_credit, ((0, 0), (0, pad)))
        self.unread_writes = np.pad(self.unread_writes, ((0, 0), (0, pad)))
        self.n_nodes = int(n_nodes)

    def remap_detach(self, node_map, n_nodes: int) -> np.ndarray:
        """Renumber the node axis after a detach (``node_map[old] -> new``,
        ``-1`` for the removed node).

        Columns of surviving nodes are gathered into their new positions;
        the removed node's holder bit and counters are dropped, exactly as
        the dict remap discarded its entries.  Returns the (ascending)
        object ids that were materialised before the detach but lost
        their last copy with it -- the caller re-homes those via the
        nearest-copy rule.
        """
        nm = np.asarray(node_map, dtype=np.int64)
        keep = np.flatnonzero(nm >= 0)
        new_cols = nm[keep]

        mask = np.zeros((self.n_objects, n_nodes), dtype=bool)
        mask[:, new_cols] = self.holder_mask[:, keep]
        credit = np.zeros((self.n_objects, n_nodes), dtype=np.int64)
        credit[:, new_cols] = self.read_credit[:, keep]
        unread = np.zeros((self.n_objects, n_nodes), dtype=np.int64)
        unread[:, new_cols] = self.unread_writes[:, keep]

        was_touched = self.n_holders > 0
        self.holder_mask = mask
        self.read_credit = credit
        self.unread_writes = unread
        self.n_holders = mask.sum(axis=1, dtype=np.int64)
        self.n_nodes = int(n_nodes)
        return np.flatnonzero(was_touched & (self.n_holders == 0))

    def rehome(self, obj: int, home: int) -> None:
        """Re-home an orphaned object onto the survivor ``home``.

        Mirrors the historical detach path: the survivor simply becomes
        the holder -- its read credit is *not* purged (the dict code kept
        the entry), and its unread-write counter is already zero by the
        hygiene invariant.
        """
        self.holder_mask[obj, home] = True
        self.n_holders[obj] = 1
