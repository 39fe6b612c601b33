"""Compiled kernel backends for the replay hot loops.

The replay stack funnels every hot loop -- the batched LCA walk, the CSR
path scatter, the pair-delta scatter, the bus fold, the fused load apply
and the running-max congestion rescan -- through the small set of kernel
operations in this module.  Each operation has two interchangeable
implementations:

``numpy``
    The vectorized reference (the pre-compiled-backend code of
    :mod:`repro.core.pathmatrix` / :mod:`repro.core.loadstate`, moved here
    verbatim as the ``_reference_*`` twins).  Always available.
``cc``
    A tiny C library embedded in this file, compiled on first use with the
    system C compiler (``cc``/``gcc``/``clang``) into a shared object that
    is cached on disk keyed by the source hash, and loaded via ctypes.
    Available wherever a C compiler is installed.  Its entry points take
    plain addresses (``ctypes.c_void_p``): every array argument is checked
    for dtype, C-contiguity and length by :func:`_address` before any C
    code runs, and the arrays of a load substrate are checked once per
    topology epoch (:class:`PairSubstrate`).

One op is fused: :func:`charge_pairs` makes a whole weighted pair charge
(LCA, pair deltas, path scatter, load apply, rescan and the booked cost)
in one C call.  Its numpy twin is the composition of the ``lca``,
``pair_scatter``, ``scatter_paths``, ``apply_column`` and ``rescan``
twins that ``LoadState.apply_pairs`` made before it existed.

Two ops are not load ops.  :func:`adaptive_scan` runs phase 1 of the
batched adaptive replay (``EdgeCounterManager.serve_chunk``) for every
object of a chunk in one C call.  Its numpy twin is the per-object Python
counter scan the manager ran before (:func:`_replay_positions`).
:func:`nearest_tables` resolves the nearest member of each candidate set
for every node of a rooted tree, in two sweeps over the tree per set;
every nearest-copy resolution of the placement pipeline and the
strategies goes through it (``RootedTree.nearest_tables``).  Its numpy
twin runs the same sweeps, vectorised per depth level.

Selection is controlled by the ``REPRO_BACKEND`` environment variable
(``cc`` | ``numpy`` | ``auto``, default ``auto``: cc if it builds, else
numpy).  With no C compiler on PATH, ``auto`` falls back to numpy
quietly; a compiler that is found but fails to build makes ``auto`` emit
one :class:`RuntimeWarning` naming it before falling back.  Requesting a
backend that is unavailable raises :class:`~repro.errors.AlgorithmError`
(with the build error, if there was one) instead of silently falling
back.  :func:`set_backend` / :func:`use_backend` override the
environment at runtime (used by the differential suite and the
compiled-vs-numpy benchmark gates).

**Compiled equals reference (ARCHITECTURE.md invariant 9).**  Every
compiled kernel is bit-for-bit equal to its numpy ``_reference_*`` twin,
not merely close: all charges of the cost model are integer-valued request
counts (invariant 2), so every float addition performed by these kernels
is exact in double precision and the order of additions cannot change the
result; congestion values are maxima over identical division results.
The differential suite (``tests/properties/test_kernel_differential.py``)
pins this down on the drawn cases of ``tests/fuzz.py``, and the compiled
library is built without ``-ffast-math`` so IEEE semantics are preserved.

Index dtypes: the substrate stores node ids, edge ids and lifting-table
entries as :data:`INDEX_DTYPE` (int32) so huge networks fit in memory;
:func:`ensure_index_capacity` guards the int32 range explicitly (raising
:class:`~repro.errors.CapacityError`, never wrapping).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from bisect import insort
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import AlgorithmError, CapacityError, InvalidNodeError, WorkloadError

__all__ = [
    "INDEX_DTYPE",
    "BACKENDS",
    "active_backend",
    "available_backends",
    "set_backend",
    "use_backend",
    "ensure_index_capacity",
    "aggregate_pairs",
    "lca",
    "scatter_paths",
    "pair_scatter",
    "pair_scatter_lanes",
    "bus_fold",
    "apply_column",
    "apply_columns_lanes",
    "rescan",
    "rescan_rows",
    "PairSubstrate",
    "charge_pairs",
    "adaptive_scan",
    "nearest_tables",
]

#: Narrowest safe index dtype of the substrate's CSR / lifting tables.
INDEX_DTYPE = np.int32

#: Recognised ``REPRO_BACKEND`` values, in auto-detection order.
BACKENDS = ("cc", "numpy")

_INT32_MAX = np.iinfo(np.int32).max
_INT64_MAX = np.iinfo(np.int64).max


def ensure_index_capacity(n_nodes: int, n_edges: int, path_entries: int) -> None:
    """Guard the int32 index range of the substrate tables, explicitly.

    Raises :class:`~repro.errors.CapacityError` when the node count, edge
    count or total root-path entry count of a network would overflow the
    int32 CSR / lifting tables -- indices are never silently wrapped.
    """
    for what, value in (
        ("node count", n_nodes),
        ("edge count", n_edges),
        ("root-path entry count", path_entries),
    ):
        if int(value) > _INT32_MAX:
            raise CapacityError(
                f"network {what} {int(value)} exceeds the int32 capacity "
                f"({_INT32_MAX}) of the path-incidence substrate; the "
                "int32 index tables would overflow (indices are never "
                "silently wrapped)"
            )


def _first_outside(n: int, ids: np.ndarray) -> Optional[int]:
    """The first id of ``ids`` outside ``[0, n)``, or None."""
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        return int(ids[(ids < 0) | (ids >= n)][0])
    return None


def _check_node_ids(n_nodes: int, *arrays: np.ndarray, what: str = "node id") -> None:
    """Raise :class:`~repro.errors.InvalidNodeError` naming the first id
    outside ``[0, n_nodes)`` in ``arrays`` (checked in order), so an index
    never reaches a C loop or wraps around in a numpy gather."""
    for ids in arrays:
        bad = _first_outside(n_nodes, ids)
        if bad is not None:
            raise InvalidNodeError(
                f"{what} {bad} is outside the network's {n_nodes} nodes"
            )


def _check_lane_ids(loads: np.ndarray, lanes: np.ndarray) -> None:
    """Raise :class:`~repro.errors.AlgorithmError` naming the first lane id
    outside the rows of a stacked ``loads`` array, before either backend
    reads or writes through it."""
    bad = _first_outside(loads.shape[0], lanes)
    if bad is not None:
        raise AlgorithmError(
            f"lane id {bad} is outside the load array's {loads.shape[0]} rows"
        )


# --------------------------------------------------------------------- #
# backend-independent aggregation
# --------------------------------------------------------------------- #
def aggregate_pairs(procs: np.ndarray, objs: np.ndarray):
    """Unique ``(processor, object)`` pairs with multiplicities, lex-sorted.

    Returns ``(uprocs, uobjs, counts)`` with the pairs sorted by processor
    then object -- exactly the column order of the historical
    ``np.unique(np.stack([procs, objs]), axis=1)`` aggregation, evaluated
    as one int64-key sort instead of numpy's slow void-dtype column
    comparison.  The speedup here is algorithmic, so this operation is
    deliberately **not** backend-dispatched: chunk aggregation behaves
    identically under every ``REPRO_BACKEND``.  The pre-encoding
    implementation is retained in ``tests/scalar_oracle.py`` and pinned by
    a differential test.
    """
    procs = np.asarray(procs, dtype=np.int64)
    objs = np.asarray(objs, dtype=np.int64)
    if procs.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    # object ids fit int32 (ensure_index_capacity) and so do processors,
    # hence proc * base + obj < 2**62: the key encoding cannot overflow.
    base = int(objs.max()) + 1
    key = procs * base + objs
    ukey, counts = np.unique(key, return_counts=True)
    return ukey // base, ukey % base, counts.astype(np.int64, copy=False)


# --------------------------------------------------------------------- #
# numpy reference implementations (the pre-backend vectorized code)
# --------------------------------------------------------------------- #
def _reference_lca(up, depth, u, v):
    """Binary-lifting LCA on flat int64 index arrays (clobbers ``u, v``)."""
    du = depth[u]
    dv = depth[v]
    diff = du - dv
    swap = diff < 0
    if np.any(swap):
        u[swap], v[swap] = v[swap], u[swap]
        diff = np.abs(diff)
    for k in range(up.shape[0]):
        sel = (diff >> k) & 1 == 1
        if np.any(sel):
            u[sel] = up[k][u[sel]]
    neq = u != v
    if np.any(neq):
        for k in range(up.shape[0] - 1, -1, -1):
            upu = up[k][u]
            upv = up[k][v]
            step = neq & (upu != upv)
            if np.any(step):
                u[step] = upu[step]
                v[step] = upv[step]
        u[neq] = up[0][u[neq]]
    return u


def _reference_scatter_paths(out, rp_edges, rp_nodes, rp_indptr, delta):
    np.add.at(out, rp_edges, delta[rp_nodes])


def _reference_pair_scatter(delta, u, v, anc, w):
    np.add.at(delta, u, w)
    np.add.at(delta, v, w)
    np.add.at(delta, anc, -2.0 * w)


def _reference_pair_scatter_lanes(delta, u, targets, anc, w):
    n_lanes = targets.shape[1]
    lanes = np.broadcast_to(np.arange(n_lanes, dtype=np.int64), targets.shape)
    srcs = np.broadcast_to(u[:, None], targets.shape)
    wcol = np.broadcast_to(w[:, None], targets.shape)
    np.add.at(delta, (srcs, lanes), wcol)
    np.add.at(delta, (targets, lanes), wcol)
    np.add.at(delta, (anc, lanes), -2.0 * wcol)


def _reference_bus_fold(out, edge_u, edge_v, is_bus, vec):
    np.add.at(out, edge_u, vec)
    np.add.at(out, edge_v, vec)
    out[~is_bus] = 0.0


def _reference_apply_column(loads, vec, edge_u, edge_v, is_bus, n_edges, sign):
    if sign >= 0:
        loads[:n_edges] += vec
    else:
        loads[:n_edges] -= vec
    bus2 = np.zeros(loads.size - n_edges, dtype=np.float64)
    np.add.at(bus2, edge_u, vec)
    np.add.at(bus2, edge_v, vec)
    bus2[~is_bus] = 0.0
    if sign >= 0:
        loads[n_edges:] += bus2
    else:
        loads[n_edges:] -= bus2
    return not bool(np.all(vec >= 0))


def _reference_apply_columns_lanes(loads, lanes, cols, edge_u, edge_v, is_bus, n_edges):
    loads[lanes, :n_edges] += cols.T
    bus2 = np.zeros((loads.shape[1] - n_edges, lanes.size), dtype=np.float64)
    np.add.at(bus2, edge_u, cols)
    np.add.at(bus2, edge_v, cols)
    bus2[~is_bus] = 0.0
    loads[lanes, n_edges:] += bus2.T
    return ~np.all(cols >= 0, axis=0)


def _reference_rescan(loads, denom):
    return float((loads / denom).max())


def _reference_rescan_rows(loads, rows, denom):
    return (loads[rows] / denom).max(axis=1)


def _bad_pair_error(u, v, i: int, n_nodes: int) -> InvalidNodeError:
    return InvalidNodeError(
        f"pair {i} ({int(u[i])} -> {int(v[i])}) holds a node id outside the "
        f"network's {n_nodes} nodes; nothing was charged"
    )


def _reference_charge_pairs(sub, u, v, w, congestion, stale, col):
    # the range check the C op makes before writing; the rest is the
    # composition LoadState.apply_pairs made before the fused op existed
    bad = (u < 0) | (u >= sub.n_nodes) | (v < 0) | (v >= sub.n_nodes)
    if bad.any():
        raise _bad_pair_error(u, v, int(np.argmax(bad)), sub.n_nodes)
    anc = _reference_lca(sub.up, sub.depth, u.copy(), v.copy())
    delta = np.zeros(sub.n_nodes, dtype=np.float64)
    _reference_pair_scatter(delta, u, v, anc, w)
    vec = np.zeros(sub.n_edges, dtype=np.float64) if col is None else col
    vec[:] = 0.0
    if sub.rp_edges.size:
        _reference_scatter_paths(vec, sub.rp_edges, sub.rp_nodes, sub.rp_indptr, delta)
    negative = _reference_apply_column(
        sub.loads, vec, sub.edge_u, sub.edge_v, sub.is_bus, sub.n_edges, 1.0
    )
    if not stale:
        if not negative:
            value = _reference_rescan(sub.loads, sub.denom)
            if value > congestion:
                congestion = value
        else:
            stale = True
    depth = sub.depth
    cost = float((depth[u] + depth[v] - 2 * depth[anc]) @ w)
    return cost, congestion, stale


def _first_scan_error(holder_mask, n_holders, procs, objs, order):
    """The error of the first bad entry of an adaptive scan's CSR, or
    ``None``: the checks the C op makes, entry by entry, before it writes
    anything (so both backends raise the same error)."""
    n_objects, n_nodes = holder_mask.shape
    m = order.size
    procs_l, objs_l = procs.tolist(), objs.tolist()
    prev = None
    for t, i in enumerate(order.tolist()):
        if not 0 <= i < m:
            return WorkloadError(
                f"adaptive scan: order[{t}] = {i} is not a position of the "
                f"{m}-event chunk; nothing was scanned"
            )
        obj, proc = objs_l[i], procs_l[i]
        if not 0 <= obj < n_objects:
            return WorkloadError(
                f"adaptive scan: event {i} requests object {obj} outside the "
                f"{n_objects} objects; nothing was scanned"
            )
        if not 0 <= proc < n_nodes:
            return InvalidNodeError(
                f"adaptive scan: event {i} comes from node {proc} outside the "
                f"network's {n_nodes} nodes; nothing was scanned"
            )
        if prev is not None and (obj, i) <= prev:
            return WorkloadError(
                f"adaptive scan: order[{t}] = {i} breaks the stable object "
                "order (order must be a stable argsort of the chunk "
                "objects); nothing was scanned"
            )
        if (prev is None or obj != prev[0]) and n_holders[obj] \
                and not holder_mask[obj].any():
            return WorkloadError(
                f"adaptive scan: object {obj} counts {int(n_holders[obj])} "
                "holders but its holder mask row is empty; nothing was scanned"
            )
        prev = (obj, i)
    return None


def _nearest_holder(up, depth, p: int, holders: List[int]) -> int:
    """Nearest holder of ``p``, ties to the smallest id (``holders`` is
    ascending): the rule of ``RootedTree.nearest_in_set``."""
    hs = np.asarray(holders, dtype=np.int64)
    anc = _reference_lca(up, depth, np.full(hs.size, p, dtype=np.int64), hs.copy())
    return holders[int(np.argmin(depth[hs] - 2 * depth[anc]))]


def _replay_positions(obj, lo, hi, order, procs, writes, holder_mask,
                      read_credit, unread_writes, n_holders, nearest,
                      thresholds, runs, mgmt_direct, mgmt_rep) -> None:
    """Phase 1 of the batched replay for one object: advance its counters
    over its chunk positions ``order[lo:hi]``, applying every adaptation
    decision.

    Adaptation is a pure function of the per-object counters -- never
    of the accumulated loads -- so one object's whole decision cascade
    can run ahead of any charging.  The scan appends one record per
    maximal static run to ``runs`` (``(obj, holders, a, b, writes)``
    with ``holders`` the ascending holder tuple in force over the
    positions ``order[a:b]``, the terminal adaptation event included: its
    own service traffic is charged against the pre-transition holders,
    exactly as the scalar ``serve`` charges before it adapts) and one
    record per copy movement to ``mgmt_direct`` (migrations -- ``(source
    holder, target)``) or ``mgmt_rep`` (replications -- ``(holders,
    target)``, the source being the nearest pre-crossing copy, resolved
    against the bulk-built tables in phase 2).  Counters are mirrored
    into plain lists for the scan (NumPy scalar indexing would dominate
    an all-Python loop) and written back once.
    """
    if n_holders[obj]:
        holders = np.flatnonzero(holder_mask[obj]).tolist()
        changed = False
    else:
        # first touch: the object materialises on its first requester;
        # that event never adapts (sole holder, zero-length charges)
        holders = [procs[order[lo]]]
        changed = True
    hset = set(holders)
    credit = read_credit[obj].tolist()
    unread = unread_writes[obj].tolist()
    replicate_at, migrate_at, patience = thresholds
    memo: Dict[int, int] = {}  # non-holder writer -> nearest, per run
    run_start = lo
    wcount = 0
    for t in range(lo, hi):
        i = order[t]
        p = procs[i]
        if writes[i]:
            wcount += 1
            if p in hset:
                wh = p
            elif len(holders) == 1:
                wh = holders[0]
            else:
                wh = memo.get(p)
                if wh is None:
                    wh = nearest(p, holders)
                    memo[p] = wh
            if len(holders) > 1:
                # age replicas exactly like the scalar path: the stale
                # test reads pre-update counters, then every non-writer
                # replica ages (drops re-zero the stale ones)
                stale = [h for h in holders
                         if h != wh and unread[h] + 1 >= patience]
                for h in holders:
                    unread[h] = 0 if h == wh else unread[h] + 1
                if stale:
                    runs.append((obj, tuple(holders), run_start,
                                 t + 1, wcount))
                    for h in stale:
                        holders.remove(h)
                        hset.discard(h)
                        unread[h] = 0
                    if len(holders) == 1 and p not in hset:
                        c = credit[p] + 1
                        if c >= migrate_at:
                            old = holders[0]
                            mgmt_direct.append((old, p))
                            unread[old] = 0
                            holders = [p]
                            hset = {p}
                            unread[p] = 0
                            credit[p] = 0
                        else:
                            credit[p] = c
                    run_start = t + 1
                    wcount = 0
                    memo.clear()
                    changed = True
            else:
                unread[wh] = 0
                if p not in hset:
                    c = credit[p] + 1
                    if c >= migrate_at:
                        # the lonely copy follows the persistent writer
                        runs.append((obj, (wh,), run_start,
                                     t + 1, wcount))
                        mgmt_direct.append((wh, p))
                        holders = [p]
                        hset = {p}
                        unread[p] = 0
                        credit[p] = 0
                        run_start = t + 1
                        wcount = 0
                        memo.clear()
                        changed = True
                    else:
                        credit[p] = c
        else:
            if p in hset:
                unread[p] = 0
            else:
                c = credit[p] + 1
                if c >= replicate_at:
                    pre = tuple(holders)
                    runs.append((obj, pre, run_start, t + 1, wcount))
                    mgmt_rep.append((pre, p))
                    insort(holders, p)
                    hset.add(p)
                    unread[p] = 0
                    credit[p] = 0
                    run_start = t + 1
                    wcount = 0
                    memo.clear()
                    changed = True
                else:
                    credit[p] = c
    if hi > run_start:
        runs.append((obj, tuple(holders), run_start, hi, wcount))
    read_credit[obj] = credit
    unread_writes[obj] = unread
    if changed:
        row = holder_mask[obj]
        row[:] = False
        row[holders] = True
        n_holders[obj] = len(holders)


def _reference_adaptive_scan(holder_mask, read_credit, unread_writes,
                             n_holders, up, depth, procs, writes, objs,
                             order, replicate_at, migrate_at, patience):
    error = _first_scan_error(holder_mask, n_holders, procs, objs, order)
    if error is not None:
        raise error
    runs: List[tuple] = []
    mgmt_direct: List[tuple] = []
    mgmt_rep: List[tuple] = []
    if not order.size:
        return runs, mgmt_direct, mgmt_rep
    sorted_objs = objs[order]
    bounds = np.flatnonzero(sorted_objs[1:] != sorted_objs[:-1]) + 1
    bounds = [0, *bounds.tolist(), order.size]
    order_l, procs_l, writes_l = order.tolist(), procs.tolist(), writes.tolist()
    thresholds = (replicate_at, migrate_at, patience)

    def nearest(p, holders):
        return _nearest_holder(up, depth, p, holders)

    for lo, hi in zip(bounds, bounds[1:]):
        _replay_positions(int(sorted_objs[lo]), lo, hi, order_l, procs_l,
                          writes_l, holder_mask, read_credit, unread_writes,
                          n_holders, nearest, thresholds, runs, mgmt_direct,
                          mgmt_rep)
    return runs, mgmt_direct, mgmt_rep


#: Table entries per block of sets in the numpy nearest-table sweeps: bounds
#: their per-level scratch to a few hundred KiB next to the table itself.
_NEAREST_BLOCK = 1 << 15


def _reference_nearest_tables(parent, order, depth, indptr, members):
    # the two sweeps of repro_nearest_tables over depth levels instead of
    # the topological order (a minimum does not depend on the visit order);
    # nodes sorted by depth, then parent, put the children of one parent
    # in one reduceat segment of their level
    n, n_sets = parent.size, indptr.size - 1
    keys = np.full((n_sets, n), n * n, dtype=np.int64)
    keys[np.repeat(np.arange(n_sets), np.diff(indptr)), members] = members
    by_level = np.lexsort((parent, depth))
    bounds = np.searchsorted(depth[by_level], np.arange(int(depth.max()) + 2))
    levels = []
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        nodes = by_level[lo:hi]
        par = parent[nodes]
        starts = np.flatnonzero(np.r_[True, par[1:] != par[:-1]])
        levels.append((nodes, par, starts, par[starts]))
    block = max(1, _NEAREST_BLOCK // n)
    for lo in range(0, n_sets, block):
        rows = keys[lo:lo + block]
        for nodes, _par, starts, heads in reversed(levels):  # bottom-up
            best = np.minimum.reduceat(rows[:, nodes], starts, axis=1)
            best += n
            np.minimum(best, rows[:, heads], out=best)
            rows[:, heads] = best
        for nodes, par, _starts, _heads in levels:  # top-down
            via = rows[:, par]
            via += n
            np.minimum(via, rows[:, nodes], out=via)
            rows[:, nodes] = via
    np.remainder(keys, n, out=keys)
    return keys


_NUMPY_OPS: Dict[str, Callable] = {
    "lca": _reference_lca,
    "scatter_paths": _reference_scatter_paths,
    "pair_scatter": _reference_pair_scatter,
    "pair_scatter_lanes": _reference_pair_scatter_lanes,
    "bus_fold": _reference_bus_fold,
    "apply_column": _reference_apply_column,
    "apply_columns_lanes": _reference_apply_columns_lanes,
    "rescan": _reference_rescan,
    "rescan_rows": _reference_rescan_rows,
    "charge_pairs": _reference_charge_pairs,
    "adaptive_scan": _reference_adaptive_scan,
    "nearest_tables": _reference_nearest_tables,
}


# --------------------------------------------------------------------- #
# raw-pointer arguments, checked once
# --------------------------------------------------------------------- #
_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)
_I32 = np.dtype(np.int32)
_BOOL = np.dtype(np.bool_)
_BYTE = ctypes.c_char


def _address(arr, dtype: np.dtype, n: int, what: str) -> int:
    """Address of one array argument of a cc op, checked first.

    The cc ops are bound with plain addresses (``ctypes.c_void_p``), which
    ctypes passes unchecked, so every array goes through here before any
    C code runs: it must be a C-contiguous ndarray of exactly ``dtype``
    with at least ``n`` entries, or :class:`TypeError` is raised.
    """
    if not (
        isinstance(arr, np.ndarray)
        and arr.dtype == dtype
        and arr.flags.c_contiguous
        and arr.size >= n
    ):
        got = (
            f"{arr.dtype} array of shape {arr.shape}"
            + ("" if arr.flags.c_contiguous else " (not C-contiguous)")
            if isinstance(arr, np.ndarray)
            else type(arr).__name__
        )
        raise TypeError(
            f"kernel argument {what}: expected a C-contiguous {dtype} array "
            f"of at least {n} entries, got {got}"
        )
    try:
        # several times cheaper than arr.ctypes.data, which builds a
        # helper object on every call
        return ctypes.addressof(_BYTE.from_buffer(arr))
    except (TypeError, ValueError):  # read-only or empty buffer
        return arr.ctypes.data


class PairSubstrate:
    """What one fused pair charge reads and writes, checked once.

    Built for one load row: ``up`` is the ``(levels, n)`` lifting table,
    ``loads`` the fused ``n_edges + n`` row that the charges go into and
    ``denom`` its relative-load denominators.  A load stack keeps one per
    row until its topology changes
    (``StackedLoadState._pair_substrate``), so the dtype, contiguity and
    length checks of these arrays (:class:`TypeError`, like every cc
    argument check) and their address lookups run once per topology
    epoch, not once per charge.  The numpy twin reads the arrays; the cc
    op takes ``c_args``, their addresses and sizes, as its leading
    arguments and writes its ``(cost, congestion, stale)`` into ``out``,
    so one substrate serves one thread at a time.
    """

    __slots__ = (
        "up",
        "depth",
        "rp_edges",
        "rp_nodes",
        "rp_indptr",
        "edge_u",
        "edge_v",
        "is_bus",
        "denom",
        "loads",
        "n_nodes",
        "n_edges",
        "out",
        "c_args",
    )

    def __init__(self, up, depth, rp_edges, rp_nodes, rp_indptr, edge_u,
                 edge_v, is_bus, denom, loads) -> None:
        levels, n = up.shape
        n_edges = edge_u.size
        width = n_edges + n
        indptr_address = _address(rp_indptr, _I64, n + 1, "rp_indptr")
        self.up, self.depth = up, depth
        self.rp_edges, self.rp_nodes, self.rp_indptr = rp_edges, rp_nodes, rp_indptr
        self.edge_u, self.edge_v, self.is_bus = edge_u, edge_v, is_bus
        self.denom, self.loads = denom, loads
        self.n_nodes, self.n_edges = n, n_edges
        self.out = np.zeros(3, dtype=np.float64)
        self.c_args = (
            _address(up, _I32, levels * n, "up"),
            levels,
            n,
            _address(depth, _I64, n, "depth"),
            _address(rp_edges, _I32, int(rp_indptr[n]), "rp_edges"),
            indptr_address,
            _address(edge_u, _I32, n_edges, "edge_u"),
            _address(edge_v, _I32, n_edges, "edge_v"),
            _address(is_bus, _BOOL, n, "is_bus"),
            _address(denom, _F64, width, "denom"),
            n_edges,
            _address(loads, _F64, width, "loads"),
            _address(self.out, _F64, 3, "out"),
        )


# --------------------------------------------------------------------- #
# cc backend: embedded C source, compiled once and cached by source hash
# --------------------------------------------------------------------- #
# No -ffast-math anywhere: additions must keep IEEE semantics so the
# integer-exactness argument of invariant 9 carries over unchanged.
_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

static int64_t repro_lca_one(const int32_t *up, int64_t levels, int64_t n,
                             const int64_t *depth, int64_t a, int64_t b)
{
    int64_t k;
    int64_t da = depth[a], db = depth[b];
    int64_t diff;
    if (da < db) {
        int64_t t = a; a = b; b = t;
        t = da; da = db; db = t;
    }
    diff = da - db;
    for (k = 0; diff != 0; k++, diff >>= 1) {
        if (diff & 1)
            a = up[k * n + a];
    }
    if (a != b) {
        for (k = levels - 1; k >= 0; k--) {
            int32_t ua = up[k * n + a], ub = up[k * n + b];
            if (ua != ub) { a = ua; b = ub; }
        }
        a = up[a];
    }
    return a;
}

void repro_lca(const int32_t *up, int64_t levels, int64_t n,
               const int64_t *depth, const int64_t *u, const int64_t *v,
               int64_t m, int64_t *out)
{
    int64_t i;
    for (i = 0; i < m; i++)
        out[i] = repro_lca_one(up, levels, n, depth, u[i], v[i]);
}

/* Zero-skip CSR scatter.  Nodes whose delta is (+/-)0.0 are skipped
 * entirely: x + 0.0 == x bitwise unless x is -0.0, and the substrate's
 * accumulators start at +0.0 and only ever receive IEEE additions, which
 * can never produce -0.0 from a +0.0 start ((+0)+(-0) rounds to +0).
 * Skipping therefore preserves bit-for-bit equality with the reference
 * full-table scatter while making sparse-delta scatters (the replay
 * inner loop) active-path-bound instead of CSR-size-bound. */
void repro_scatter_paths(double *out, const int32_t *rp_edges,
                         const int64_t *rp_indptr, const double *delta,
                         int64_t n_nodes)
{
    int64_t v, t;
    for (v = 0; v < n_nodes; v++) {
        double d = delta[v];
        if (d != 0.0) {
            int64_t end = rp_indptr[v + 1];
            for (t = rp_indptr[v]; t < end; t++)
                out[rp_edges[t]] += d;
        }
    }
}

void repro_scatter_paths_cols(double *out, const int32_t *rp_edges,
                              const int64_t *rp_indptr, const double *delta,
                              int64_t n_nodes, int64_t ncols)
{
    int64_t v, t, c;
    for (v = 0; v < n_nodes; v++) {
        const double *d = delta + v * ncols;
        int nonzero = 0;
        for (c = 0; c < ncols; c++)
            if (d[c] != 0.0) { nonzero = 1; break; }
        if (nonzero) {
            int64_t end = rp_indptr[v + 1];
            for (t = rp_indptr[v]; t < end; t++) {
                double *o = out + (int64_t)rp_edges[t] * ncols;
                for (c = 0; c < ncols; c++)
                    o[c] += d[c];
            }
        }
    }
}

void repro_pair_scatter(double *delta, const int64_t *u, const int64_t *v,
                        const int64_t *anc, const double *w, int64_t m)
{
    int64_t i;
    for (i = 0; i < m; i++) {
        delta[u[i]] += w[i];
        delta[v[i]] += w[i];
        delta[anc[i]] -= 2.0 * w[i];
    }
}

void repro_pair_scatter_lanes(double *delta, const int64_t *u,
                              const int64_t *targets, const int64_t *anc,
                              const double *w, int64_t m, int64_t lanes)
{
    int64_t i, k;
    for (i = 0; i < m; i++) {
        double wi = w[i], w2 = 2.0 * wi;
        double *du = delta + u[i] * lanes;
        const int64_t *trow = targets + i * lanes;
        const int64_t *arow = anc + i * lanes;
        for (k = 0; k < lanes; k++) {
            du[k] += wi;
            delta[trow[k] * lanes + k] += wi;
            delta[arow[k] * lanes + k] -= w2;
        }
    }
}

void repro_bus_fold(double *out, const int32_t *edge_u, const int32_t *edge_v,
                    const uint8_t *is_bus, const double *vec,
                    int64_t n_edges, int64_t n_nodes)
{
    int64_t e, i;
    for (e = 0; e < n_edges; e++) {
        out[edge_u[e]] += vec[e];
        out[edge_v[e]] += vec[e];
    }
    for (i = 0; i < n_nodes; i++)
        if (!is_bus[i])
            out[i] = 0.0;
}

void repro_bus_fold_cols(double *out, const int32_t *edge_u,
                         const int32_t *edge_v, const uint8_t *is_bus,
                         const double *cols, int64_t n_edges,
                         int64_t n_nodes, int64_t ncols)
{
    int64_t e, i, c;
    for (e = 0; e < n_edges; e++) {
        const double *row = cols + e * ncols;
        double *bu = out + (int64_t)edge_u[e] * ncols;
        double *bv = out + (int64_t)edge_v[e] * ncols;
        for (c = 0; c < ncols; c++) {
            bu[c] += row[c];
            bv[c] += row[c];
        }
    }
    for (i = 0; i < n_nodes; i++)
        if (!is_bus[i])
            for (c = 0; c < ncols; c++)
                out[i * ncols + c] = 0.0;
}

int32_t repro_apply_column(double *loads, const double *vec,
                           const int32_t *edge_u, const int32_t *edge_v,
                           const uint8_t *is_bus, int64_t n_edges,
                           double sign)
{
    /* x == 0.0 entries are skipped: the fused accumulator starts at +0.0
     * and IEEE add/sub chains cannot produce -0.0 there, so adding or
     * subtracting a (+/-)0.0 is an exact no-op (the zero-skip argument of
     * repro_scatter_paths); the flag is unchanged because (+/-)0.0 >= 0. */
    int64_t e;
    int32_t any_neg = 0;
    double *node_block = loads + n_edges;
    if (sign >= 0.0) {
        for (e = 0; e < n_edges; e++) {
            double x = vec[e];
            if (!(x >= 0.0))
                any_neg = 1;
            if (x != 0.0) {
                loads[e] += x;
                if (is_bus[edge_u[e]]) node_block[edge_u[e]] += x;
                if (is_bus[edge_v[e]]) node_block[edge_v[e]] += x;
            }
        }
    } else {
        for (e = 0; e < n_edges; e++) {
            double x = vec[e];
            if (!(x >= 0.0))
                any_neg = 1;
            if (x != 0.0) {
                loads[e] -= x;
                if (is_bus[edge_u[e]]) node_block[edge_u[e]] -= x;
                if (is_bus[edge_v[e]]) node_block[edge_v[e]] -= x;
            }
        }
    }
    return any_neg;
}

void repro_apply_columns_lanes(double *loads, int64_t row_len,
                               const int64_t *lanes, int64_t n_lanes,
                               const double *cols, const int32_t *edge_u,
                               const int32_t *edge_v, const uint8_t *is_bus,
                               int64_t n_edges, uint8_t *neg_out)
{
    int64_t j, e;
    for (j = 0; j < n_lanes; j++) {
        double *row = loads + lanes[j] * row_len;
        double *node_block = row + n_edges;
        uint8_t neg = 0;
        for (e = 0; e < n_edges; e++) {
            double x = cols[e * n_lanes + j];
            if (!(x >= 0.0))
                neg = 1;
            row[e] += x;
            if (is_bus[edge_u[e]]) node_block[edge_u[e]] += x;
            if (is_bus[edge_v[e]]) node_block[edge_v[e]] += x;
        }
        neg_out[j] = neg;
    }
}

/* Four running maxima break the loop-carried dependence so the divisions
 * vectorize; a maximum is an exact selection over the same quotient set,
 * so the lane split cannot change the (non-NaN) result. */
static double repro_rescan_one(const double *loads, const double *denom,
                               int64_t n)
{
    int64_t i;
    double b0 = loads[0] / denom[0], b1 = b0, b2 = b0, b3 = b0;
    for (i = 1; i + 3 < n; i += 4) {
        double v0 = loads[i] / denom[i];
        double v1 = loads[i + 1] / denom[i + 1];
        double v2 = loads[i + 2] / denom[i + 2];
        double v3 = loads[i + 3] / denom[i + 3];
        if (v0 > b0) b0 = v0;
        if (v1 > b1) b1 = v1;
        if (v2 > b2) b2 = v2;
        if (v3 > b3) b3 = v3;
    }
    for (; i < n; i++) {
        double v = loads[i] / denom[i];
        if (v > b0) b0 = v;
    }
    if (b1 > b0) b0 = b1;
    if (b2 > b0) b0 = b2;
    if (b3 > b0) b0 = b3;
    return b0;
}

double repro_rescan(const double *loads, const double *denom, int64_t n)
{
    return repro_rescan_one(loads, denom, n);
}

void repro_rescan_rows(const double *loads, int64_t row_len,
                       const int64_t *rows, int64_t n_rows,
                       const double *denom, double *out)
{
    int64_t j;
    for (j = 0; j < n_rows; j++)
        out[j] = repro_rescan_one(loads + rows[j] * row_len, denom, row_len);
}

/* One whole weighted pair charge of a fused load row: LCA per pair, pair
 * node deltas, zero-skip CSR path scatter into the per-edge column, fused
 * edge + bus apply, and LoadState.apply_edge_loads' congestion rule (a
 * full rescan only when the row is clean and no column entry is
 * negative, else the row turns stale).  Every node id is range-checked
 * before anything is written.  Returns -1 with out = {cost, congestion,
 * stale}, where cost is sum_i w[i] * dist(u[i], v[i]); the index of the
 * first pair holding an id outside [0, n_nodes); or -2 when the scratch
 * allocation fails.  col (n_edges entries) receives the charged column;
 * NULL means private scratch. */
int64_t repro_charge_pairs(const int32_t *up, int64_t levels, int64_t n_nodes,
                           const int64_t *depth, const int32_t *rp_edges,
                           const int64_t *rp_indptr, const int32_t *edge_u,
                           const int32_t *edge_v, const uint8_t *is_bus,
                           const double *denom, int64_t n_edges,
                           double *loads, double *out, const int64_t *u,
                           const int64_t *v, const double *w, int64_t m,
                           double congestion, int32_t stale, double *col)
{
    int64_t i;
    double cost = 0.0;
    double *delta, *vec = col;
    for (i = 0; i < m; i++)
        if (u[i] < 0 || u[i] >= n_nodes || v[i] < 0 || v[i] >= n_nodes)
            return i;
    delta = calloc((size_t)n_nodes + 1, sizeof(double));
    if (vec == NULL)
        vec = calloc((size_t)n_edges + 1, sizeof(double));
    else
        memset(vec, 0, (size_t)n_edges * sizeof(double));
    if (delta == NULL || vec == NULL) {
        free(delta);
        if (col == NULL)
            free(vec);
        return -2;
    }
    for (i = 0; i < m; i++) {
        int64_t a = repro_lca_one(up, levels, n_nodes, depth, u[i], v[i]);
        delta[u[i]] += w[i];
        delta[v[i]] += w[i];
        delta[a] -= 2.0 * w[i];
        cost += w[i] * (double)(depth[u[i]] + depth[v[i]] - 2 * depth[a]);
    }
    repro_scatter_paths(vec, rp_edges, rp_indptr, delta, n_nodes);
    if (repro_apply_column(loads, vec, edge_u, edge_v, is_bus, n_edges, 1.0)) {
        stale = 1;
    } else if (!stale) {
        double value = repro_rescan_one(loads, denom, n_edges + n_nodes);
        if (value > congestion)
            congestion = value;
    }
    free(delta);
    if (col == NULL)
        free(vec);
    out[0] = cost;
    out[1] = congestion;
    out[2] = (double)stale;
    return -1;
}

/* Nearest candidate of every node of a rooted tree, one out row of n
 * entries per candidate set of the CSR (indptr, members), ties to the
 * smallest id: the rule of RootedTree.nearest_in_set.  A node's key for a
 * candidate is dist * n + candidate, so one integer minimum compares the
 * distance first and the id second.  Sweeping the topological order
 * backwards, each parent takes its best child one hop further (the best
 * candidate of its subtree); sweeping it forwards, each node takes its
 * parent's best one hop further.  Keys start at n * n, above every real
 * key, and reach at most n * (n + 1): the caller guards that against
 * int64 overflow, and checks every member against [0, n). */
void repro_nearest_tables(const int64_t *parent, const int64_t *order,
                          int64_t n, const int64_t *indptr,
                          const int64_t *members, int64_t n_sets,
                          int64_t *out)
{
    int64_t s, i, t;
    for (s = 0; s < n_sets; s++) {
        int64_t *key = out + s * n;
        for (i = 0; i < n; i++)
            key[i] = n * n;
        for (t = indptr[s]; t < indptr[s + 1]; t++)
            key[members[t]] = members[t];
        for (i = n - 1; i >= 0; i--) {
            int64_t v = order[i], p = parent[v];
            if (p >= 0 && key[v] + n < key[p])
                key[p] = key[v] + n;
        }
        for (i = 0; i < n; i++) {
            int64_t v = order[i], p = parent[v];
            if (p >= 0 && key[p] + n < key[v])
                key[v] = key[p] + n;
        }
        for (i = 0; i < n; i++)
            key[i] %= n;
    }
}

void repro_free(void *block)
{
    free(block);
}

/* ------------------------------------------------------------------ */
/* Phase 1 of the batched adaptive replay: the per-object counter scan. */
/* ------------------------------------------------------------------ */

/* A growable int64 record buffer: the scan's output has no fixed cap. */
typedef struct {
    int64_t *data;
    int64_t len, cap;
} repro_buf;

/* The scan's output buffers, in the order of its result block. */
enum { SCAN_RUNS, SCAN_DIRECT, SCAN_REP, SCAN_POOL, SCAN_BUFS };

static int repro_buf_reserve(repro_buf *b, int64_t extra)
{
    int64_t cap = b->cap;
    int64_t *data;
    if (b->len + extra <= cap)
        return 0;
    while (cap < b->len + extra)
        cap = cap ? 2 * cap : 256;
    data = realloc(b->data, (size_t)cap * sizeof(int64_t));
    if (data == NULL)
        return -1;
    b->data = data;
    b->cap = cap;
    return 0;
}

static int repro_buf_push2(repro_buf *b, int64_t x, int64_t y)
{
    if (repro_buf_reserve(b, 2))
        return -1;
    b->data[b->len++] = x;
    b->data[b->len++] = y;
    return 0;
}

/* One run record (obj, lo, hi, writes, pool start, pool end) plus its
 * ascending holder ids appended to the pool. */
static int repro_emit_run(repro_buf *out, int64_t obj, int64_t lo,
                          int64_t hi, int64_t wcount, const int64_t *hold,
                          int64_t nh)
{
    repro_buf *runs = &out[SCAN_RUNS], *pool = &out[SCAN_POOL];
    int64_t *r;
    if (repro_buf_reserve(runs, 6) || repro_buf_reserve(pool, nh))
        return -1;
    r = runs->data + runs->len;
    r[0] = obj;
    r[1] = lo;
    r[2] = hi;
    r[3] = wcount;
    r[4] = pool->len;
    r[5] = pool->len + nh;
    memcpy(pool->data + pool->len, hold, (size_t)nh * sizeof(int64_t));
    runs->len += 6;
    pool->len += nh;
    return 0;
}

/* Whether a mask row holds no holder (a word at a time). */
static int repro_row_empty(const uint8_t *row, int64_t n)
{
    uint64_t any = 0, word;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        memcpy(&word, row + j, sizeof word);
        any |= word;
    }
    for (; j < n; j++)
        any |= row[j];
    return any == 0;
}

/* Holder ids of one mask row, ascending, into out; returns their count. */
static int64_t repro_row_holders(const uint8_t *row, int64_t n, int64_t *out)
{
    int64_t j = 0, b, k = 0;
    for (; j + 8 <= n; j += 8) {
        uint64_t word;
        memcpy(&word, row + j, sizeof word);
        if (word)
            for (b = j; b < j + 8; b++)
                if (row[b])
                    out[k++] = b;
    }
    for (; j < n; j++)
        if (row[j])
            out[k++] = j;
    return k;
}

/* Nearest of the nh ascending holders to p, ties to the smallest id: the
 * rule of RootedTree.nearest_in_set, over the lifting table. */
static int64_t repro_nearest_holder(const int32_t *up, int64_t levels,
                                    int64_t n, const int64_t *depth,
                                    int64_t p, const int64_t *hold, int64_t nh)
{
    int64_t j, best = hold[0], best_dist = -1;
    for (j = 0; j < nh; j++) {
        int64_t a = repro_lca_one(up, levels, n, depth, p, hold[j]);
        int64_t d = depth[hold[j]] - 2 * depth[a];
        if (j == 0 || d < best_dist) {
            best = hold[j];
            best_dist = d;
        }
    }
    return best;
}

/* The counter scan of every object of a chunk, in place on the
 * AdaptiveState arrays (n_objects x n_nodes, row-major), transition by
 * transition the numpy twin _replay_positions.  Object obj's chunk
 * positions are order[lo:hi], a stable argsort of objs.  Every order
 * entry, object id, processor id and first-touch row is checked before
 * anything is written: a failing entry returns its index t >= 0 with the
 * state untouched.  Returns -1 on success, with result = {address of a
 * malloc'd block the caller frees with repro_free, its length}; the block
 * is {n_runs, n_direct, n_rep, runs (6 each: obj, lo, hi, writes,
 * holder start, holder end), migrations (2 each: source, target),
 * replications (2 each: run index, target), holder pool}, holder bounds
 * indexing the pool.  Returns -2 when the scratch allocation fails before
 * any write, -3 when an output allocation fails mid-scan (the counters
 * are then partly advanced). */
int64_t repro_adaptive_scan(uint8_t *holder_mask, int64_t *read_credit,
                            int64_t *unread_writes, int64_t *n_holders,
                            int64_t n_objects, int64_t n_nodes,
                            const int32_t *up, int64_t levels,
                            const int64_t *depth, const int64_t *procs,
                            const uint8_t *writes, const int64_t *objs,
                            const int64_t *order, int64_t m,
                            int64_t replicate_at, int64_t migrate_at,
                            int64_t patience, int64_t *result)
{
    repro_buf out[SCAN_BUFS];
    int64_t t, lo, hi, j, total, *hold, *block, *w;
    int64_t status = -1;
    for (t = 0; t < m; t++) {
        int64_t i = order[t], o, prev = t ? order[t - 1] : 0;
        if (i < 0 || i >= m)
            return t;
        o = objs[i];
        if (o < 0 || o >= n_objects || procs[i] < 0 || procs[i] >= n_nodes)
            return t;
        if (t && (o < objs[prev] || (o == objs[prev] && i <= prev)))
            return t;
        if ((!t || o != objs[prev]) && n_holders[o]
                && repro_row_empty(holder_mask + o * n_nodes, n_nodes))
            return t;
    }
    hold = malloc((size_t)n_nodes * sizeof(int64_t));
    if (hold == NULL)
        return -2;
    memset(out, 0, sizeof out);
    for (lo = 0; lo < m; lo = hi) {
        int64_t obj = objs[order[lo]];
        uint8_t *mask = holder_mask + obj * n_nodes;
        int64_t *credit = read_credit + obj * n_nodes;
        int64_t *unread = unread_writes + obj * n_nodes;
        int64_t nh, c, k, wh, run_start = lo, wcount = 0;
        int moved = 0;
        for (hi = lo + 1; hi < m && objs[order[hi]] == obj; hi++)
            ;
        if (n_holders[obj]) {
            nh = repro_row_holders(mask, n_nodes, hold);
        } else {
            /* first touch: the object materialises on its first
             * requester; that event never adapts */
            memset(mask, 0, (size_t)n_nodes);
            hold[0] = procs[order[lo]];
            mask[hold[0]] = 1;
            nh = 1;
            moved = 1;
        }
        for (t = lo; t < hi; t++) {
            int64_t i = order[t], p = procs[i];
            if (!writes[i]) {
                if (mask[p]) {
                    unread[p] = 0;
                    continue;
                }
                c = credit[p] + 1;
                if (c < replicate_at) {
                    credit[p] = c;
                    continue;
                }
                /* replicate: the run ends with this read, served by the
                 * pre-crossing holders */
                if (repro_emit_run(out, obj, run_start, t + 1, wcount, hold, nh)
                        || repro_buf_push2(&out[SCAN_REP],
                                           out[SCAN_RUNS].len / 6 - 1, p))
                    goto oom;
                for (j = nh; j > 0 && hold[j - 1] > p; j--)
                    hold[j] = hold[j - 1];
                hold[j] = p;
                nh++;
                mask[p] = 1;
                unread[p] = 0;
                credit[p] = 0;
                run_start = t + 1;
                wcount = 0;
                moved = 1;
                continue;
            }
            wcount++;
            if (mask[p])
                wh = p;
            else if (nh == 1)
                wh = hold[0];
            else
                wh = repro_nearest_holder(up, levels, n_nodes, depth, p, hold, nh);
            if (nh == 1) {
                unread[wh] = 0;
                if (mask[p])
                    continue;
                c = credit[p] + 1;
                if (c < migrate_at) {
                    credit[p] = c;
                    continue;
                }
                /* the lonely copy follows the persistent writer */
                if (repro_emit_run(out, obj, run_start, t + 1, wcount, hold, 1)
                        || repro_buf_push2(&out[SCAN_DIRECT], wh, p))
                    goto oom;
                mask[wh] = 0;
                hold[0] = p;
                mask[p] = 1;
                unread[p] = 0;
                credit[p] = 0;
                run_start = t + 1;
                wcount = 0;
                moved = 1;
                continue;
            }
            /* age every non-writer replica; the stale test on the
             * pre-update count, count + 1 >= patience, is then a test on
             * the aged count */
            k = 0;
            for (j = 0; j < nh; j++) {
                if (hold[j] == wh)
                    unread[hold[j]] = 0;
                else if (++unread[hold[j]] >= patience)
                    k++;
            }
            if (!k)
                continue;
            if (repro_emit_run(out, obj, run_start, t + 1, wcount, hold, nh))
                goto oom;
            for (j = k = 0; j < nh; j++) {
                int64_t h = hold[j];
                if (h != wh && unread[h] >= patience) {
                    mask[h] = 0;
                    unread[h] = 0;
                } else {
                    hold[k++] = h;
                }
            }
            nh = k;
            if (nh == 1 && !mask[p]) {
                c = credit[p] + 1;
                if (c >= migrate_at) {
                    if (repro_buf_push2(&out[SCAN_DIRECT], hold[0], p))
                        goto oom;
                    unread[hold[0]] = 0;
                    mask[hold[0]] = 0;
                    hold[0] = p;
                    mask[p] = 1;
                    unread[p] = 0;
                    credit[p] = 0;
                } else {
                    credit[p] = c;
                }
            }
            run_start = t + 1;
            wcount = 0;
            moved = 1;
        }
        if (hi > run_start
                && repro_emit_run(out, obj, run_start, hi, wcount, hold, nh))
            goto oom;
        if (moved)
            n_holders[obj] = nh;
    }
    total = 3;
    for (j = 0; j < SCAN_BUFS; j++)
        total += out[j].len;
    block = malloc((size_t)total * sizeof(int64_t));
    if (block == NULL)
        goto oom;
    block[0] = out[SCAN_RUNS].len / 6;
    block[1] = out[SCAN_DIRECT].len / 2;
    block[2] = out[SCAN_REP].len / 2;
    w = block + 3;
    for (j = 0; j < SCAN_BUFS; j++) {
        if (out[j].len)
            memcpy(w, out[j].data, (size_t)out[j].len * sizeof(int64_t));
        w += out[j].len;
    }
    result[0] = (int64_t)(intptr_t)block;
    result[1] = total;
    goto done;
oom:
    status = -3;
done:
    free(hold);
    for (j = 0; j < SCAN_BUFS; j++)
        free(out[j].data);
    return status;
}
"""


def _find_compiler() -> Optional[str]:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate:
            found = shutil.which(candidate)
            if found:
                return found
    return None


def _load_cc_library() -> Optional[ctypes.CDLL]:
    """Compile (once, disk-cached by source hash) and load the C kernels.

    Returns ``None`` when the library is not cached yet and no C compiler
    is on PATH.  A compiler that fails raises
    :class:`subprocess.CalledProcessError`; file-system and loader
    failures raise :class:`OSError`.
    """
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache = os.environ.get("REPRO_KERNEL_CACHE")
    if cache:
        base = Path(cache)
    else:
        uid = getattr(os, "getuid", lambda: 0)()
        base = Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"
    base.mkdir(parents=True, exist_ok=True)
    lib_path = base / f"repro_kernels_{digest}.so"
    if not lib_path.exists():
        compiler = _find_compiler()
        if compiler is None:
            return None
        src_path = base / f"repro_kernels_{digest}.c"
        src_path.write_text(_C_SOURCE)
        tmp_path = base / f".repro_kernels_{digest}.{os.getpid()}.so"
        subprocess.run(
            [compiler, "-O3", "-fPIC", "-shared", "-o", str(tmp_path), str(src_path)],
            check=True,
            capture_output=True,
        )
        os.replace(tmp_path, lib_path)  # atomic under concurrent builders
    return ctypes.CDLL(str(lib_path))


_VP = ctypes.c_void_p
_C64 = ctypes.c_int64
_C32 = ctypes.c_int32
_CD = ctypes.c_double

#: ``name -> (restype, argtypes)`` of every exported C function.  Pointers
#: are plain addresses, so ctypes checks no array here: :func:`_address`
#: does, in each wrapper below, and a tier-1 test pins this table to the
#: prototypes of :data:`_C_SOURCE` position by position.
_C_SIGNATURES: Dict[str, Tuple[object, Tuple[object, ...]]] = {
    "repro_lca": (None, (_VP, _C64, _C64, _VP, _VP, _VP, _C64, _VP)),
    "repro_scatter_paths": (None, (_VP, _VP, _VP, _VP, _C64)),
    "repro_scatter_paths_cols": (None, (_VP, _VP, _VP, _VP, _C64, _C64)),
    "repro_pair_scatter": (None, (_VP, _VP, _VP, _VP, _VP, _C64)),
    "repro_pair_scatter_lanes": (None, (_VP, _VP, _VP, _VP, _VP, _C64, _C64)),
    "repro_bus_fold": (None, (_VP, _VP, _VP, _VP, _VP, _C64, _C64)),
    "repro_bus_fold_cols": (None, (_VP, _VP, _VP, _VP, _VP, _C64, _C64, _C64)),
    "repro_apply_column": (_C32, (_VP, _VP, _VP, _VP, _VP, _C64, _CD)),
    "repro_apply_columns_lanes": (
        None,
        (_VP, _C64, _VP, _C64, _VP, _VP, _VP, _VP, _C64, _VP),
    ),
    "repro_rescan": (_CD, (_VP, _VP, _C64)),
    "repro_rescan_rows": (None, (_VP, _C64, _VP, _C64, _VP, _VP)),
    "repro_charge_pairs": (
        _C64,
        (_VP, _C64, _C64, _VP, _VP, _VP, _VP, _VP, _VP, _VP, _C64, _VP, _VP,
         _VP, _VP, _VP, _C64, _CD, _C32, _VP),
    ),
    "repro_nearest_tables": (None, (_VP, _VP, _C64, _VP, _VP, _C64, _VP)),
    "repro_free": (None, (_VP,)),
    "repro_adaptive_scan": (
        _C64,
        (_VP, _VP, _VP, _VP, _C64, _C64, _VP, _C64, _VP, _VP, _VP, _VP, _VP,
         _C64, _C64, _C64, _C64, _VP),
    ),
}


def _count_arg(value) -> int:
    """An adaptation threshold as a C int64, clamped, never wrapped.

    The counters count events, so a threshold beyond int64 can never trip
    and one below 1 trips exactly like 1 (a counter is at least 1 once
    incremented): clamping keeps the twin's semantics.
    """
    return min(max(int(value), 1), _INT64_MAX)


def _scan_records(flat):
    """The records of one ``repro_adaptive_scan`` result block (as a list):
    the shape :func:`_replay_positions` appends, replication sources
    sharing their crossing run's holder tuple."""
    n_runs, n_direct, n_rep = flat[:3]
    a = 3 + 6 * n_runs
    b = a + 2 * n_direct
    pool = b + 2 * n_rep
    it = iter(flat[3:a])
    runs = [
        (obj, tuple(flat[pool + s:pool + e]), lo, hi, wc)
        for obj, lo, hi, wc, s, e in zip(it, it, it, it, it, it)
    ]
    it = iter(flat[a:b])
    mgmt_direct = list(zip(it, it))
    it = iter(flat[b:pool])
    mgmt_rep = [(runs[j][1], p) for j, p in zip(it, it)]
    return runs, mgmt_direct, mgmt_rep


def _bind_cc_ops(lib: ctypes.CDLL) -> Dict[str, Callable]:
    for name, (restype, argtypes) in _C_SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = list(argtypes)
    a = _address

    # Only array types and sizes are checked here: the dispatched ops
    # range-check the node ids of the caller (lca, nearest_tables) and the
    # lane ids (apply_columns_lanes, rescan_rows) before either backend
    # runs, the fused charge in C; substrate arrays (the lifting table,
    # parents, orders) are trusted.
    def cc_lca(up, depth, u, v):
        m = u.size
        levels, n = up.shape
        out = np.empty(m, dtype=np.int64)
        args = (
            a(up, _I32, levels * n, "up"),
            levels,
            n,
            a(depth, _I64, n, "depth"),
            a(u, _I64, m, "u"),
            a(v, _I64, m, "v"),
            m,
            a(out, _I64, m, "out"),
        )
        if m:
            lib.repro_lca(*args)
        return out

    def cc_scatter_paths(out, rp_edges, rp_nodes, rp_indptr, delta):
        indptr = a(rp_indptr, _I64, 1, "rp_indptr")
        n_nodes = rp_indptr.size - 1
        ncols = int(np.prod(out.shape[1:]))
        # a tree over n_nodes nodes has n_nodes - 1 edges: rp_edges' range
        args = (
            a(out, _F64, max(n_nodes - 1, 0) * ncols, "out"),
            a(rp_edges, _I32, int(rp_indptr[n_nodes]), "rp_edges"),
            indptr,
            a(delta, _F64, n_nodes * ncols, "delta"),
            n_nodes,
        )
        if out.ndim == 1:
            lib.repro_scatter_paths(*args)
        else:
            lib.repro_scatter_paths_cols(*args, ncols)

    def cc_pair_scatter(delta, u, v, anc, w):
        m = u.size
        lib.repro_pair_scatter(
            a(delta, _F64, 0, "delta"),
            a(u, _I64, m, "u"),
            a(v, _I64, m, "v"),
            a(anc, _I64, m, "anc"),
            a(w, _F64, m, "w"),
            m,
        )

    def cc_pair_scatter_lanes(delta, u, targets, anc, w):
        m, lanes = u.size, targets.shape[1]
        lib.repro_pair_scatter_lanes(
            a(delta, _F64, 0, "delta"),
            a(u, _I64, m, "u"),
            a(targets, _I64, m * lanes, "targets"),
            a(anc, _I64, m * lanes, "anc"),
            a(w, _F64, m, "w"),
            m,
            lanes,
        )

    def cc_bus_fold(out, edge_u, edge_v, is_bus, vec):
        n_edges, n_nodes = edge_u.size, is_bus.size
        ncols = int(np.prod(out.shape[1:]))
        args = (
            a(out, _F64, n_nodes * ncols, "out"),
            a(edge_u, _I32, n_edges, "edge_u"),
            a(edge_v, _I32, n_edges, "edge_v"),
            a(is_bus, _BOOL, n_nodes, "is_bus"),
            a(vec, _F64, n_edges * ncols, "vec"),
            n_edges,
            n_nodes,
        )
        if out.ndim == 1:
            lib.repro_bus_fold(*args)
        else:
            lib.repro_bus_fold_cols(*args, ncols)

    def cc_apply_column(loads, vec, edge_u, edge_v, is_bus, n_edges, sign):
        return bool(
            lib.repro_apply_column(
                a(loads, _F64, n_edges + is_bus.size, "loads"),
                a(vec, _F64, n_edges, "vec"),
                a(edge_u, _I32, n_edges, "edge_u"),
                a(edge_v, _I32, n_edges, "edge_v"),
                a(is_bus, _BOOL, 0, "is_bus"),
                n_edges,
                sign,
            )
        )

    def cc_apply_columns_lanes(loads, lanes, cols, edge_u, edge_v, is_bus, n_edges):
        n_lanes, row_len = lanes.size, loads.shape[1]
        if row_len < n_edges + is_bus.size:
            raise TypeError(
                f"kernel argument loads: rows of {row_len} entries, expected at "
                f"least {n_edges + is_bus.size}"
            )
        neg = np.zeros(n_lanes, dtype=np.bool_)
        lib.repro_apply_columns_lanes(
            a(loads, _F64, 0, "loads"),
            row_len,
            a(lanes, _I64, n_lanes, "lanes"),
            n_lanes,
            a(cols, _F64, n_edges * n_lanes, "cols"),
            a(edge_u, _I32, n_edges, "edge_u"),
            a(edge_v, _I32, n_edges, "edge_v"),
            a(is_bus, _BOOL, 0, "is_bus"),
            n_edges,
            a(neg, _BOOL, n_lanes, "neg"),
        )
        return neg

    def cc_rescan(loads, denom):
        n = loads.size
        return float(
            lib.repro_rescan(a(loads, _F64, n, "loads"), a(denom, _F64, n, "denom"), n)
        )

    def cc_rescan_rows(loads, rows, denom):
        n_rows, row_len = rows.size, loads.shape[1]
        out = np.empty(n_rows, dtype=np.float64)
        args = (
            a(loads, _F64, 0, "loads"),
            row_len,
            a(rows, _I64, n_rows, "rows"),
            n_rows,
            a(denom, _F64, row_len, "denom"),
            a(out, _F64, n_rows, "out"),
        )
        if n_rows:
            lib.repro_rescan_rows(*args)
        return out

    def cc_charge_pairs(sub, u, v, w, congestion, stale, col):
        m = u.size
        status = lib.repro_charge_pairs(
            *sub.c_args,
            a(u, _I64, m, "u"),
            a(v, _I64, m, "v"),
            a(w, _F64, m, "w"),
            m,
            congestion,
            stale,
            None if col is None else a(col, _F64, sub.n_edges, "col"),
        )
        if status == -1:
            cost, congestion, stale = sub.out.tolist()
            return cost, congestion, bool(stale)
        if status == -2:
            raise MemoryError("cc charge_pairs could not allocate its scratch")
        raise _bad_pair_error(u, v, status, sub.n_nodes)

    def cc_adaptive_scan(holder_mask, read_credit, unread_writes, n_holders,
                         up, depth, procs, writes, objs, order,
                         replicate_at, migrate_at, patience):
        n_objects, n_nodes = holder_mask.shape
        levels = up.shape[0]
        cells, m = n_objects * n_nodes, order.size
        if up.shape[-1] != n_nodes:
            raise TypeError(
                f"kernel argument up: a lifting table over {up.shape[-1]} "
                f"nodes, expected {n_nodes} (the holder mask's columns)"
            )
        result = (_C64 * 2)()
        status = lib.repro_adaptive_scan(
            a(holder_mask, _BOOL, cells, "holder_mask"),
            a(read_credit, _I64, cells, "read_credit"),
            a(unread_writes, _I64, cells, "unread_writes"),
            a(n_holders, _I64, n_objects, "n_holders"),
            n_objects,
            n_nodes,
            a(up, _I32, levels * n_nodes, "up"),
            levels,
            a(depth, _I64, n_nodes, "depth"),
            a(procs, _I64, m, "procs"),
            a(writes, _BOOL, m, "writes"),
            a(objs, _I64, m, "objs"),
            a(order, _I64, m, "order"),
            m,
            _count_arg(replicate_at),
            _count_arg(migrate_at),
            _count_arg(patience),
            result,
        )
        if status >= 0:  # entry ``status`` failed a check; nothing written
            raise _first_scan_error(holder_mask, n_holders, procs, objs, order)
        if status == -2:
            raise MemoryError("cc adaptive_scan could not allocate its scratch")
        if status == -3:
            raise MemoryError(
                "cc adaptive_scan ran out of memory for its records; the "
                "chunk's counters are partly advanced"
            )
        block, total = result
        try:
            flat = memoryview(ctypes.string_at(block, 8 * total)).cast("q")
        finally:
            lib.repro_free(block)
        return _scan_records(flat.tolist())

    def cc_nearest_tables(parent, order, depth, indptr, members):
        n, n_sets = parent.size, indptr.size - 1
        out = np.empty((n_sets, n), dtype=np.int64)
        args = (
            a(parent, _I64, n, "parent"),
            a(order, _I64, n, "order"),
            n,
            a(indptr, _I64, n_sets + 1, "indptr"),
            a(members, _I64, int(indptr[-1]), "members"),
            n_sets,
            a(out, _I64, n_sets * n, "out"),
        )
        if n_sets:
            lib.repro_nearest_tables(*args)
        return out

    return {
        "lca": cc_lca,
        "scatter_paths": cc_scatter_paths,
        "pair_scatter": cc_pair_scatter,
        "pair_scatter_lanes": cc_pair_scatter_lanes,
        "bus_fold": cc_bus_fold,
        "apply_column": cc_apply_column,
        "apply_columns_lanes": cc_apply_columns_lanes,
        "rescan": cc_rescan,
        "rescan_rows": cc_rescan_rows,
        "charge_pairs": cc_charge_pairs,
        "adaptive_scan": cc_adaptive_scan,
        "nearest_tables": cc_nearest_tables,
    }


def _try_build_cc() -> Tuple[Optional[Dict[str, Callable]], Optional[str]]:
    """Build the cc ops: ``(ops, None)``; ``(None, None)`` when no C
    compiler is on PATH; ``(None, error)`` when the build fails."""
    try:
        lib = _load_cc_library()
    except subprocess.CalledProcessError as exc:
        stderr = (exc.stderr or b"").decode(errors="replace").strip()
        error = f"C compiler {exc.cmd[0]} exited with status {exc.returncode}"
        if stderr:
            error += f": {stderr[-400:]}"
    except OSError as exc:
        error = f"{type(exc).__name__}: {exc}"
    else:
        return (None, None) if lib is None else (_bind_cc_ops(lib), None)
    return None, f"cc kernel build failed: {error}"


# --------------------------------------------------------------------- #
# backend selection
# --------------------------------------------------------------------- #
_forced: Optional[str] = None
#: backend -> (ops, build error), each built at most once per process
_ops_cache: Dict[str, Tuple[Optional[Dict[str, Callable]], Optional[str]]] = {}
_resolved: Tuple[object, str] = (object(), "")


def _backend(name: str) -> Tuple[Optional[Dict[str, Callable]], Optional[str]]:
    if name not in _ops_cache:
        if name == "numpy":
            _ops_cache[name] = (_NUMPY_OPS, None)
        elif name == "cc":
            _ops_cache[name] = _try_build_cc()
        else:
            raise AlgorithmError(
                f"unknown kernel backend {name!r}: expected one of "
                f"{', '.join(BACKENDS)} or 'auto'"
            )
    return _ops_cache[name]


def available_backends() -> Tuple[str, ...]:
    """The kernel backends usable in this environment (numpy always is)."""
    return tuple(name for name in BACKENDS if _backend(name)[0] is not None)


def active_backend() -> str:
    """The backend the kernel dispatch currently resolves to.

    Resolution order: :func:`set_backend` override, then ``REPRO_BACKEND``,
    then auto-detection (cc if it builds, else numpy; a failed cc build
    warns).  An explicitly requested backend that is unavailable raises
    :class:`~repro.errors.AlgorithmError` rather than silently degrading.
    """
    global _resolved
    key = (_forced, os.environ.get("REPRO_BACKEND"))
    if _resolved[0] == key:
        return _resolved[1]
    requested = _forced
    if requested is None:
        requested = (os.environ.get("REPRO_BACKEND") or "auto").strip().lower()
        requested = requested or "auto"
    if requested == "auto":
        name = available_backends()[0]
        error = _backend("cc")[1]
        if error is not None:
            warnings.warn(
                f"{error}; REPRO_BACKEND=auto falls back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
    else:
        if requested not in BACKENDS:
            raise AlgorithmError(
                f"unknown kernel backend {requested!r}: expected one of "
                f"{', '.join(BACKENDS)} or 'auto'"
            )
        ops, error = _backend(requested)
        if ops is None:
            raise AlgorithmError(
                f"kernel backend {requested!r} was requested but is not "
                f"available in this environment ({error or 'no C compiler on PATH'}); "
                "unset REPRO_BACKEND or choose 'numpy'"
            )
        name = requested
    _resolved = (key, name)
    return name


def set_backend(name: Optional[str]) -> None:
    """Force a backend at runtime (``None`` restores ``REPRO_BACKEND``/auto)."""
    global _forced
    _forced = name
    if name is not None:
        active_backend()  # validate eagerly


@contextmanager
def use_backend(name: Optional[str]):
    """Context manager form of :func:`set_backend` (restores on exit)."""
    global _forced
    previous = _forced
    set_backend(name)
    try:
        yield
    finally:
        _forced = previous


def _op(name: str) -> Callable:
    ops = _backend(active_backend())[0]
    assert ops is not None  # active_backend() only returns available ones
    return ops[name]


# --------------------------------------------------------------------- #
# dispatched operations
# --------------------------------------------------------------------- #
def lca(up: np.ndarray, depth: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Batched binary-lifting LCA over flat index arrays.

    ``up`` is the ``(levels, n)`` int32 ancestor table, ``depth`` the int64
    per-node depths; ``u`` and ``v`` must be freshly-allocated contiguous
    int64 arrays of equal size (implementations may clobber them).  Returns
    a flat int64 ancestor array.  An id outside the table's nodes raises
    :class:`~repro.errors.InvalidNodeError` naming it, under every backend.
    """
    _check_node_ids(up.shape[-1], u, v)
    return _op("lca")(up, depth, u, v)


def scatter_paths(
    out: np.ndarray,
    rp_edges: np.ndarray,
    rp_nodes: np.ndarray,
    rp_indptr: np.ndarray,
    delta: np.ndarray,
) -> None:
    """CSR root-path scatter: ``out[rp_edges[t]] += delta[rp_nodes[t]]``.

    ``out`` and ``delta`` are C-contiguous float64, either 1-D or row-major
    batched (``(n_edges, B)`` / ``(n_nodes, B)``); mutated in place.
    ``rp_nodes`` (per-entry node ids, the reference gather) and
    ``rp_indptr`` (per-node entry ranges, the compiled zero-skip walk) are
    two views of the same CSR structure and must stay consistent.

    Compiled backends skip nodes whose delta row is entirely zero.  This
    is bitwise-identical to the reference full-table scatter for every
    substrate caller: ``out`` accumulators start at +0.0 and IEEE
    addition can never turn +0.0 into -0.0, so the skipped ``x += 0.0``
    operations are exact no-ops (callers must not pass ``out`` buffers
    containing -0.0 entries -- no substrate path does).
    """
    _op("scatter_paths")(out, rp_edges, rp_nodes, rp_indptr, delta)


def pair_scatter(
    delta: np.ndarray, u: np.ndarray, v: np.ndarray, anc: np.ndarray, w: np.ndarray
) -> None:
    """Scatter pair node-deltas: ``+w`` at ``u, v``, ``-2w`` at ``anc``."""
    _op("pair_scatter")(delta, u, v, anc, w)


def pair_scatter_lanes(
    delta: np.ndarray,
    u: np.ndarray,
    targets: np.ndarray,
    anc: np.ndarray,
    w: np.ndarray,
) -> None:
    """Per-lane pair node-delta scatter into ``delta`` of shape ``(n, L)``."""
    _op("pair_scatter_lanes")(delta, u, targets, anc, w)


def bus_fold(
    out: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    is_bus: np.ndarray,
    vec: np.ndarray,
) -> None:
    """Fold per-edge loads onto both endpoints, zeroing non-bus rows."""
    _op("bus_fold")(out, edge_u, edge_v, is_bus, vec)


def apply_column(
    loads: np.ndarray,
    vec: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    is_bus: np.ndarray,
    n_edges: int,
    sign: float,
) -> bool:
    """Fused apply of one per-edge column onto a 1-D fused load array.

    Adds (``sign >= 0``) or subtracts the edge block and the folded bus
    block in one pass; returns whether any entry of ``vec`` fails
    ``>= 0`` (the staleness trigger of the running-max congestion).
    """
    return _op("apply_column")(loads, vec, edge_u, edge_v, is_bus, n_edges, sign)


def apply_columns_lanes(
    loads: np.ndarray,
    lanes: np.ndarray,
    cols: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    is_bus: np.ndarray,
    n_edges: int,
) -> np.ndarray:
    """Fused lane-broadcast apply of ``(n_edges, L)`` columns onto lane rows.

    Returns the per-lane "any negative entry" bool array.  A lane id
    outside ``loads``' rows, or a repeated one, raises
    :class:`~repro.errors.AlgorithmError` under every backend before
    anything is written.
    """
    _check_lane_ids(loads, lanes)
    if np.unique(lanes).size != lanes.size:
        # numpy's buffered "+=" would charge a repeated lane once, cc twice
        raise AlgorithmError("lane ids must be distinct")
    return _op("apply_columns_lanes")(
        loads, lanes, cols, edge_u, edge_v, is_bus, n_edges
    )


def rescan(loads: np.ndarray, denom: np.ndarray) -> float:
    """Running-max repair: ``max(loads / denom)`` over one fused array."""
    return _op("rescan")(loads, denom)


def rescan_rows(loads: np.ndarray, rows: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Per-row fused rescan over selected lane rows of a stacked array.

    A row id outside ``loads``' rows raises
    :class:`~repro.errors.AlgorithmError` naming it, under every backend.
    """
    _check_lane_ids(loads, rows)
    return _op("rescan_rows")(loads, rows, denom)


def charge_pairs(
    sub: PairSubstrate,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    congestion: float,
    stale: bool,
    col: Optional[np.ndarray] = None,
) -> Tuple[float, float, bool]:
    """One whole weighted pair charge of a load row, in one call.

    Charges ``w[i]`` on every edge and bus of the tree path ``u[i] ->
    v[i]`` into ``sub.loads`` (int64 ``u``, ``v``, float64 ``w``, one
    size) and returns ``(cost, congestion, stale)``: the cost
    ``Σ w[i]·dist(u[i], v[i])`` and the row's running-max tracker after
    the charge, under the rule of ``LoadState.apply_edge_loads`` (a full
    rescan only when the row is clean and no entry of the charged column
    is negative; otherwise the row turns stale).  ``col``, when given,
    receives the charged per-edge column.  A node id outside the network
    raises :class:`~repro.errors.InvalidNodeError` before anything is
    written, under every backend.
    """
    return _op("charge_pairs")(sub, u, v, w, congestion, stale, col)


def adaptive_scan(
    holder_mask: np.ndarray,
    read_credit: np.ndarray,
    unread_writes: np.ndarray,
    n_holders: np.ndarray,
    up: np.ndarray,
    depth: np.ndarray,
    procs: np.ndarray,
    writes: np.ndarray,
    objs: np.ndarray,
    order: np.ndarray,
    replicate_at: int,
    migrate_at: int,
    patience: int,
) -> Tuple[List[tuple], List[tuple], List[tuple]]:
    """Phase 1 of the batched adaptive replay, every object of a chunk.

    Advances the counters of an ``AdaptiveState`` (``holder_mask``,
    ``read_credit``, ``unread_writes``: ``(n_objects, n_nodes)``;
    ``n_holders``) in place over the chunk events ``procs``/``writes``/
    ``objs`` (int64, bool, int64), visiting each object's positions in
    the CSR ``order``, a stable argsort of ``objs``.  A non-holder
    writer's nearest holder comes from the lifting table ``up`` and
    ``depth`` (ties to the smallest id).  Returns ``(runs, mgmt_direct,
    mgmt_rep)``: the run and copy-movement records of
    :func:`_replay_positions`, with run bounds indexing ``order``.

    Every CSR entry, object id, processor id and first-touch row is
    checked before any counter is written (:class:`WorkloadError`, or
    :class:`InvalidNodeError` for a processor outside the network), and
    thresholds beyond int64 never trip.
    """
    return _op("adaptive_scan")(
        holder_mask, read_credit, unread_writes, n_holders, up, depth,
        procs, writes, objs, order, replicate_at, migrate_at, patience,
    )


def nearest_tables(
    parent: np.ndarray,
    order: np.ndarray,
    depth: np.ndarray,
    indptr: np.ndarray,
    members: np.ndarray,
) -> np.ndarray:
    """Per candidate set, the nearest candidate of every node of a tree.

    The tree is a rooted view's int64 ``parent`` (``-1`` at the root),
    topological ``order`` (parents first) and ``depth`` arrays; the sets
    are one int64 CSR, set ``s`` being ``members[indptr[s]:indptr[s+1]]``.
    Returns the ``(n_sets, n_nodes)`` int64 table whose row ``s`` holds,
    for every node, its closest member of set ``s``, ties to the smallest
    id (the rule of ``RootedTree.nearest_in_set``).  The table is all the
    memory a call takes beyond O(n_nodes) scratch: no distance block is
    built.

    Before either backend runs, an empty set raises
    :class:`~repro.errors.InvalidNodeError` with the text of
    ``nearest_in_set``, a member outside the tree raises it naming the
    member, and a tree too large for the int64 sweep keys raises
    :class:`~repro.errors.CapacityError`.
    """
    n = parent.size
    # keys are dist * n + candidate < n * n; a sweep adds n to the n * n
    # start value at most once: n * (n + 1) must fit in int64
    if n * (n + 1) > _INT64_MAX:
        raise CapacityError(
            f"network node count {n} exceeds the capacity of the int64 "
            "nearest-table keys (n * (n + 1) must fit in int64; keys are "
            "never silently wrapped)"
        )
    if indptr.size == 0 or indptr[0] != 0:
        raise ValueError("nearest_tables: the CSR indptr must start at 0")
    if (indptr[1:] <= indptr[:-1]).any():
        raise InvalidNodeError("candidate set must not be empty")
    _check_node_ids(n, members, what="candidate")
    return _op("nearest_tables")(parent, order, depth, indptr, members)
