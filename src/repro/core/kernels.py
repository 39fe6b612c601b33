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
    Available wherever a C compiler is installed, and loaded only from a
    private cache directory.

**The prototype is the declaration.**  Each exported ``repro_*``
function of :data:`_C_SOURCE` is declared only by its C prototype
(:func:`_prototypes`), which gives its ctypes types and, per pointer
parameter, the element dtype and whether it is ``const``.  Every array
handed to C is checked against its parameter before any C code runs
(:func:`_address`: exact dtype, C-contiguous, at least the entries the op
states, writable unless ``const``; else :class:`TypeError`), the arrays
of a load substrate once per topology epoch (:class:`PairSubstrate`).
Under numpy too, an op refuses a read-only array where its C function
writes (:func:`_twin`).  Each public op runs its shared pre-checks, then
its numpy twin or ``repro_<op>``.  The lane ops
:func:`apply_columns_lanes` and :func:`rescan_rows` have no caller here;
perfbench's tracer binds them by name.

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

Two ops are the wire codec of the streaming service.
:func:`scan_requests` decodes one ``requests`` wire line of a strict
row grammar into its id and columns in one pass over the bytes, and
declines every other line; its numpy twin declines every line, so
``repro.serve.wire.decode_message`` then decodes it through
``json.loads`` and the row decoder, the reference the compiled scan
equals.  :func:`events_item` writes the journal's v2 events item of one
micro-batch; its numpy twin writes the same item with ``json.dumps``,
and the two agree byte for byte.

Selection is controlled by the ``REPRO_BACKEND`` environment variable
(``cc`` | ``numpy`` | ``auto``, default ``auto``: cc if it builds, else
numpy).  With no C compiler on PATH, ``auto`` falls back to numpy
quietly; a compiler that is found but fails to build makes ``auto`` emit
one :class:`RuntimeWarning` naming it before falling back.  Requesting a
backend that is unavailable raises :class:`~repro.errors.AlgorithmError`
(with the build error, if there was one) instead of silently falling
back.  :func:`set_backend` / :func:`use_backend` override the
environment at runtime (used by the differential suite and the
compiled-vs-numpy benchmark gates).  They and :func:`active_backend`
resolve the backend; between those calls an op only compares
``REPRO_BACKEND`` with the value last resolved.

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
import functools
import hashlib
import json
import math
import os
import re
import shutil
import stat
import subprocess
import tempfile
import warnings
from bisect import insort
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, NamedTuple, Optional, Tuple

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
    "scan_requests",
    "events_item",
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
    _reference_bus_fold(bus2, edge_u, edge_v, is_bus, vec)
    if sign >= 0:
        loads[n_edges:] += bus2
    else:
        loads[n_edges:] -= bus2
    return not bool(np.all(vec >= 0))


def _reference_apply_columns_lanes(loads, lanes, cols, edge_u, edge_v, is_bus, n_edges):
    loads[lanes, :n_edges] += cols.T
    bus2 = np.zeros((loads.shape[1] - n_edges, lanes.size), dtype=np.float64)
    _reference_bus_fold(bus2, edge_u, edge_v, is_bus, cols)
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


def _reference_scan_requests(line):
    """The numpy twin of the compiled scan declines every line."""
    return None


def _reference_events_item(procs, objs, writes) -> bytes:
    """The journal's v2 events item through ``json.dumps``."""
    document = {
        "events": {
            "procs": procs.tolist(),
            "objs": objs.tolist(),
            "writes": np.flatnonzero(writes).tolist(),
        }
    }
    return (json.dumps(document, separators=(",", ":")) + "\n").encode()


# --------------------------------------------------------------------- #
# raw-pointer arguments, checked against their C parameters
# --------------------------------------------------------------------- #
_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)
_I32 = np.dtype(np.int32)
_BOOL = np.dtype(np.bool_)
_U8 = np.dtype(np.uint8)
_BYTE = ctypes.c_char


def _read_only_error(name: str, arr: np.ndarray) -> TypeError:
    return TypeError(
        f"kernel argument {name}: the op writes into it, got a read-only "
        f"{arr.dtype} array of shape {arr.shape}"
    )


def _address(arr, n: int, dtype: np.dtype, const: bool, name: str) -> int:
    """Address of one array argument of a C function, checked first.

    ``dtype``, ``const`` and ``name`` are the parameter's, as its
    prototype declares it (:func:`_prototypes`).  The array must be a
    C-contiguous ndarray of exactly ``dtype`` with at least ``n`` entries,
    and writable unless the parameter is ``const``, or :class:`TypeError`
    is raised.
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
            f"kernel argument {name}: expected a C-contiguous {dtype} array "
            f"of at least {n} entries, got {got}"
        )
    try:
        # several times cheaper than arr.ctypes.data, which builds a
        # helper object on every call
        return ctypes.addressof(_BYTE.from_buffer(arr))
    except (TypeError, ValueError):  # read-only or empty buffer
        if not (const or arr.flags.writeable):
            raise _read_only_error(name, arr) from None
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
    epoch, not once per charge; ``loads`` must be writable, under every
    backend.  The numpy twin reads the arrays; the cc op takes
    ``c_args``, their addresses and sizes, as its leading arguments and
    writes its ``(cost, congestion, stale)`` into ``out``, so one
    substrate serves one thread at a time.
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
        # rp_edges holds rp_indptr[n] entries; a short rp_indptr is refused
        entries = int(rp_indptr[n]) if rp_indptr.size > n else 0
        self.up, self.depth = up, depth
        self.rp_edges, self.rp_nodes, self.rp_indptr = rp_edges, rp_nodes, rp_indptr
        self.edge_u, self.edge_v, self.is_bus = edge_u, edge_v, is_bus
        self.denom, self.loads = denom, loads
        self.n_nodes, self.n_edges = n, n_edges
        self.out = np.zeros(3, dtype=np.float64)
        params = {i: param for i, *param in _prototypes(_C_SOURCE)["repro_charge_pairs"].arrays}
        args = ((up, levels * n), levels, n, (depth, n), (rp_edges, entries),
                (rp_indptr, n + 1), (edge_u, n_edges), (edge_v, n_edges), (is_bus, n),
                (denom, width), n_edges, (loads, width), (self.out, 3))
        self.c_args = tuple(
            _address(*arg, *params[i]) if type(arg) is tuple else arg
            for i, arg in enumerate(args)
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

/* Zero-skip CSR scatter of ncols columns (row-major).  Nodes whose delta
 * row is all (+/-)0.0 are skipped entirely: x + 0.0 == x bitwise unless x
 * is -0.0, and the substrate's accumulators start at +0.0 and only ever
 * receive IEEE additions, which can never produce -0.0 from a +0.0 start
 * ((+0)+(-0) rounds to +0).  Skipping therefore preserves bit-for-bit
 * equality with the reference full-table scatter while making
 * sparse-delta scatters (the replay inner loop) active-path-bound instead
 * of CSR-size-bound.  Static, so that repro_charge_pairs' call with
 * ncols = 1 compiles to the one-column loop; a call to an exported
 * function, which the loader may interpose, is not specialized. */
static void repro_scatter(double *out, const int32_t *rp_edges,
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

void repro_scatter_paths(double *out, const int32_t *rp_edges,
                         const int64_t *rp_indptr, const double *delta,
                         int64_t n_nodes, int64_t ncols)
{
    repro_scatter(out, rp_edges, rp_indptr, delta, n_nodes, ncols);
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
                    int64_t n_edges, int64_t n_nodes, int64_t ncols)
{
    int64_t e, i, c;
    for (e = 0; e < n_edges; e++) {
        const double *row = vec + e * ncols;
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
     * repro_scatter); the flag is unchanged because (+/-)0.0 >= 0. */
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
    repro_scatter(vec, rp_edges, rp_indptr, delta, n_nodes, 1);
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

/* ---- wire codec ------------------------------------------------------ */

static const uint8_t *repro_skip_ws(const uint8_t *p, const uint8_t *end)
{
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
        p++;
    return p;
}

static int repro_token(const uint8_t *p, const uint8_t *end, const char *token,
                       int64_t len)
{
    return end - p >= len && memcmp(p, token, (size_t)len) == 0;
}

/* -?(0|[1-9][0-9]*) within int64, not followed by '.', 'e', 'E' or a
 * digit; the position after it, or NULL */
static const uint8_t *repro_scan_int(const uint8_t *p, const uint8_t *end,
                                     int64_t *out)
{
    uint64_t mag = 0, limit = (uint64_t)INT64_MAX;
    int neg = 0;
    if (p < end && *p == '-') {
        neg = 1;
        limit += 1;
        p++;
    }
    if (p >= end || *p < '0' || *p > '9')
        return NULL;
    if (*p == '0') {
        p++;
    } else {
        for (; p < end && *p >= '0' && *p <= '9'; p++) {
            uint64_t d = (uint64_t)(*p - '0');
            if (mag > (limit - d) / 10)
                return NULL;
            mag = mag * 10 + d;
        }
    }
    if (p < end && ((*p >= '0' && *p <= '9') || *p == '.' || *p == 'e' || *p == 'E'))
        return NULL;
    *out = !neg ? (int64_t)mag : mag ? -(int64_t)(mag - 1) - 1 : 0;
    return p;
}

/* ROWS: [[INT, INT, KIND], ...] into at most cap rows; the position after
 * the closing bracket, or NULL */
static const uint8_t *repro_scan_rows(const uint8_t *p, const uint8_t *end,
                                      int64_t cap, int64_t *procs,
                                      int64_t *objs, uint8_t *writes,
                                      int64_t *count)
{
    int64_t k = 0;
    if (p >= end || *p != '[')
        return NULL;
    p = repro_skip_ws(p + 1, end);
    if (p < end && *p == ']') {
        *count = 0;
        return p + 1;
    }
    for (;;) {
        int64_t proc, obj;
        uint8_t is_write;
        if (p >= end || *p != '[' || k >= cap)
            return NULL;
        p = repro_scan_int(repro_skip_ws(p + 1, end), end, &proc);
        if (p == NULL || (p = repro_skip_ws(p, end)) >= end || *p != ',')
            return NULL;
        p = repro_scan_int(repro_skip_ws(p + 1, end), end, &obj);
        if (p == NULL || (p = repro_skip_ws(p, end)) >= end || *p != ',')
            return NULL;
        p = repro_skip_ws(p + 1, end);
        if (repro_token(p, end, "\"r\"", 3)) {
            is_write = 0;
            p += 3;
        } else if (repro_token(p, end, "\"w\"", 3)) {
            is_write = 1;
            p += 3;
        } else if (repro_token(p, end, "\"read\"", 6)) {
            is_write = 0;
            p += 6;
        } else if (repro_token(p, end, "\"write\"", 7)) {
            is_write = 1;
            p += 7;
        } else {
            return NULL;
        }
        p = repro_skip_ws(p, end);
        if (p >= end || *p != ']')
            return NULL;
        procs[k] = proc;
        objs[k] = obj;
        writes[k] = is_write;
        k++;
        p = repro_skip_ws(p + 1, end);
        if (p < end && *p == ']') {
            *count = k;
            return p + 1;
        }
        if (p >= end || *p != ',')
            return NULL;
        p = repro_skip_ws(p + 1, end);
    }
}

/* One requests line of the strict row grammar: the number of rows written
 * (at most cap) and the id into ident[0], or -1 to decline the line. */
int64_t repro_scan_requests(const uint8_t *line, int64_t n, int64_t cap,
                            int64_t *procs, int64_t *objs, uint8_t *writes,
                            int64_t *ident)
{
    const uint8_t *p = line, *end = line + n;
    int64_t rows = 0;
    int seen = 0;
    p = repro_skip_ws(p, end);
    if (p >= end || *p != '{')
        return -1;
    p++;
    for (;;) {
        int member;
        p = repro_skip_ws(p, end);
        if (repro_token(p, end, "\"type\"", 6)) {
            member = 1;
            p += 6;
        } else if (repro_token(p, end, "\"id\"", 4)) {
            member = 2;
            p += 4;
        } else if (repro_token(p, end, "\"events\"", 8)) {
            member = 4;
            p += 8;
        } else {
            return -1;
        }
        if (seen & member)
            return -1;
        seen |= member;
        p = repro_skip_ws(p, end);
        if (p >= end || *p != ':')
            return -1;
        p = repro_skip_ws(p + 1, end);
        if (member == 1)
            p = repro_token(p, end, "\"requests\"", 10) ? p + 10 : NULL;
        else if (member == 2)
            p = repro_scan_int(p, end, ident);
        else
            p = repro_scan_rows(p, end, cap, procs, objs, writes, &rows);
        if (p == NULL)
            return -1;
        p = repro_skip_ws(p, end);
        if (p < end && *p == '}')
            break;
        if (p >= end || *p != ',')
            return -1;
        p++;
    }
    if (seen != 7 || repro_skip_ws(p + 1, end) != end)
        return -1;
    return rows;
}

static char *repro_put_int(char *w, int64_t v)
{
    char digits[20];
    int n = 0;
    uint64_t mag = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    if (v < 0)
        *w++ = '-';
    do {
        digits[n++] = (char)('0' + mag % 10);
        mag /= 10;
    } while (mag);
    while (n)
        *w++ = digits[--n];
    return w;
}

static char *repro_put_ints(char *w, const int64_t *values, int64_t m)
{
    int64_t i;
    for (i = 0; i < m; i++) {
        if (i)
            *w++ = ',';
        w = repro_put_int(w, values[i]);
    }
    return w;
}

/* The journal's v2 events item of m events, as compact JSON plus the
 * newline: its length, or -1 when cap < 46 + 63 * m (the longest item). */
int64_t repro_events_item(const int64_t *procs, const int64_t *objs,
                          const uint8_t *writes, int64_t m, char *out,
                          int64_t cap)
{
    char *w = out;
    int64_t i, first = 1;
    if (m < 0 || cap < 46 || m > (cap - 46) / 63)
        return -1;
    memcpy(w, "{\"events\":{\"procs\":[", 20);
    w = repro_put_ints(w + 20, procs, m);
    memcpy(w, "],\"objs\":[", 10);
    w = repro_put_ints(w + 10, objs, m);
    memcpy(w, "],\"writes\":[", 12);
    w += 12;
    for (i = 0; i < m; i++) {
        if (!writes[i])
            continue;
        if (!first)
            *w++ = ',';
        first = 0;
        w = repro_put_int(w, i);
    }
    memcpy(w, "]}}\n", 4);
    return w + 4 - out;
}
"""


# --------------------------------------------------------------------- #
# the prototypes: the one declaration of each exported C function
# --------------------------------------------------------------------- #
_PROTOTYPE = re.compile(r"^(?!static\b)(\w[\w \t*]*?)\s*\b(repro_\w+)\s*\(([^)]*)\)\s*\{", re.M)
_PARAMETER = re.compile(r"(const\s+)?(\w+)\s*(\*?)\s*(\w+)")
_C_SCALARS = {"int32_t": ctypes.c_int32, "int64_t": ctypes.c_int64, "double": ctypes.c_double}
#: pointer element dtypes: ``uint8_t`` holds bools and ``char`` bytes; a
#: ``void *`` takes only an address the op got from C
_C_ELEMENTS = {"int32_t": _I32, "int64_t": _I64, "double": _F64, "uint8_t": _BOOL, "char": _U8,
               "void": None}
#: ``arrays`` holds ``(position, dtype, const, name)`` per array parameter
_Prototype = NamedTuple("_Prototype", [("restype", object), ("argtypes", list), ("arrays", tuple)])


@functools.lru_cache(maxsize=None)
def _prototypes(source: str) -> Dict[str, _Prototype]:
    """Every exported ``repro_*`` function of a C source, by name.

    A type outside :data:`_C_SCALARS` and pointers to :data:`_C_ELEMENTS`
    raises :class:`ValueError` naming the function: the library then
    fails to bind, loudly.
    """
    prototypes = {}
    for ret, name, params in _PROTOTYPE.findall(source):
        argtypes, arrays = [], []
        for i, param in enumerate(p.strip() for p in params.split(",")):
            match = _PARAMETER.fullmatch(param)
            const, ctype, pointer, pname = match.groups() if match else (None,) * 4
            if pointer and ctype in _C_ELEMENTS:
                argtypes.append(ctypes.c_void_p)
                if _C_ELEMENTS[ctype] is not None:
                    arrays.append((i, _C_ELEMENTS[ctype], bool(const), pname))
            elif not (pointer or const) and ctype in _C_SCALARS:
                argtypes.append(_C_SCALARS[ctype])
            else:
                raise ValueError(f"unreadable prototype of {name}: parameter {param!r}")
        if ret != "void" and ret not in _C_SCALARS:
            raise ValueError(f"unreadable prototype of {name}: return type {ret!r}")
        prototypes[name] = _Prototype(_C_SCALARS.get(ret), argtypes, tuple(arrays))
    return prototypes


# --------------------------------------------------------------------- #
# cc backend: built into a private cache, bound from the prototypes
# --------------------------------------------------------------------- #
def _find_compiler() -> Optional[str]:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate:
            found = shutil.which(candidate)
            if found:
                return found
    return None


def _load_cc_library() -> Optional[ctypes.CDLL]:
    """Compile (once, disk-cached by source hash) and load the C kernels.

    The cache is ``REPRO_KERNEL_CACHE`` or else ``repro-kernels-<uid>`` in
    the temporary directory, made with mode 0700.  A cache directory that
    another user owns, or that anyone but its owner can write, raises
    :class:`OSError` naming it before anything is compiled into or loaded
    from it: a library planted there would run in this process.  Returns
    ``None`` when the library is not cached yet and no C compiler is on
    PATH.  A compiler that fails raises
    :class:`subprocess.CalledProcessError`; file-system and loader
    failures raise :class:`OSError`.
    """
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    uid = getattr(os, "getuid", lambda: 0)()
    cache = os.environ.get("REPRO_KERNEL_CACHE")
    base = Path(cache) if cache else Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"
    base.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = base.stat()
    if info.st_uid != uid or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise OSError(
            f"kernel cache directory {base} is not private (owner uid "
            f"{info.st_uid}, mode {stat.filemode(info.st_mode)}): it must be "
            "owned by the current user and writable by no one else"
        )
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


def _bind(lib: ctypes.CDLL) -> SimpleNamespace:
    """The exported C functions, typed from their prototypes, by name.  A
    function the library lacks raises :class:`OSError`."""
    functions = {}
    for name, (restype, argtypes, arrays) in _prototypes(_C_SOURCE).items():
        fn = getattr(lib, name, None)
        if fn is None:
            raise OSError(f"kernel library {lib._name} lacks {name}")
        fn.restype, fn.argtypes = restype, argtypes
        functions[name] = _checked(fn, arrays) if arrays else fn
    return SimpleNamespace(**functions)


def _checked(fn, arrays):
    """``fn`` taking each array argument as ``(array, min_entries)``, passed
    on as its address once :func:`_address` accepts it against its
    parameter (``arrays``, of :class:`_Prototype`).  Any other value passes
    as it is: an address checked before, a ctypes buffer or ``bytes`` the
    op made, or ``None``."""
    ndarray, addressof, from_buffer = np.ndarray, ctypes.addressof, _BYTE.from_buffer

    def call(*args):
        args = list(args)
        for i, dtype, const, name in arrays:
            arg = args[i]
            if type(arg) is tuple:
                arr, n = arg
                # the common case without _address's call: from_buffer
                # takes only a C-contiguous, writable, non-empty buffer
                if type(arr) is ndarray and arr.dtype == dtype and arr.size >= n:
                    try:
                        args[i] = addressof(from_buffer(arr))
                        continue
                    except (TypeError, ValueError):
                        pass
                args[i] = _address(arr, n, dtype, const, name)
        return fn(*args)

    return call


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


# --------------------------------------------------------------------- #
# backend selection
# --------------------------------------------------------------------- #
_forced: Optional[str] = None
#: The cc build, made at most once per process: ``(bound C functions,
#: None)``, ``(None, None)`` with no C compiler on PATH, or ``(None,
#: build error)``.
_cc_build: Optional[Tuple[Optional[SimpleNamespace], Optional[str]]] = None
#: ``(REPRO_BACKEND value, backend, its bound C functions or None)`` as
#: last resolved; no value equals the first entry of the unresolved state.
_UNRESOLVED: Tuple[object, str, Optional[SimpleNamespace]] = (object(), "", None)
_resolved = _UNRESOLVED


def _cc_library() -> Tuple[Optional[SimpleNamespace], Optional[str]]:
    """The cc build: its bound C functions, or why there are none."""
    global _cc_build
    if _cc_build is None:
        try:
            lib = _load_cc_library()
            _cc_build = (None if lib is None else _bind(lib), None)
        except subprocess.CalledProcessError as exc:
            stderr = (exc.stderr or b"").decode(errors="replace").strip()
            error = f"C compiler {exc.cmd[0]} exited with status {exc.returncode}"
            if stderr:
                error += f": {stderr[-400:]}"
            _cc_build = (None, f"cc kernel build failed: {error}")
        except (OSError, ValueError) as exc:
            _cc_build = (None, f"cc kernel build failed: {type(exc).__name__}: {exc}")
    return _cc_build


def available_backends() -> Tuple[str, ...]:
    """The kernel backends usable in this environment (numpy always is)."""
    return BACKENDS if _cc_library()[0] is not None else ("numpy",)


def active_backend() -> str:
    """The backend the kernel dispatch currently resolves to.

    Resolution order: :func:`set_backend` override, then ``REPRO_BACKEND``,
    then auto-detection (cc if it builds, else numpy; a failed cc build
    warns).  An explicitly requested backend that is unavailable raises
    :class:`~repro.errors.AlgorithmError` rather than silently degrading.
    """
    global _resolved
    env, resolved = os.environ.get("REPRO_BACKEND"), _resolved
    if env == resolved[0]:
        return resolved[1]
    requested = _forced
    if requested is None:
        requested = (env or "auto").strip().lower() or "auto"
    functions = None
    if requested == "auto":
        functions, error = _cc_library()
        name = "numpy" if functions is None else "cc"
        if error is not None:
            warnings.warn(
                f"{error}; REPRO_BACKEND=auto falls back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
    elif requested not in BACKENDS:
        raise AlgorithmError(
            f"unknown kernel backend {requested!r}: expected one of "
            f"{', '.join(BACKENDS)} or 'auto'"
        )
    else:
        name = requested
        if name == "cc":
            functions, error = _cc_library()
            if functions is None:
                raise AlgorithmError(
                    f"kernel backend {name!r} was requested but is not "
                    f"available in this environment ({error or 'no C compiler on PATH'}); "
                    "unset REPRO_BACKEND or choose 'numpy'"
                )
    _resolved = (env, name, functions)
    return name


def set_backend(name: Optional[str]) -> None:
    """Force a backend at runtime (``None`` restores ``REPRO_BACKEND``/auto)."""
    global _forced, _resolved
    _forced = name
    _resolved = _UNRESOLVED
    if name is not None:
        active_backend()  # validate eagerly


@contextmanager
def use_backend(name: Optional[str]):
    """Context manager form of :func:`set_backend` (restores on exit)."""
    global _forced, _resolved
    previous = _forced
    set_backend(name)
    try:
        yield
    finally:
        _forced = previous
        _resolved = _UNRESOLVED


def _cc() -> Optional[SimpleNamespace]:
    """The active backend's bound C functions, ``None`` under numpy.

    The dispatch step of every op: it resolves the backend again only
    when ``REPRO_BACKEND`` differs from the value last resolved
    (:func:`set_backend` and :func:`use_backend` resolve it anew).
    """
    resolved = _resolved
    if os.environ.get("REPRO_BACKEND") != resolved[0]:
        active_backend()
        resolved = _resolved
    return resolved[2]


def _twin(twin, *args):
    """Call the numpy twin ``_reference_<op>``, refusing first, as the C
    binding does, a read-only array in an argument named like a
    non-``const`` pointer of ``repro_<op>``."""
    params = twin.__code__.co_varnames[:len(args)]
    proto = _prototypes(_C_SOURCE)["repro_" + twin.__name__.removeprefix("_reference_")]
    for _i, _dtype, const, name in proto.arrays:
        arr = args[params.index(name)] if not const and name in params else None
        if isinstance(arr, np.ndarray) and not arr.flags.writeable:
            raise _read_only_error(name, arr)
    return twin(*args)


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
    c = _cc()
    if c is None:
        return _twin(_reference_lca, up, depth, u, v)
    m = u.size
    levels, n = up.shape
    out = np.empty(m, dtype=np.int64)
    c.repro_lca((up, levels * n), levels, n, (depth, n), (u, m), (v, m), m, (out, m))
    return out


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
    c = _cc()
    if c is None:
        return _twin(_reference_scatter_paths, out, rp_edges, rp_nodes, rp_indptr, delta)
    n_nodes = rp_indptr.size - 1
    ncols = math.prod(out.shape[1:])
    # rp_edges holds rp_indptr[-1] entries (an empty rp_indptr is refused);
    # a tree over n_nodes nodes has n_nodes - 1 edges
    entries = int(rp_indptr[-1]) if rp_indptr.size else 0
    c.repro_scatter_paths((out, max(n_nodes - 1, 0) * ncols), (rp_edges, entries),
                          (rp_indptr, 1), (delta, n_nodes * ncols), n_nodes, ncols)


def pair_scatter(
    delta: np.ndarray, u: np.ndarray, v: np.ndarray, anc: np.ndarray, w: np.ndarray
) -> None:
    """Scatter pair node-deltas: ``+w`` at ``u, v``, ``-2w`` at ``anc``."""
    c = _cc()
    if c is None:
        return _twin(_reference_pair_scatter, delta, u, v, anc, w)
    m = u.size
    c.repro_pair_scatter((delta, 0), (u, m), (v, m), (anc, m), (w, m), m)


def pair_scatter_lanes(
    delta: np.ndarray,
    u: np.ndarray,
    targets: np.ndarray,
    anc: np.ndarray,
    w: np.ndarray,
) -> None:
    """Per-lane pair node-delta scatter into ``delta`` of shape ``(n, L)``."""
    c = _cc()
    if c is None:
        return _twin(_reference_pair_scatter_lanes, delta, u, targets, anc, w)
    m, lanes = u.size, targets.shape[1]
    c.repro_pair_scatter_lanes(
        (delta, 0), (u, m), (targets, m * lanes), (anc, m * lanes), (w, m), m, lanes
    )


def bus_fold(
    out: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    is_bus: np.ndarray,
    vec: np.ndarray,
) -> None:
    """Fold per-edge loads onto both endpoints, zeroing non-bus rows."""
    c = _cc()
    if c is None:
        return _twin(_reference_bus_fold, out, edge_u, edge_v, is_bus, vec)
    n_edges, n_nodes = edge_u.size, is_bus.size
    ncols = math.prod(out.shape[1:])
    c.repro_bus_fold((out, n_nodes * ncols), (edge_u, n_edges), (edge_v, n_edges),
                     (is_bus, n_nodes), (vec, n_edges * ncols), n_edges, n_nodes, ncols)


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
    c = _cc()
    if c is None:
        return _twin(_reference_apply_column, loads, vec, edge_u, edge_v, is_bus, n_edges, sign)
    return bool(c.repro_apply_column((loads, n_edges + is_bus.size), (vec, n_edges),
                                     (edge_u, n_edges), (edge_v, n_edges), (is_bus, 0),
                                     n_edges, sign))


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
    c = _cc()
    if c is None:
        return _twin(
            _reference_apply_columns_lanes, loads, lanes, cols, edge_u, edge_v, is_bus, n_edges
        )
    n_lanes, row_len = lanes.size, loads.shape[1]
    if row_len < n_edges + is_bus.size:
        raise TypeError(
            f"kernel argument loads: rows of {row_len} entries, expected at "
            f"least {n_edges + is_bus.size}"
        )
    neg = np.zeros(n_lanes, dtype=np.bool_)
    c.repro_apply_columns_lanes((loads, 0), row_len, (lanes, n_lanes), n_lanes,
                                (cols, n_edges * n_lanes), (edge_u, n_edges),
                                (edge_v, n_edges), (is_bus, 0), n_edges, (neg, n_lanes))
    return neg


def rescan(loads: np.ndarray, denom: np.ndarray) -> float:
    """Running-max repair: ``max(loads / denom)`` over one fused array."""
    c = _cc()
    if c is None:
        return _twin(_reference_rescan, loads, denom)
    n = loads.size
    # the C maximum starts at entry 0: an empty array is refused
    return float(c.repro_rescan((loads, n or 1), (denom, n), n))


def rescan_rows(loads: np.ndarray, rows: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Per-row fused rescan over selected lane rows of a stacked array.

    A row id outside ``loads``' rows raises
    :class:`~repro.errors.AlgorithmError` naming it, under every backend.
    """
    _check_lane_ids(loads, rows)
    c = _cc()
    if c is None:
        return _twin(_reference_rescan_rows, loads, rows, denom)
    n_rows, row_len = rows.size, loads.shape[1]
    out = np.empty(n_rows, dtype=np.float64)
    c.repro_rescan_rows((loads, 0), row_len, (rows, n_rows), n_rows, (denom, row_len),
                        (out, n_rows))
    return out


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
    c = _cc()
    if c is None:
        return _twin(_reference_charge_pairs, sub, u, v, w, congestion, stale, col)
    m = u.size
    status = c.repro_charge_pairs(*sub.c_args, (u, m), (v, m), (w, m), m, congestion, stale,
                                  None if col is None else (col, sub.n_edges))
    if status == -1:
        cost, congestion, stale = sub.out.tolist()
        return cost, congestion, bool(stale)
    if status == -2:
        raise MemoryError("cc charge_pairs could not allocate its scratch")
    raise _bad_pair_error(u, v, status, sub.n_nodes)


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
    c = _cc()
    if c is None:
        return _twin(
            _reference_adaptive_scan, holder_mask, read_credit, unread_writes,
            n_holders, up, depth, procs, writes, objs, order, replicate_at,
            migrate_at, patience,
        )
    n_objects, n_nodes = holder_mask.shape
    levels = up.shape[0]
    cells, m = n_objects * n_nodes, order.size
    if up.shape[-1] != n_nodes:
        raise TypeError(
            f"kernel argument up: a lifting table over {up.shape[-1]} "
            f"nodes, expected {n_nodes} (the holder mask's columns)"
        )
    result = (ctypes.c_int64 * 2)()
    status = c.repro_adaptive_scan(
        (holder_mask, cells),
        (read_credit, cells),
        (unread_writes, cells),
        (n_holders, n_objects),
        n_objects,
        n_nodes,
        (up, levels * n_nodes),
        levels,
        (depth, n_nodes),
        (procs, m),
        (writes, m),
        (objs, m),
        (order, m),
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
        c.repro_free(block)
    return _scan_records(flat.tolist())


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
    c = _cc()
    if c is None:
        return _twin(_reference_nearest_tables, parent, order, depth, indptr, members)
    n_sets = indptr.size - 1
    out = np.empty((n_sets, n), dtype=np.int64)
    c.repro_nearest_tables((parent, n), (order, n), n, (indptr, n_sets + 1),
                           (members, int(indptr[-1])), n_sets, (out, n_sets * n))
    return out


def scan_requests(line: bytes) -> Optional[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """One ``requests`` wire line as ``(id, procs, objs, writes)``, or ``None``.

    The line is taken only when it is one JSON object whose members are
    exactly ``"type": "requests"``, ``"id": INT`` and ``"events": ROWS``,
    in any order and each once, with JSON whitespace between tokens and
    nothing after the object.  ``ROWS`` is an array of ``[INT, INT,
    KIND]``, ``KIND`` one of ``"r"``, ``"w"``, ``"read"``, ``"write"``
    without escapes, and ``INT`` is ``-?(0|[1-9][0-9]*)`` in int64, not
    followed by ``.``, ``e``, ``E`` or a digit.  Every other line (and
    every line under the numpy backend) is declined with ``None``: the
    caller decodes it the reference way, which gives the same message
    for every line this scan takes.  Returns the int64 ``procs`` and
    ``objs`` and the bool ``writes`` columns.
    """
    c = _cc()
    if c is None:
        return _twin(_reference_scan_requests, line)
    if type(line) is not bytes:
        return None
    n = len(line)
    # a row takes at least ten bytes, `[0,0,"r"],` (the last one nine)
    cap = n // 10 + 1
    procs = np.empty(cap, dtype=np.int64)
    objs = np.empty(cap, dtype=np.int64)
    writes = np.empty(cap, dtype=np.bool_)
    ident = (ctypes.c_int64 * 1)()
    rows = c.repro_scan_requests(line, n, cap, (procs, cap), (objs, cap), (writes, cap), ident)
    if rows < 0:
        return None
    return ident[0], procs[:rows], objs[:rows], writes[:rows]


def events_item(procs: np.ndarray, objs: np.ndarray, writes: np.ndarray) -> bytes:
    """The journal's v2 events item of one batch, newline included.

    ``{"events":{"procs":[...],"objs":[...],"writes":[...]}}`` in compact
    JSON, ``writes`` listing the positions of the write requests: byte for
    byte what ``json.dumps`` writes for the int64 ``procs``/``objs`` and
    bool ``writes`` columns of one size.
    """
    c = _cc()
    if c is None:
        return _twin(_reference_events_item, procs, objs, writes)
    m = procs.size
    cap = 46 + 63 * m  # the fixed text, and 20 digits and a comma per entry
    out = np.empty(cap, dtype=np.uint8)
    size = c.repro_events_item((procs, m), (objs, m), (writes, m), m, (out, cap), cap)
    return out[:size].tobytes()
