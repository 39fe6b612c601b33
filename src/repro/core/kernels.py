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
    Available wherever a C compiler is installed.

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
pins this down on a seed matrix, and the compiled library is built
without ``-ffast-math`` so IEEE semantics are preserved.

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
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import AlgorithmError, CapacityError

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
]

#: Narrowest safe index dtype of the substrate's CSR / lifting tables.
INDEX_DTYPE = np.int32

#: Recognised ``REPRO_BACKEND`` values, in auto-detection order.
BACKENDS = ("cc", "numpy")

_INT32_MAX = np.iinfo(np.int32).max


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
    implementation is retained as
    ``StaticPlacementManager._reference_aggregate_chunk`` and pinned by a
    differential test.
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
}


# --------------------------------------------------------------------- #
# cc backend: embedded C source, compiled once and cached by source hash
# --------------------------------------------------------------------- #
# No -ffast-math anywhere: additions must keep IEEE semantics so the
# integer-exactness argument of invariant 9 carries over unchanged.
_C_SOURCE = r"""
#include <stdint.h>

void repro_lca(const int32_t *up, int64_t levels, int64_t n,
               const int64_t *depth, const int64_t *u, const int64_t *v,
               int64_t m, int64_t *out)
{
    int64_t i, k;
    for (i = 0; i < m; i++) {
        int64_t a = u[i], b = v[i];
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
        out[i] = a;
    }
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


def _bind_cc_ops(lib: ctypes.CDLL) -> Dict[str, Callable]:
    ndp = np.ctypeslib.ndpointer
    f64 = ndp(dtype=np.float64, flags="C_CONTIGUOUS")
    i64 = ndp(dtype=np.int64, flags="C_CONTIGUOUS")
    i32 = ndp(dtype=np.int32, flags="C_CONTIGUOUS")
    u8 = ndp(dtype=np.uint8, flags="C_CONTIGUOUS")
    c64 = ctypes.c_int64

    lib.repro_lca.argtypes = [i32, c64, c64, i64, i64, i64, c64, i64]
    lib.repro_lca.restype = None
    lib.repro_scatter_paths.argtypes = [f64, i32, i64, f64, c64]
    lib.repro_scatter_paths.restype = None
    lib.repro_scatter_paths_cols.argtypes = [f64, i32, i64, f64, c64, c64]
    lib.repro_scatter_paths_cols.restype = None
    lib.repro_pair_scatter.argtypes = [f64, i64, i64, i64, f64, c64]
    lib.repro_pair_scatter.restype = None
    lib.repro_pair_scatter_lanes.argtypes = [f64, i64, i64, i64, f64, c64, c64]
    lib.repro_pair_scatter_lanes.restype = None
    lib.repro_bus_fold.argtypes = [f64, i32, i32, u8, f64, c64, c64]
    lib.repro_bus_fold.restype = None
    lib.repro_bus_fold_cols.argtypes = [f64, i32, i32, u8, f64, c64, c64, c64]
    lib.repro_bus_fold_cols.restype = None
    lib.repro_apply_column.argtypes = [f64, f64, i32, i32, u8, c64, ctypes.c_double]
    lib.repro_apply_column.restype = ctypes.c_int32
    lib.repro_apply_columns_lanes.argtypes = [
        f64, c64, i64, c64, f64, i32, i32, u8, c64, u8,
    ]
    lib.repro_apply_columns_lanes.restype = None
    lib.repro_rescan.argtypes = [f64, f64, c64]
    lib.repro_rescan.restype = ctypes.c_double
    lib.repro_rescan_rows.argtypes = [f64, c64, i64, c64, f64, f64]
    lib.repro_rescan_rows.restype = None

    def cc_lca(up, depth, u, v):
        out = np.empty(u.size, dtype=np.int64)
        if u.size:
            lib.repro_lca(up, up.shape[0], up.shape[1], depth, u, v, u.size, out)
        return out

    def cc_scatter_paths(out, rp_edges, rp_nodes, rp_indptr, delta):
        n_nodes = rp_indptr.size - 1
        if out.ndim == 1:
            lib.repro_scatter_paths(out, rp_edges, rp_indptr, delta, n_nodes)
        else:
            ncols = int(np.prod(out.shape[1:]))
            lib.repro_scatter_paths_cols(
                out, rp_edges, rp_indptr, delta, n_nodes, ncols
            )

    def cc_pair_scatter(delta, u, v, anc, w):
        lib.repro_pair_scatter(delta, u, v, anc, w, u.size)

    def cc_pair_scatter_lanes(delta, u, targets, anc, w):
        lib.repro_pair_scatter_lanes(
            delta, u, targets, anc, w, u.size, targets.shape[1]
        )

    def cc_bus_fold(out, edge_u, edge_v, is_bus, vec):
        mask = is_bus.view(np.uint8)
        if out.ndim == 1:
            lib.repro_bus_fold(
                out, edge_u, edge_v, mask, vec, edge_u.size, out.shape[0]
            )
        else:
            ncols = int(np.prod(out.shape[1:]))
            lib.repro_bus_fold_cols(
                out, edge_u, edge_v, mask, vec, edge_u.size, out.shape[0], ncols
            )

    def cc_apply_column(loads, vec, edge_u, edge_v, is_bus, n_edges, sign):
        return bool(
            lib.repro_apply_column(
                loads, vec, edge_u, edge_v, is_bus.view(np.uint8), n_edges, sign
            )
        )

    def cc_apply_columns_lanes(loads, lanes, cols, edge_u, edge_v, is_bus, n_edges):
        neg = np.zeros(lanes.size, dtype=np.uint8)
        lib.repro_apply_columns_lanes(
            loads,
            loads.shape[1],
            lanes,
            lanes.size,
            cols,
            edge_u,
            edge_v,
            is_bus.view(np.uint8),
            n_edges,
            neg,
        )
        return neg.view(bool)

    def cc_rescan(loads, denom):
        return float(lib.repro_rescan(loads, denom, loads.size))

    def cc_rescan_rows(loads, rows, denom):
        out = np.empty(rows.size, dtype=np.float64)
        if rows.size:
            lib.repro_rescan_rows(
                loads, loads.shape[1], rows, rows.size, denom, out
            )
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
    a flat int64 ancestor array.
    """
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

    Returns the per-lane "any negative entry" bool array.
    """
    return _op("apply_columns_lanes")(
        loads, lanes, cols, edge_u, edge_v, is_bus, n_edges
    )


def rescan(loads: np.ndarray, denom: np.ndarray) -> float:
    """Running-max repair: ``max(loads / denom)`` over one fused array."""
    return _op("rescan")(loads, denom)


def rescan_rows(loads: np.ndarray, rows: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Per-row fused rescan over selected lane rows of a stacked array."""
    return _op("rescan_rows")(loads, rows, denom)
