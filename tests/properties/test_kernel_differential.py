"""Differential fuzz harness: compiled kernels equal the numpy reference.

Pins ARCHITECTURE.md invariant 9 ("compiled equals reference,
bit-for-bit").  Every kernel operation of :mod:`repro.core.kernels` is
run against its numpy ``_reference_*`` twin on seeded random inputs, on
the compiled ``cc`` backend (available wherever a C compiler exists).
Equality is exact -- ``np.array_equal`` on the mutated buffers and
returned arrays, never ``allclose``: all charges of the cost model are
integer-valued request counts, so every float addition the kernels
perform is exact in double precision and addition order cannot change
the result.

The suite also pins the two backend-*independent* rewrites that rode
along with the kernels:

* :func:`repro.core.kernels.aggregate_pairs` against the historical
  ``np.unique(np.stack(...), axis=1)`` aggregation;
* ``StaticPlacementManager._aggregate_chunk`` against its retained
  ``_reference_aggregate_chunk`` twin;

and closes with substrate-level end-to-end checks (PathMatrix batch ops
and LoadState replay under every backend vs the numpy backend).  The
fused pair charge is checked on a LoadState (with its journal and
rollback) and on a LaneState row, against its twin and against the
unfused composition it replaced.

The seed matrix is extendable via the ``REPRO_KERNEL_SEEDS`` environment
variable (comma-separated integers), which CI uses to pin a fixed
matrix.
"""

import os

import numpy as np
import pytest

from repro.core import kernels
from repro.core.loadstate import LoadState, StackedLoadState
from repro.dynamic.online import StaticPlacementManager
from repro.dynamic.sequence import RequestSequence, sequence_from_pattern
from repro.network.builders import balanced_tree, random_tree
from repro.workload.generators import random_sparse_pattern

DEFAULT_SEEDS = (0, 1, 2, 3)


def _seed_matrix():
    raw = os.environ.get("REPRO_KERNEL_SEEDS", "")
    if raw.strip():
        return tuple(int(s) for s in raw.split(","))
    return DEFAULT_SEEDS


SEEDS = _seed_matrix()

#: Backends to pin against the reference (everything available but numpy).
COMPILED = tuple(b for b in kernels.available_backends() if b != "numpy")

if not COMPILED:  # pragma: no cover - only in compiler-less environments
    pytest.skip(
        "no compiled kernel backend available in this environment",
        allow_module_level=True,
    )


def _substrate(seed):
    """A real path-matrix substrate plus an rng, from a seeded random tree."""
    rng = np.random.default_rng(seed)
    net = random_tree(
        int(rng.integers(3, 9)), int(rng.integers(6, 20)), seed=seed
    )
    pm = net.rooted().path_matrix()
    return net, pm, rng


def _int_floats(rng, *shape):
    """Integer-valued float64 arrays: the cost model's charge domain."""
    return rng.integers(0, 9, size=shape).astype(np.float64)


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("seed", SEEDS)
class TestKernelOpsBitwise:
    """Each compiled kernel op is bitwise-equal to its numpy reference."""

    def test_lca(self, backend, seed):
        net, pm, rng = _substrate(seed)
        m = 64
        u = rng.integers(0, net.n_nodes, size=m)
        v = rng.integers(0, net.n_nodes, size=m)
        # fresh copies per call: the kernels may clobber u and v
        expected = kernels._reference_lca(
            pm._up.astype(np.int64), pm._depth, u.copy(), v.copy()
        )
        with kernels.use_backend(backend):
            got = kernels.lca(pm._up, pm._depth, u.copy(), v.copy())
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_scatter_paths_1d(self, backend, seed):
        net, pm, rng = _substrate(seed)
        delta = _int_floats(rng, net.n_nodes) - 4.0
        ref = np.zeros(net.n_edges, dtype=np.float64)
        got = np.zeros(net.n_edges, dtype=np.float64)
        kernels._reference_scatter_paths(
            ref, pm._rp_edges, pm._rp_nodes, pm._rp_indptr, delta
        )
        with kernels.use_backend(backend):
            kernels.scatter_paths(
                got, pm._rp_edges, pm._rp_nodes, pm._rp_indptr, delta
            )
        assert np.array_equal(got, ref)

    def test_scatter_paths_2d(self, backend, seed):
        net, pm, rng = _substrate(seed)
        ncols = int(rng.integers(1, 5))
        delta = _int_floats(rng, net.n_nodes, ncols) - 4.0
        ref = np.zeros((net.n_edges, ncols), dtype=np.float64)
        got = np.zeros((net.n_edges, ncols), dtype=np.float64)
        kernels._reference_scatter_paths(
            ref, pm._rp_edges, pm._rp_nodes, pm._rp_indptr, delta
        )
        with kernels.use_backend(backend):
            kernels.scatter_paths(
                got, pm._rp_edges, pm._rp_nodes, pm._rp_indptr, delta
            )
        assert np.array_equal(got, ref)

    def test_pair_scatter(self, backend, seed):
        net, pm, rng = _substrate(seed)
        m = 48
        procs = np.asarray(net.processors)
        u = rng.choice(procs, size=m)
        v = rng.choice(procs, size=m)
        with kernels.use_backend("numpy"):
            anc = kernels.lca(pm._up, pm._depth, u.copy(), v.copy())
        w = _int_floats(rng, m)
        ref = _int_floats(rng, net.n_nodes)
        got = ref.copy()
        kernels._reference_pair_scatter(ref, u, v, anc, w)
        with kernels.use_backend(backend):
            kernels.pair_scatter(got, u, v, anc, w)
        assert np.array_equal(got, ref)

    def test_pair_scatter_lanes(self, backend, seed):
        net, pm, rng = _substrate(seed)
        m, lanes = 32, int(rng.integers(1, 6))
        procs = np.asarray(net.processors)
        u = rng.choice(procs, size=m)
        targets = rng.choice(procs, size=(m, lanes))
        anc = np.empty((m, lanes), dtype=np.int64)
        with kernels.use_backend("numpy"):
            for k in range(lanes):
                anc[:, k] = kernels.lca(
                    pm._up, pm._depth, u.copy(), targets[:, k].copy()
                )
        w = _int_floats(rng, m)
        ref = np.zeros((net.n_nodes, lanes), dtype=np.float64)
        got = np.zeros((net.n_nodes, lanes), dtype=np.float64)
        kernels._reference_pair_scatter_lanes(ref, u, targets, anc, w)
        with kernels.use_backend(backend):
            kernels.pair_scatter_lanes(
                got, u, np.ascontiguousarray(targets), np.ascontiguousarray(anc), w
            )
        assert np.array_equal(got, ref)

    def test_bus_fold_1d(self, backend, seed):
        net, pm, rng = _substrate(seed)
        vec = _int_floats(rng, net.n_edges)
        ref = np.zeros(net.n_nodes, dtype=np.float64)
        got = np.zeros(net.n_nodes, dtype=np.float64)
        kernels._reference_bus_fold(ref, pm._edge_u, pm._edge_v, pm._bus_mask, vec)
        with kernels.use_backend(backend):
            kernels.bus_fold(got, pm._edge_u, pm._edge_v, pm._bus_mask, vec)
        assert np.array_equal(got, ref)

    def test_bus_fold_2d(self, backend, seed):
        net, pm, rng = _substrate(seed)
        ncols = int(rng.integers(1, 5))
        vec = _int_floats(rng, net.n_edges, ncols)
        ref = np.zeros((net.n_nodes, ncols), dtype=np.float64)
        got = np.zeros((net.n_nodes, ncols), dtype=np.float64)
        kernels._reference_bus_fold(ref, pm._edge_u, pm._edge_v, pm._bus_mask, vec)
        with kernels.use_backend(backend):
            kernels.bus_fold(got, pm._edge_u, pm._edge_v, pm._bus_mask, vec)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_apply_column(self, backend, seed, sign):
        net, pm, rng = _substrate(seed)
        width = net.n_edges + net.n_nodes
        vec = _int_floats(rng, net.n_edges)
        if rng.integers(0, 2):
            vec[rng.integers(0, net.n_edges)] = -3.0  # exercise the neg flag
        ref = _int_floats(rng, width)
        got = ref.copy()
        neg_ref = kernels._reference_apply_column(
            ref, vec, pm._edge_u, pm._edge_v, pm._bus_mask, net.n_edges, sign
        )
        with kernels.use_backend(backend):
            neg_got = kernels.apply_column(
                got, vec, pm._edge_u, pm._edge_v, pm._bus_mask, net.n_edges, sign
            )
        assert neg_got == neg_ref
        assert np.array_equal(got, ref)

    def test_apply_columns_lanes(self, backend, seed):
        net, pm, rng = _substrate(seed)
        n_lanes = int(rng.integers(1, 5))
        width = net.n_edges + net.n_nodes
        sel = np.flatnonzero(rng.integers(0, 2, size=n_lanes))
        if sel.size == 0:
            sel = np.asarray([0], dtype=np.int64)
        cols = _int_floats(rng, net.n_edges, sel.size)
        cols[rng.integers(0, net.n_edges), rng.integers(0, sel.size)] = -2.0
        ref = _int_floats(rng, n_lanes, width)
        got = ref.copy()
        neg_ref = kernels._reference_apply_columns_lanes(
            ref, sel, cols, pm._edge_u, pm._edge_v, pm._bus_mask, net.n_edges
        )
        with kernels.use_backend(backend):
            neg_got = kernels.apply_columns_lanes(
                got, sel, cols, pm._edge_u, pm._edge_v, pm._bus_mask, net.n_edges
            )
        assert np.array_equal(np.asarray(neg_got), np.asarray(neg_ref))
        assert np.array_equal(got, ref)

    def test_rescan(self, backend, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 64))
        loads = _int_floats(rng, n)
        denom = rng.integers(1, 5, size=n).astype(np.float64)
        ref = kernels._reference_rescan(loads, denom)
        with kernels.use_backend(backend):
            got = kernels.rescan(loads, denom)
        assert got == ref

    def test_rescan_rows(self, backend, seed):
        rng = np.random.default_rng(seed)
        n_rows, width = int(rng.integers(1, 6)), int(rng.integers(1, 40))
        loads = _int_floats(rng, n_rows, width)
        denom = rng.integers(1, 5, size=width).astype(np.float64)
        rows = np.flatnonzero(rng.integers(0, 2, size=n_rows))
        if rows.size == 0:
            rows = np.asarray([0], dtype=np.int64)
        ref = kernels._reference_rescan_rows(loads, rows, denom)
        with kernels.use_backend(backend):
            got = kernels.rescan_rows(loads, rows, denom)
        assert got.dtype == np.float64
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("backend", COMPILED)
def test_nan_triggers_negative_flag(backend):
    """NaN entries must raise the stale flag on every backend (``not >= 0``)."""
    net = balanced_tree(2, 2, 2)
    pm = net.rooted().path_matrix()
    width = net.n_edges + net.n_nodes
    vec = np.zeros(net.n_edges, dtype=np.float64)
    vec[0] = np.nan
    flags = []
    for name in ("numpy", backend):
        with kernels.use_backend(name):
            flags.append(
                kernels.apply_column(
                    np.zeros(width),
                    vec,
                    pm._edge_u,
                    pm._edge_v,
                    pm._bus_mask,
                    net.n_edges,
                    1.0,
                )
            )
    assert flags == [True, True]


def _pair_charge_inputs(seed, sign):
    """A seeded substrate, a pre-charge column and ``sign``-weighted pairs
    between arbitrary nodes (buses and repeated endpoints included)."""
    net, pm, rng = _substrate(seed)
    m = 40
    u = rng.integers(0, net.n_nodes, size=m)
    v = rng.integers(0, net.n_nodes, size=m)
    w = sign * _int_floats(rng, m)
    base = _int_floats(rng, net.n_edges)
    return net, pm, rng, u, v, w, base


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("sign", [1.0, -1.0])
class TestFusedPairCharge:
    """``kernels.charge_pairs`` (one C call) equals its numpy twin, bit for
    bit, on a LoadState and on a LaneState row, with the journal."""

    def test_op_equals_twin(self, backend, seed, sign):
        net, _, rng, u, v, w, base = _pair_charge_inputs(seed, sign)
        stale = bool(rng.integers(0, 2))
        results = {}
        for name in ("numpy", backend):
            state = LoadState(net)
            state.apply_edge_loads(base)
            sub = state._pair_substrate()
            col = np.full(net.n_edges, np.nan)  # overwritten by the op
            with kernels.use_backend(name):
                out = kernels.charge_pairs(
                    sub, u, v, w, state.congestion, stale, col
                )
            results[name] = (sub.loads.tobytes(), out, col.tobytes())
        assert results["numpy"] == results[backend]

    def test_loadstate_journal_and_rollback(self, backend, seed, sign):
        net, _, _, u, v, w, base = _pair_charge_inputs(seed, sign)
        results = {}
        for name in ("numpy", backend):
            with kernels.use_backend(name):
                state = LoadState(net)
                state.apply_edge_loads(base)
                before = (state._loads.tobytes(), state.congestion, state._stale)
                snap = state.snapshot()
                cost = state.apply_pairs(u, v, w)
                kind, column, _ = state._journal[-1]
                charged = (
                    state._loads.tobytes(),
                    state._congestion,
                    state._stale,
                    cost,
                    kind,
                    column.tobytes(),
                )
                state.rollback(snap)
                rolled = (state._loads.tobytes(), state.congestion, state._stale)
            assert rolled == before
            results[name] = (charged, rolled)
        assert results["numpy"] == results[backend]

    def test_lane_row(self, backend, seed, sign):
        net, _, rng, u, v, w, base = _pair_charge_inputs(seed, sign)
        columns = _int_floats(rng, net.n_edges, 3)
        results = {}
        for name in ("numpy", backend):
            with kernels.use_backend(name):
                stacked = StackedLoadState(net, 3)
                stacked.apply_edge_loads_lanes(np.arange(3), columns)
                cost = stacked.lane(1).apply_pairs(u, v, w)
                solo = LoadState(net)
                solo.apply_edge_loads(columns[:, 1])
                solo_cost = solo.apply_pairs(u, v, w)
            assert stacked._loads[1].tobytes() == solo._loads.tobytes()
            assert (cost, stacked._congestion[1], stacked._stale[1]) == (
                solo_cost, solo._congestion, solo._stale
            )
            results[name] = (
                stacked._loads.tobytes(),
                stacked._congestion.tobytes(),
                stacked._stale.tobytes(),
                cost,
            )
        assert results["numpy"] == results[backend]

    def test_equals_unfused_composition(self, backend, seed, sign):
        """The fused charge equals the path-matrix column applied through
        ``apply_edge_loads`` plus the ``distances`` cost it replaced."""
        net, pm, _, u, v, w, base = _pair_charge_inputs(seed, sign)
        with kernels.use_backend(backend):
            fused = LoadState(net)
            fused.apply_edge_loads(base)
            cost = fused.apply_pairs(u, v, w)
            unfused = LoadState(net)
            unfused.apply_edge_loads(base)
            unfused.apply_edge_loads(pm.pair_edge_loads(u, v, w))
            expected_cost = float(pm.distances(u, v) @ w)
        assert fused._loads.tobytes() == unfused._loads.tobytes()
        assert (fused._congestion, fused._stale) == (
            unfused._congestion, unfused._stale
        )
        assert cost == expected_cost


class TestAggregationParity:
    """The key-encoded aggregation equals the historical axis=1 unique."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_aggregate_pairs_matches_stack_unique(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 200))
        procs = rng.integers(0, 40, size=n)
        objs = rng.integers(0, 17, size=n)
        uprocs, uobjs, counts = kernels.aggregate_pairs(procs, objs)
        if n == 0:
            assert uprocs.size == uobjs.size == counts.size == 0
            return
        pairs, ref_counts = np.unique(
            np.stack([procs, objs]), axis=1, return_counts=True
        )
        assert np.array_equal(uprocs, pairs[0])
        assert np.array_equal(uobjs, pairs[1])
        assert np.array_equal(counts, ref_counts)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_aggregate_chunk_matches_reference(self, seed):
        net = random_tree(4, 10, seed=seed)
        pat = random_sparse_pattern(net, 6, seed=seed)
        seq = sequence_from_pattern(net, pat, seed=seed)
        if len(seq) == 0:
            pytest.skip("empty sequence for this seed")
        rng = np.random.default_rng(seed)
        start = int(rng.integers(0, len(seq)))
        stop = int(rng.integers(start, len(seq) + 1))
        got = StaticPlacementManager._aggregate_chunk(seq, start, stop)
        ref = StaticPlacementManager._reference_aggregate_chunk(seq, start, stop)
        if ref is None:
            assert got is None
            return
        g_procs, g_counts, g_by_obj, g_written, g_wcounts = got
        r_procs, r_counts, r_by_obj, r_written, r_wcounts = ref
        assert np.array_equal(g_procs, r_procs)
        assert np.array_equal(g_counts, r_counts)
        assert np.array_equal(g_written, r_written)
        assert np.array_equal(g_wcounts, r_wcounts)
        assert len(g_by_obj) == len(r_by_obj)
        for (g_obj, g_rows), (r_obj, r_rows) in zip(g_by_obj, r_by_obj):
            assert g_obj == r_obj
            assert np.array_equal(g_rows, r_rows)

    def test_aggregate_chunk_empty(self):
        seq = RequestSequence([], 3)
        assert StaticPlacementManager._aggregate_chunk(seq, 0, 0) is None
        assert StaticPlacementManager._reference_aggregate_chunk(seq, 0, 0) is None


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("seed", SEEDS)
class TestSubstrateEndToEnd:
    """Whole substrate operations agree across backends, bit for bit."""

    def test_pathmatrix_batch_ops(self, backend, seed):
        net, pm, rng = _substrate(seed)
        procs = np.asarray(net.processors)
        m = 40
        u = rng.choice(procs, size=m)
        v = rng.choice(procs, size=m)
        w = _int_floats(rng, m)
        delta = _int_floats(rng, net.n_nodes) - 4.0
        fold_vec = _int_floats(rng, net.n_edges)
        results = {}
        for name in ("numpy", backend):
            with kernels.use_backend(name):
                results[name] = (
                    pm.lca(u, v),
                    pm.distances(u, v),
                    pm.pair_edge_loads(u, v, w),
                    pm.edge_loads_from_deltas(delta),
                    pm.bus_loads_from_edge_loads(fold_vec),
                )
        for a, b in zip(results["numpy"], results[backend]):
            assert np.array_equal(a, b)

    def test_loadstate_replay(self, backend, seed):
        net, _, rng = _substrate(seed)
        vectors = [_int_floats(rng, net.n_edges) for _ in range(6)]
        signs = rng.integers(0, 2, size=6)
        outputs = {}
        for name in ("numpy", backend):
            with kernels.use_backend(name):
                state = LoadState(net)
                for vec, negate in zip(vectors, signs):
                    state.apply_edge_loads(-vec if negate else vec)
                outputs[name] = (state._loads.copy(), state.congestion)
        assert np.array_equal(outputs["numpy"][0], outputs[backend][0])
        assert outputs["numpy"][1] == outputs[backend][1]

    def test_stacked_replay(self, backend, seed):
        net, _, rng = _substrate(seed)
        n_lanes = 3
        columns = [_int_floats(rng, net.n_edges, n_lanes) for _ in range(4)]
        lane_sets = [
            np.arange(n_lanes),
            np.asarray([0]),
            np.asarray([1, 2]),
            np.arange(n_lanes),
        ]
        outputs = {}
        for name in ("numpy", backend):
            with kernels.use_backend(name):
                stacked = StackedLoadState(net, n_lanes)
                for lanes, cols in zip(lane_sets, columns):
                    stacked.apply_edge_loads_lanes(lanes, cols[:, : lanes.size])
                outputs[name] = (stacked._loads.copy(), stacked.congestions)
        assert np.array_equal(outputs["numpy"][0], outputs[backend][0])
        assert np.array_equal(outputs["numpy"][1], outputs[backend][1])
