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

The suite also pins the backend-*independent* rewrite that rode along
with the kernels, :func:`repro.core.kernels.aggregate_pairs`, against the
historical ``np.unique(np.stack(...), axis=1)`` aggregation, and closes
with substrate-level end-to-end checks (PathMatrix batch ops
and LoadState replay under every backend vs the numpy backend).  The
fused pair charge is checked on a LoadState (with its journal and
rollback) and on a lane of a multi-lane stack, against its twin and
against the unfused composition it replaced.  The adaptive counter scan is checked
call by call inside real adaptive replays, one-event chunks included:
every call runs the twin on a copy of the state and must return the same
records and leave the same counters, holder masks and holder counts.

The op-level tests take their substrate network and rng from each drawn
case of ``tests/fuzz.py``, and the case oracle replays the case's whole
roster as one fleet under each backend: each member's records and load
bytes must be equal, with every counter scan call twin-checked on the way.
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.loadstate import LoadState, StackedLoadState
from repro.dynamic.online import EdgeCounterManager, RentOrBuyManager
from repro.dynamic.sequence import RequestEvent, RequestSequence
from repro.network.builders import balanced_tree
from repro.network.mutation import AttachLeaf, DetachLeaf, apply_mutation
from repro.sim.engine import SimulationEngine
from repro.workload.churn import random_valid_mutation
from tests.fuzz import adaptive_only_factories, crossing_sequence, record_of
from tests.scalar_oracle import add_holder, materialise

#: Backends to pin against the reference (everything available but numpy).
COMPILED = tuple(b for b in kernels.available_backends() if b != "numpy")

if not COMPILED:  # pragma: no cover - only in compiler-less environments
    pytest.skip(
        "no compiled kernel backend available in this environment",
        allow_module_level=True,
    )


def _substrate(case):
    """The case's network and path matrix, plus an rng seeded by the case."""
    net = case.built.network
    return net, net.rooted().path_matrix(), np.random.default_rng(case.seed)


def _int_floats(rng, *shape):
    """Integer-valued float64 arrays: the cost model's charge domain."""
    return rng.integers(0, 9, size=shape).astype(np.float64)


@pytest.mark.parametrize("backend", COMPILED)
class TestKernelOpsBitwise:
    """Each compiled kernel op is bitwise-equal to its numpy reference."""

    def test_lca(self, backend, case):
        net, pm, rng = _substrate(case)
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

    def test_scatter_paths_1d(self, backend, case):
        net, pm, rng = _substrate(case)
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

    def test_scatter_paths_2d(self, backend, case):
        net, pm, rng = _substrate(case)
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

    def test_pair_scatter(self, backend, case):
        net, pm, rng = _substrate(case)
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

    def test_pair_scatter_lanes(self, backend, case):
        net, pm, rng = _substrate(case)
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

    def test_bus_fold_1d(self, backend, case):
        net, pm, rng = _substrate(case)
        vec = _int_floats(rng, net.n_edges)
        ref = np.zeros(net.n_nodes, dtype=np.float64)
        got = np.zeros(net.n_nodes, dtype=np.float64)
        kernels._reference_bus_fold(ref, pm._edge_u, pm._edge_v, pm._bus_mask, vec)
        with kernels.use_backend(backend):
            kernels.bus_fold(got, pm._edge_u, pm._edge_v, pm._bus_mask, vec)
        assert np.array_equal(got, ref)

    def test_bus_fold_2d(self, backend, case):
        net, pm, rng = _substrate(case)
        ncols = int(rng.integers(1, 5))
        vec = _int_floats(rng, net.n_edges, ncols)
        ref = np.zeros((net.n_nodes, ncols), dtype=np.float64)
        got = np.zeros((net.n_nodes, ncols), dtype=np.float64)
        kernels._reference_bus_fold(ref, pm._edge_u, pm._edge_v, pm._bus_mask, vec)
        with kernels.use_backend(backend):
            kernels.bus_fold(got, pm._edge_u, pm._edge_v, pm._bus_mask, vec)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_apply_column(self, backend, case, sign):
        net, pm, rng = _substrate(case)
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

    def test_apply_columns_lanes(self, backend, case):
        net, pm, rng = _substrate(case)
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

    def test_nearest_tables(self, backend, case):
        net, _pm, rng = _substrate(case)
        views = [net.rooted(int(rng.integers(net.n_nodes)))]
        rooted = net.rooted()
        for _ in range(4):  # repaired views keep only a topological order
            outcome = apply_mutation(net, random_valid_mutation(net, rng))
            rooted, net = rooted.repaired(outcome), outcome.network
            views.append(rooted)
        for view in views:
            sizes = rng.integers(1, 5, size=6)
            indptr = np.concatenate([[0], np.cumsum(sizes)])
            members = rng.integers(0, view.network.n_nodes, size=int(indptr[-1]))
            args = (view._parent, view._order, view._depth, indptr, members)
            ref = kernels._reference_nearest_tables(*args)
            with kernels.use_backend(backend):
                got = kernels.nearest_tables(*args)
            assert got.dtype == np.int64
            assert np.array_equal(got, ref)

    def test_rescan(self, backend, case):
        rng = np.random.default_rng(case.seed)
        n = int(rng.integers(1, 64))
        loads = _int_floats(rng, n)
        denom = rng.integers(1, 5, size=n).astype(np.float64)
        ref = kernels._reference_rescan(loads, denom)
        with kernels.use_backend(backend):
            got = kernels.rescan(loads, denom)
        assert got == ref

    def test_rescan_rows(self, backend, case):
        rng = np.random.default_rng(case.seed)
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


def _pair_charge_inputs(case, sign):
    """A seeded substrate, a pre-charge column and ``sign``-weighted pairs
    between arbitrary nodes (buses and repeated endpoints included)."""
    net, pm, rng = _substrate(case)
    m = 40
    u = rng.integers(0, net.n_nodes, size=m)
    v = rng.integers(0, net.n_nodes, size=m)
    w = sign * _int_floats(rng, m)
    base = _int_floats(rng, net.n_edges)
    return net, pm, rng, u, v, w, base


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("sign", [1.0, -1.0])
class TestFusedPairCharge:
    """``kernels.charge_pairs`` (one C call) equals its numpy twin, bit for
    bit, on a LoadState and on a lane of a three-lane stack, with the
    journal."""

    def test_op_equals_twin(self, backend, case, sign):
        net, _, rng, u, v, w, base = _pair_charge_inputs(case, sign)
        stale = bool(rng.integers(0, 2))
        results = {}
        for name in ("numpy", backend):
            state = LoadState(net)
            state.apply_edge_loads(base)
            sub = state.stack._pair_substrate(0)
            col = np.full(net.n_edges, np.nan)  # overwritten by the op
            with kernels.use_backend(name):
                out = kernels.charge_pairs(
                    sub, u, v, w, state.congestion, stale, col
                )
            results[name] = (sub.loads.tobytes(), out, col.tobytes())
        assert results["numpy"] == results[backend]

    def test_loadstate_journal_and_rollback(self, backend, case, sign):
        net, _, _, u, v, w, base = _pair_charge_inputs(case, sign)
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

    def test_lane_row(self, backend, case, sign):
        net, _, rng, u, v, w, base = _pair_charge_inputs(case, sign)
        columns = _int_floats(rng, net.n_edges, 3)
        results = {}
        for name in ("numpy", backend):
            with kernels.use_backend(name):
                stacked = StackedLoadState(net, 3)
                for k, lane in enumerate(stacked.lanes):
                    lane.apply_edge_loads(columns[:, k])
                cost = stacked.lanes[1].apply_pairs(u, v, w)
                solo = LoadState(net)
                solo.apply_edge_loads(columns[:, 1])
                solo_cost = solo.apply_pairs(u, v, w)
            lane = stacked.lanes[1]
            assert lane._loads.tobytes() == solo._loads.tobytes()
            assert (cost, lane._congestion, lane._stale) == (
                solo_cost, solo._congestion, solo._stale
            )
            results[name] = (
                stacked._loads.tobytes(),
                [(lane._congestion, lane._stale) for lane in stacked.lanes],
                cost,
            )
        assert results["numpy"] == results[backend]

    def test_equals_unfused_composition(self, backend, case, sign):
        """The fused charge equals the path-matrix column applied through
        ``apply_edge_loads`` plus the ``distances`` cost it replaced."""
        net, pm, _, u, v, w, base = _pair_charge_inputs(case, sign)
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

    def test_aggregate_pairs_matches_stack_unique(self, case):
        rng = np.random.default_rng(case.seed)
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


@pytest.mark.parametrize("backend", COMPILED)
class TestSubstrateEndToEnd:
    """Whole substrate operations agree across backends, bit for bit."""

    def test_pathmatrix_batch_ops(self, backend, case):
        net, pm, rng = _substrate(case)
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

    def test_loadstate_replay(self, backend, case):
        net, _, rng = _substrate(case)
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

    def test_stacked_replay(self, backend, case):
        net, _, rng = _substrate(case)
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
                    for j, k in enumerate(lanes):
                        stacked.lanes[k].apply_edge_loads(cols[:, j])
                outputs[name] = (
                    stacked._loads.copy(),
                    [lane.congestion for lane in stacked.lanes],
                )
        assert np.array_equal(outputs["numpy"][0], outputs[backend][0])
        assert np.array_equal(outputs["numpy"][1], outputs[backend][1])


# --------------------------------------------------------------------- #
# the adaptive counter scan (phase 1 of the batched adaptive replay)
# --------------------------------------------------------------------- #
def _twin_checked_scans(monkeypatch, backend):
    """Route every ``kernels.adaptive_scan`` call through both backends.

    The numpy twin runs on copies of the state arrays, ``backend`` on the
    live ones; records and the final counters, holder masks and holder
    counts must be equal.  Returns the list of the
    calls' records, so a test can check that the op ran at all.
    """
    op = kernels.adaptive_scan
    calls = []

    def checked(*args):
        state = args[:4]
        copies = [a.copy() for a in state]
        with kernels.use_backend("numpy"):
            expected = op(*copies, *args[4:])
        with kernels.use_backend(backend):
            got = op(*args)
        assert got == expected
        for live, copy in zip(state, copies):
            assert live.dtype == copy.dtype and live.tobytes() == copy.tobytes()
        calls.append(got)
        return got

    monkeypatch.setattr(kernels, "adaptive_scan", checked)
    return calls


def _scan_once(backend, manager, events, monkeypatch):
    """Serve ``events`` as one chunk through ``manager``, twin-checked;
    returns the scan's ``(runs, mgmt_direct, mgmt_rep)`` and the objects
    whose holder set changed, ascending."""
    calls = _twin_checked_scans(monkeypatch, backend)
    seq = RequestSequence(events, manager.n_objects)
    objects = range(manager.n_objects)
    before = [manager.holders(obj) for obj in objects]
    manager.serve_chunk(seq, 0, len(seq))
    (records,) = calls
    changed = [obj for obj in objects if manager.holders(obj) != before[obj]]
    return (*records, changed)


@pytest.fixture(scope="module")
def fleet_records():
    """``records(case, backend)``: the records of the case's roster replayed
    as one fleet under ``backend``, computed once per pair for all of the
    roster's members.  Under a compiled backend every counter scan call is
    checked against its twin on the way, and at least one must run."""
    memo = {}

    def records(case, backend):
        key = (case.to_json(), backend)
        if key not in memo:
            with pytest.MonkeyPatch.context() as patch, kernels.use_backend(backend):
                calls = [] if backend == "numpy" else _twin_checked_scans(patch, backend)
                fleet = [record_of(result) for result in case.fleet()]
            assert calls or backend == "numpy"
            memo[key] = fleet
        return memo[key]

    return records


@pytest.mark.parametrize("backend", COMPILED)
def test_records_equal_the_reference(backend, member, fleet_records):
    """A member's lane of the case's roster, replayed as one fleet, leaves
    the same record and load bytes under ``backend`` as under numpy (a
    fleet equals its members replayed alone on either backend, so that
    covers them too)."""
    case, index = member
    assert fleet_records(case, backend)[index] == fleet_records(case, "numpy")[index]


@pytest.mark.parametrize("backend", COMPILED)
class TestAdaptiveScan:
    """``kernels.adaptive_scan`` (one C call per chunk) equals its numpy
    twin, the Python counter scan, call by call."""

    @pytest.mark.parametrize("chunk_size", tuple(range(1, 14)))
    def test_crossing_sequence(self, backend, chunk_size, monkeypatch):
        net = balanced_tree(2, 2, 2)
        seq = crossing_sequence(net)
        calls = _twin_checked_scans(monkeypatch, backend)
        for factory in adaptive_only_factories(net, seq.n_objects):
            SimulationEngine(factory(), chunk_size=chunk_size).run(seq)
        assert calls

    def test_after_grow_and_detach_rehome(self, backend, monkeypatch):
        net = balanced_tree(2, 2, 2)
        manager = EdgeCounterManager(net, 2, object_size=2)
        procs = list(net.processors)
        lone = procs[-1]
        _scan_once(backend, manager, [RequestEvent(lone, 0, "read"),
                                      RequestEvent(procs[0], 1, "write"),
                                      RequestEvent(procs[1], 1, "read")],
                   monkeypatch)
        outcome = apply_mutation(manager.network, AttachLeaf(bus=net.buses[-1]))
        manager.apply_mutation(outcome)
        fresh = outcome.network.n_nodes - 1
        assert manager._adaptive.n_nodes == outcome.network.n_nodes
        runs, direct, rep, changed = _scan_once(
            backend, manager,
            [RequestEvent(fresh, 1, "read"), RequestEvent(fresh, 1, "read"),
             RequestEvent(fresh, 0, "write"), RequestEvent(fresh, 0, "write")],
            monkeypatch,
        )
        assert rep and direct and changed == [0, 1]
        # object 0 now lives on the fresh leaf alone: detaching it strands
        # the copy, which the repair re-homes onto the nearest survivor
        outcome = apply_mutation(manager.network, DetachLeaf(processor=fresh))
        manager.apply_mutation(outcome)
        (home,) = manager.holders(0)
        runs, *_ = _scan_once(
            backend, manager,
            [RequestEvent(procs[0], 0, "write"), RequestEvent(home, 0, "read"),
             RequestEvent(procs[1], 1, "write")],
            monkeypatch,
        )
        assert runs[0][:2] == (0, (home,))

    def test_equidistant_writer_picks_the_smallest_holder(self, backend, monkeypatch):
        net = balanced_tree(2, 2, 2)
        rooted = net.rooted()
        procs = sorted(net.processors)
        writer, a, b = next(
            (w, a, b) for w in procs for a in procs for b in procs
            if len({w, a, b}) == 3 and a < b
            and rooted.distance(w, a) == rooted.distance(w, b)
        )
        manager = EdgeCounterManager(net, 1, object_size=4, invalidation_patience=2)
        adaptive = manager._adaptive
        materialise(adaptive, 0, a)
        add_holder(adaptive, 0, b)
        runs, direct, rep, changed = _scan_once(
            backend, manager,
            [RequestEvent(writer, 0, "write"), RequestEvent(writer, 0, "write")],
            monkeypatch,
        )
        # the tie goes to a, so b ages out on the second write
        assert runs[0] == (0, (a, b), 0, 2, 2) and changed == [0]
        assert manager.holders(0) == {a}

    def test_mid_chunk_first_touch(self, backend, monkeypatch):
        net = balanced_tree(2, 2, 2)
        p, q, r = net.processors[:3]
        manager = EdgeCounterManager(net, 3, object_size=2)
        runs, direct, rep, changed = _scan_once(
            backend, manager,
            [RequestEvent(p, 0, "read"), RequestEvent(q, 0, "read"),
             RequestEvent(q, 0, "read"), RequestEvent(r, 2, "write"),
             RequestEvent(p, 2, "read"), RequestEvent(p, 2, "read")],
            monkeypatch,
        )
        assert changed == [0, 2]
        assert manager.holders(0) == {p, q} and manager.holders(2) == {p, r}
        assert manager.holders(1) == set()

    def test_threshold_beyond_int64_never_trips(self, backend, monkeypatch):
        net = balanced_tree(2, 2, 2)
        manager = RentOrBuyManager(
            net, 1, replicate_threshold=2**70, migrate_threshold=2**70
        )
        procs = net.processors
        events = [RequestEvent(procs[0], 0, "read")] + [
            RequestEvent(procs[1 + k % 3], 0, "write" if k % 2 else "read")
            for k in range(60)
        ]
        runs, direct, rep, changed = _scan_once(backend, manager, events, monkeypatch)
        assert runs == [(0, (procs[0],), 0, 61, 30)]
        assert direct == rep == [] and changed == [0]
        assert manager._adaptive.read_credit[0, procs[1:4]].sum() == 60

    def test_worst_case_chunk_has_no_output_cap(self, backend, monkeypatch):
        """Every read replicates and every write invalidates: the records
        grow quadratically with the chunk and must neither truncate nor
        fail."""
        net = balanced_tree(3, 3, 4)
        procs = list(net.processors)
        manager = RentOrBuyManager(
            net, 1, invalidation_patience=1, replicate_threshold=1,
            migrate_threshold=1,
        )
        events = []
        for k in range(8):
            events += [RequestEvent(p, 0, "read") for p in procs]
            events.append(RequestEvent(procs[k], 0, "write"))
        runs, direct, rep, changed = _scan_once(backend, manager, events, monkeypatch)
        n_reads = 8 * len(procs)
        # every read by a non-holder replicates and every write leaves one
        # copy, each ending a run (the chunk ends on a write)
        assert len(rep) == 8 * (len(procs) - 1)
        assert len(runs) == len(rep) + 8
        assert sum(len(holders) for _o, holders, *_ in runs) > n_reads * 8
        assert manager.holders(0) == {procs[7]}
