"""The raw-pointer cc bindings: checked arguments, read from the prototypes.

The cc ops are bound with plain addresses (``ctypes.c_void_p``), which
ctypes passes without looking at them.  So:

* every array argument is checked against its C parameter, which must
  reject a wrong dtype, a non-contiguous array and a too-short array
  before any C code runs, leaving every input untouched;
* every op refuses a read-only array in an argument its C function
  writes (a non-``const`` pointer), under every backend, before anything
  is written, while a read-only array still passes into a ``const`` one;
* the fused pair charge range-checks its node ids and raises the same
  exception under both backends, with the loads untouched;
* the batched LCA and the nearest tables range-check the node ids they
  are given before either backend runs (a bad id used to crash the
  interpreter under cc and wrap around under numpy), and the nearest
  tables refuse an empty set and a tree too large for their int64 keys;
* the lane-broadcast apply and the per-row rescan range-check their lane
  ids the same way (a bad id used to write outside the load array under
  cc and charge the wrong lane or raise ``IndexError`` under numpy), and
  the apply refuses a repeated lane id (cc charged it twice, numpy once);
* the adaptive counter scan checks every CSR entry, object id,
  processor id and first-touch row before it writes a counter, raising
  the same exception under both backends, and under cc the batched
  replay runs the compiled scan, never its Python twin;
* the prototype parser sees every exported function of
  ``kernels._C_SOURCE`` (its ``argtypes`` and array checks come from
  there);
* the C source compiles cleanly under ``-Wall -Wextra -Werror``.
"""

import re
import subprocess

import numpy as np
import pytest

from repro.core import kernels
from repro.core.loadstate import LoadState
from repro.dynamic.adaptive_state import AdaptiveState
from repro.dynamic.online import EdgeCounterManager
from repro.dynamic.sequence import sequence_from_pattern
from repro.errors import AlgorithmError, CapacityError, InvalidNodeError, WorkloadError
from repro.network.builders import balanced_tree
from repro.sim.engine import SimulationEngine
from repro.workload.generators import zipf_pattern
from tests.scalar_oracle import materialise

HAVE_CC = "cc" in kernels.available_backends()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")


# --------------------------------------------------------------------- #
# argument checks
# --------------------------------------------------------------------- #
def _inputs():
    """Valid arguments of every kernel op on one small substrate."""
    net = balanced_tree(2, 2, 2)
    state = LoadState(net)
    state.apply_pairs([3, 4, 6], [5, 6, 3], [2.0, 1.0, 3.0])
    pm = state.pm
    n, n_edges = net.n_nodes, net.n_edges
    width = n_edges + n
    u = np.array([3, 4, 5, 6], dtype=np.int64)
    v = np.array([6, 5, 4, 3], dtype=np.int64)
    anc = np.array([0, 1, 1, 0], dtype=np.int64)
    w = np.array([1.0, 2.0, 3.0, 4.0])
    targets = np.stack([v, u], axis=1)
    anc2 = np.stack([anc, anc], axis=1)
    loads2 = np.arange(2 * width, dtype=np.float64).reshape(2, width)
    mask = pm._bus_mask
    edge_u, edge_v = pm._edge_u, pm._edge_v
    rooted = pm.rooted
    adaptive = AdaptiveState(3, n)
    materialise(adaptive, 0, 3)
    chunk_objs = np.array([0, 1, 0, 0, 2], dtype=np.int64)
    chunk = (
        np.array([4, 3, 5, 4, 6], dtype=np.int64),
        np.array([False, True, False, True, False]),
        chunk_objs,
        np.argsort(chunk_objs, kind="stable"),
    )
    return {
        "lca": (kernels.lca, (pm._up, pm._depth, u.copy(), v.copy())),
        "scatter_paths": (
            kernels.scatter_paths,
            (np.zeros(n_edges), pm._rp_edges, pm._rp_nodes, pm._rp_indptr, np.ones(n)),
        ),
        "pair_scatter": (kernels.pair_scatter, (np.zeros(n), u, v, anc, w)),
        "pair_scatter_lanes": (
            kernels.pair_scatter_lanes,
            (np.zeros((n, 2)), u, targets, anc2, w),
        ),
        "bus_fold": (
            kernels.bus_fold,
            (np.zeros(n), edge_u, edge_v, mask, np.ones(n_edges)),
        ),
        "apply_column": (
            kernels.apply_column,
            (np.zeros(width), np.ones(n_edges), edge_u, edge_v, mask, n_edges, 1.0),
        ),
        "apply_columns_lanes": (
            kernels.apply_columns_lanes,
            (
                loads2,
                np.array([1], dtype=np.int64),
                np.ones((n_edges, 1)),
                edge_u,
                edge_v,
                mask,
                n_edges,
            ),
        ),
        "rescan": (kernels.rescan, (state._loads, state.stack._denom)),
        "rescan_rows": (
            kernels.rescan_rows,
            (loads2, np.array([0, 1], dtype=np.int64), state.stack._denom),
        ),
        "charge_pairs": (
            kernels.charge_pairs,
            (state.stack._pair_substrate(0), u, v, w, 0.0, True, np.zeros(n_edges)),
        ),
        "adaptive_scan": (
            kernels.adaptive_scan,
            (
                adaptive.holder_mask,
                adaptive.read_credit,
                adaptive.unread_writes,
                adaptive.n_holders,
                pm._up,
                pm._depth,
                *chunk,
                2,
                2,
                2,
            ),
        ),
        "nearest_tables": (
            kernels.nearest_tables,
            (
                rooted._parent,
                rooted._order,
                rooted._depth,
                np.array([0, 2, 3], dtype=np.int64),
                np.array([3, 6, 4], dtype=np.int64),
            ),
        ),
        "scan_requests": (
            kernels.scan_requests,
            (b'{"type":"requests","id":1,"events":[[3,0,"r"],[4,1,"w"]]}\n',),
        ),
        "events_item": (
            kernels.events_item,
            (u.copy(), v.copy(), np.array([True, False, False, True])),
        ),
    }


def _strided(a):
    """The same values in a non-contiguous view."""
    return np.repeat(a, 2, axis=a.ndim - 1)[..., ::2]


def _float32(a):
    return a.astype(np.float32)


def _short(a):
    return np.ascontiguousarray(a[..., :-1]) if a.ndim == 2 else a[:-1]


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


#: op -> (position of an index array, of the array made non-contiguous, of
#: the array cut one entry short, of every array the op writes).  Where an
#: op's output length depends on index values (pair_scatter*), an array
#: tied to the input size is cut.
_BAD_ARGS = {
    "lca": (2, 3, 3, ()),
    "scatter_paths": (1, 4, 0, (0,)),
    "pair_scatter": (3, 1, 4, (0,)),
    "pair_scatter_lanes": (2, 3, 3, (0,)),
    "bus_fold": (1, 4, 0, (0,)),
    "apply_column": (3, 1, 0, (0,)),
    "apply_columns_lanes": (1, 2, 0, (0,)),
    "rescan": (1, 0, 1, ()),
    "rescan_rows": (1, 2, 2, ()),
    "charge_pairs": (1, 3, 6, (6,)),
    "adaptive_scan": (9, 0, 1, (0, 1, 2, 3)),
    "nearest_tables": (4, 1, 4, ()),
    "events_item": (0, 2, 1, ()),
}
#: ops that take no array: the wire scan reads one ``bytes`` line and stays
#: inside it, and declines any other argument
_ARRAYLESS = {"scan_requests"}


def _snapshot(args):
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    subs = [a for a in args if isinstance(a, kernels.PairSubstrate)]
    return [a.tobytes() for a in arrays] + [s.loads.tobytes() for s in subs]


def test_every_cc_op_is_covered():
    ops = {name.removeprefix("repro_") for name in kernels._prototypes(kernels._C_SOURCE)}
    assert set(_BAD_ARGS) | _ARRAYLESS == ops - {"free"} == set(_inputs())


_SPOILERS = {"float32": _float32, "strided": _strided, "short": _short, "read-only": _read_only}
#: (op, spoiler, position): the read-only spoiler meets every argument an
#: op writes, the others their one position of _BAD_ARGS
_BAD_CASES = [
    (op, spoiler, pos)
    for op, (*positions, written) in sorted(_BAD_ARGS.items())
    for spoiler, pos in [*zip(_SPOILERS, positions), *(("read-only", w) for w in written)]
]


@pytest.mark.parametrize("op, spoiler, pos", _BAD_CASES)
def test_bad_array_raises_before_the_c_code(op, spoiler, pos):
    # a read-only array is refused under every backend, the rest by the
    # checks of the cc binding
    backends = kernels.available_backends() if spoiler == "read-only" else ("cc",)
    if not set(backends) <= set(kernels.available_backends()):
        pytest.skip("no C compiler on PATH")
    for backend in backends:
        fn, args = _inputs()[op]
        args = list(args)
        args[pos] = _SPOILERS[spoiler](args[pos])
        before = _snapshot(args)
        with kernels.use_backend(backend):
            with pytest.raises(TypeError, match="kernel argument"):
                fn(*args)
        assert _snapshot(args) == before


@needs_cc
def test_rescan_refuses_an_empty_row():
    # the C maximum starts at entry 0, so an empty row would be read out
    # of bounds; numpy's max refuses it as well
    with kernels.use_backend("cc"):
        with pytest.raises(TypeError, match="kernel argument loads: .* at least 1 entries"):
            kernels.rescan(np.empty(0), np.empty(0))


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_a_substrate_over_a_read_only_row_is_refused(backend):
    fn, args = _inputs()["charge_pairs"]
    sub = args[0]
    with kernels.use_backend(backend):
        with pytest.raises(TypeError, match="kernel argument loads: the op writes"):
            kernels.PairSubstrate(
                sub.up, sub.depth, sub.rp_edges, sub.rp_nodes, sub.rp_indptr,
                sub.edge_u, sub.edge_v, sub.is_bus, sub.denom, _read_only(sub.loads),
            )


@pytest.mark.parametrize("op", sorted(_BAD_ARGS.keys() | _ARRAYLESS))
def test_valid_arguments_pass(op):
    for backend in kernels.available_backends():
        fn, args = _inputs()[op]
        with kernels.use_backend(backend):
            fn(*args)


@needs_cc
@pytest.mark.parametrize("op", sorted(_BAD_ARGS))
def test_read_only_arrays_pass_where_the_c_code_only_reads(op):
    fn, args = _inputs()[op]
    written = _BAD_ARGS[op][3]
    args = [
        _read_only(a) if isinstance(a, np.ndarray) and i not in written else a
        for i, a in enumerate(args)
    ]
    with kernels.use_backend("cc"):
        fn(*args)


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("bad", [-1, 7, 2**40])
def test_charge_pairs_rejects_a_node_outside_the_network(backend, bad):
    net = balanced_tree(2, 2, 2)  # nodes 0-6
    with kernels.use_backend(backend):
        state = LoadState(net)
        state.apply_pairs([3, 4], [6, 5], [1, 2])
        before = (state._loads.tobytes(), state.congestion, state._stale)
        snap = state.snapshot()
        with pytest.raises(InvalidNodeError, match="pair 1"):
            state.apply_pairs([3, bad, 5], [4, 3, 6], [1, 1, 1])
        with pytest.raises(InvalidNodeError, match="pair 0"):
            state.apply_pairs([6], [bad], [1])
        assert len(state._journal) == 0
        state.commit(snap)
        assert (state._loads.tobytes(), state.congestion, state._stale) == before


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("bad", [-2, 7, 10**6])
@pytest.mark.parametrize("side", ["u", "v"])
def test_lca_rejects_a_node_outside_the_network(backend, bad, side):
    _fn, (up, depth, u, v) = _inputs()["lca"]
    ids = {"u": u, "v": v}
    ids[side][2] = bad
    before = _snapshot((up, depth, u, v))
    with kernels.use_backend(backend):
        with pytest.raises(InvalidNodeError, match=f"node id {bad} is outside"):
            kernels.lca(up, depth, u, v)
    assert _snapshot((up, depth, u, v)) == before


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("bad", [-1, 2, 10**6])
@pytest.mark.parametrize("op", ["apply_columns_lanes", "rescan_rows"])
def test_lane_kernels_reject_a_lane_outside_the_loads(backend, bad, op):
    fn, args = _inputs()[op]
    args = list(args)
    args[1] = np.array([0, bad] if op == "rescan_rows" else [bad], dtype=np.int64)
    before = _snapshot(args)
    with kernels.use_backend(backend):
        with pytest.raises(AlgorithmError, match=f"lane id {bad} is outside .* 2 rows"):
            fn(*args)
    assert _snapshot(args) == before


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_apply_columns_lanes_rejects_a_repeated_lane(backend):
    fn, args = _inputs()["apply_columns_lanes"]
    args = list(args)
    args[1] = np.array([1, 1], dtype=np.int64)
    args[2] = np.ones((args[6], 2))
    before = _snapshot(args)
    with kernels.use_backend(backend):
        with pytest.raises(AlgorithmError, match="lane ids must be distinct"):
            fn(*args)
    assert _snapshot(args) == before


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_path_matrix_queries_reject_a_node_outside_the_network(backend):
    pm = balanced_tree(2, 2, 2).rooted().path_matrix()  # nodes 0-6
    with kernels.use_backend(backend):
        with pytest.raises(InvalidNodeError, match="node id 1000000 "):
            pm.distances(np.array([5]), np.array([10**6]))
        with pytest.raises(InvalidNodeError, match="node id -2 "):
            pm.distances([5], [-2])
        with pytest.raises(InvalidNodeError, match="node id 7 "):
            pm.lca([7, 3], [3, 4])
        with pytest.raises(InvalidNodeError, match="candidate -1 "):
            pm.nearest_in_set([5], [-1])
        with pytest.raises(InvalidNodeError, match="node id -1 "):
            pm.nearest_in_set([-1], [5])
        with pytest.raises(InvalidNodeError, match="node id 7 "):
            pm.nearest_in_set([3, 7], [5])
        assert pm.distances([5], [6]).tolist() == [2]
        assert pm.nearest_in_set([3, 6], [4, 5]).tolist() == [4, 5]


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_nearest_tables_check_their_sets_before_either_backend(backend):
    rooted = balanced_tree(2, 2, 2).rooted()
    with kernels.use_backend(backend):
        with pytest.raises(InvalidNodeError) as empty:
            rooted.nearest_tables([[3], []])
        with pytest.raises(InvalidNodeError) as scalar:
            rooted.nearest_in_set(3, [])
        assert str(empty.value) == str(scalar.value)
        for bad in (-1, 7):
            with pytest.raises(InvalidNodeError, match=f"candidate {bad} is outside"):
                rooted.nearest_tables([[3], [4, bad]])
        assert rooted.nearest_tables([]).shape == (0, 7)


def test_nearest_tables_guard_their_int64_keys():
    # a zero-stride view has 2**32 entries and holds one: the guard must
    # refuse it before anything is allocated or swept
    huge = np.broadcast_to(np.int64(-1), (2**32,))
    with pytest.raises(CapacityError, match="int64 nearest-table keys"):
        kernels.nearest_tables(
            huge, huge, huge, np.array([0, 1], dtype=np.int64),
            np.array([0], dtype=np.int64),
        )


def _scan_args(**spoil):
    """Valid adaptive-scan arguments (``_inputs``), with chunk columns or
    state arrays replaced by keyword."""
    names = ("holder_mask", "read_credit", "unread_writes", "n_holders", "up",
             "depth", "procs", "writes", "objs", "order")
    args = list(_inputs()["adaptive_scan"][1])
    for name, value in spoil.items():
        args[names.index(name)] = np.asarray(value, dtype=args[names.index(name)].dtype)
    return args


#: a bad CSR entry -> (error, the index of the entry the message names)
_BAD_SCAN_ENTRIES = {
    "order-range": (dict(order=[0, 2, 3, 1, 5]), WorkloadError, "order\\[4\\] = 5"),
    "unstable": (dict(order=[2, 0, 3, 1, 4]), WorkloadError, "order\\[1\\] = 0"),
    "object": (dict(objs=[0, 1, 0, 0, 3]), WorkloadError, "object 3"),
    "processor": (dict(procs=[4, 3, 5, 4, 7]), InvalidNodeError, "node 7"),
    "empty-row": (dict(n_holders=[1, 0, 2]), WorkloadError, "object 2 counts 2"),
}


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("case", sorted(_BAD_SCAN_ENTRIES))
def test_adaptive_scan_checks_every_entry_before_writing(backend, case):
    spoil, error, match = _BAD_SCAN_ENTRIES[case]
    args = _scan_args(**spoil)
    before = _snapshot(args)
    with kernels.use_backend(backend):
        with pytest.raises(error, match=match):
            kernels.adaptive_scan(*args)
    assert _snapshot(args) == before


def _adaptive_run():
    net = balanced_tree(2, 3, 2)
    seq = sequence_from_pattern(
        net, zipf_pattern(net, 6, requests_per_processor=12, seed=3), seed=4
    )
    return SimulationEngine(
        EdgeCounterManager(net, seq.n_objects, object_size=2), chunk_size=16
    ).run(seq)


def _raise(*_args, **_kwargs):
    raise AssertionError("the other backend's counter scan ran")


@needs_cc
def test_cc_batched_replay_never_runs_the_python_scan(monkeypatch):
    with kernels.use_backend("numpy"):
        reference = _adaptive_run()
    monkeypatch.setattr(kernels, "_replay_positions", _raise)
    with kernels.use_backend("cc"):
        result = _adaptive_run()
    assert result.served == reference.served > 0
    assert np.array_equal(result.account.edge_loads, reference.account.edge_loads)


@needs_cc
def test_numpy_batched_replay_never_calls_the_compiled_scan(monkeypatch):
    monkeypatch.setattr(kernels._cc_library()[0], "repro_adaptive_scan", _raise)
    scanned = []
    twin = kernels._replay_positions
    monkeypatch.setattr(
        kernels,
        "_replay_positions",
        lambda *args: scanned.append(args[0]) or twin(*args),
    )
    with kernels.use_backend("numpy"):
        result = _adaptive_run()
    assert scanned and result.served > 0


# --------------------------------------------------------------------- #
# prototypes and compiler warnings
# --------------------------------------------------------------------- #
def test_parser_sees_every_exported_function():
    exported = set(re.findall(r"^\w+\s+(repro_\w+)\s*\(", kernels._C_SOURCE, re.M))
    assert exported and set(kernels._prototypes(kernels._C_SOURCE)) == exported


def test_c_source_compiles_without_warnings(tmp_path):
    compiler = kernels._find_compiler()
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    source = tmp_path / "repro_kernels.c"
    source.write_text(kernels._C_SOURCE)
    result = subprocess.run(
        [compiler, "-O3", "-fPIC", "-Wall", "-Wextra", "-Werror", "-c",
         "-o", str(tmp_path / "repro_kernels.o"), str(source)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
