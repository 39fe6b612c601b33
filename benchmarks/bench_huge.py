"""Huge tier: 10^5-leaf substrate build, memory ceiling, compiled replay gate.

The memory-scaled substrate (int32 CSR incidence + lifting tables,
blocked distance computation) and the compiled kernel backends exist so
the replay stack handles million-entry path tables.  This module pins
both claims on a 10^5-processor network:

* **build + memory** -- constructing the full substrate (rooted view,
  path matrix, load state) must stay under an explicit byte ceiling,
  measured deterministically via the ``memory_bytes()`` audit hooks
  (RSS is printed for information only: it is allocator- and
  platform-noisy, the nbytes ceiling is the gate);
* **compiled replay gate** -- the replay inner loop (batched pair-path
  charge, fused load apply, running-max congestion) under the compiled
  backend must beat the numpy reference by at least **5x** on this
  substrate, with bit-for-bit identical results;
* **nearest tables** -- resolving 16 holder sets for every node takes
  the table itself plus at most 4 MiB, equal under both backends.

Run with ``pytest benchmarks/bench_huge.py --huge``; the tier is skipped
entirely without the flag (the build takes seconds, not milliseconds).
CI records the benchmark medians into ``BENCH_history.json`` via
``scripts/bench_history.py``.
"""

import os
import resource
import time
import tracemalloc

import numpy as np
import pytest

from repro.core import kernels
from repro.core.loadstate import LoadState
from repro.network.builders import balanced_tree

pytestmark = pytest.mark.huge

QUICK = os.environ.get("BENCH_QUICK", "") == "1"

# 2^11 leaf buses x 50 processors = 102,400 leaves; 4,095 buses; the CSR
# root-path table holds ~1.3M int32 entries (leaf depth 12).
HUGE_DIMS = (2, 12, 50)

#: Deterministic substrate ceiling (pm + load state, shared arrays
#: deduplicated).  The int32 tables measure ~31 MiB here; the pre-shrink
#: int64 substrate would not fit this budget.
MEMORY_CEILING_BYTES = 48 * 1024 * 1024

SPEEDUP_FLOOR = 5.0

_cache = {}


def huge_substrate():
    """Build (network, path matrix, fresh load state) once per session."""
    if "substrate" not in _cache:
        net = balanced_tree(*HUGE_DIMS)
        pm = net.rooted().path_matrix()
        _cache["substrate"] = (net, pm)
    net, pm = _cache["substrate"]
    return net, pm, LoadState(net)


def replay_batches(pm, rng, n_batches, batch):
    """Seeded random weighted request batches over the processor leaves."""
    procs = np.asarray(pm.rooted.network.processors)
    batches = []
    for _ in range(n_batches):
        u = rng.choice(procs, size=batch)
        v = rng.choice(procs, size=batch)
        w = rng.integers(1, 5, size=batch).astype(np.float64)
        batches.append((u, v, w))
    return batches


def replay_pass(pm, state, batches):
    """The serve-chunk inner loop: charge pair paths, apply, rescan."""
    for u, v, w in batches:
        edge_loads = pm.pair_edge_loads(u, v, w)
        state.apply_edge_loads(edge_loads)
    return state.congestion


def test_huge_build_under_memory_ceiling():
    t0 = time.perf_counter()
    net, pm, state = huge_substrate()
    build_s = time.perf_counter() - t0

    assert net.n_processors >= 10**5
    total = int(pm._rp_edges.size)
    assert total >= 10**6, "huge scenario must exercise a million-entry CSR"

    substrate_bytes = state.memory_bytes()
    assert substrate_bytes >= pm.memory_bytes()  # shares + extends the pm
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        f"\nhuge build: {net.n_processors} processors, {net.n_nodes} nodes, "
        f"{total} CSR entries in {build_s:.2f}s; substrate "
        f"{substrate_bytes / 2**20:.1f} MiB (ceiling "
        f"{MEMORY_CEILING_BYTES / 2**20:.0f} MiB), ru_maxrss "
        f"{rss_kib / 1024:.0f} MiB (informational)"
    )
    assert substrate_bytes <= MEMORY_CEILING_BYTES, (
        f"substrate holds {substrate_bytes} bytes, over the "
        f"{MEMORY_CEILING_BYTES}-byte ceiling of the huge tier"
    )

    # int32 dtype shrink is what makes the ceiling: spot-check the tables
    for attr in ("_up", "_rp_edges", "_rp_nodes", "_edge_u", "_edge_v"):
        assert getattr(pm, attr).dtype == kernels.INDEX_DTYPE


def test_huge_blocked_distances():
    """The blocked distance path serves batches far beyond any dense cache."""
    net, pm, _ = huge_substrate()
    rng = np.random.default_rng(7)
    procs = np.asarray(net.processors)
    u = rng.choice(procs, size=2 * pm._DIST_BLOCK // 1024)
    v = rng.choice(procs, size=u.size)
    dist = pm.distances(u, v)
    depth = pm.depths
    anc = pm.lca(u, v)
    assert np.array_equal(dist, depth[u] + depth[v] - 2 * depth[anc])


def test_huge_nearest_tables():
    """Nearest tables of 16 holder sets on 10^5 leaves: the table is the memory.

    Each row gives every node its nearest holder (ties to the smallest id)
    from two sweeps over the tree, so a call takes the table and O(n)
    scratch.  The compiled table must equal the numpy twin's, sampled
    nodes must match the scalar rule, and the traced peak may exceed the
    table by at most 4 MiB.
    """
    compiled = [b for b in kernels.available_backends() if b != "numpy"]
    if not compiled:
        pytest.skip("no compiled kernel backend available")
    net, pm, _ = huge_substrate()
    rooted = pm.rooted
    rng = np.random.default_rng(11)
    procs = np.asarray(net.processors)
    sets = [np.sort(rng.choice(procs, size=12, replace=False)) for _ in range(16)]
    with kernels.use_backend(compiled[0]):
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            tables = rooted.nearest_tables(sets)
            build_s = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    with kernels.use_backend("numpy"):
        assert np.array_equal(rooted.nearest_tables(sets), tables)
    for cands, row in zip(sets, tables):
        for v in rng.choice(net.n_nodes, size=64, replace=False).tolist():
            assert row[v] == rooted.nearest_in_set(v, cands)
    print(
        f"\nhuge nearest tables [{compiled[0]}]: {len(sets)} sets on "
        f"{net.n_nodes} nodes in {build_s * 1e3:.1f}ms, traced peak "
        f"{peak / 2**20:.1f} MiB for a {tables.nbytes / 2**20:.1f} MiB table"
    )
    assert tables.shape == (len(sets), net.n_nodes)
    assert peak <= tables.nbytes + 4 * 2**20


@pytest.mark.benchmark(group="huge-replay")
def test_huge_replay_compiled(benchmark):
    """Benchmark-recorded compiled replay pass over the huge substrate."""
    net, pm, _ = huge_substrate()
    batches = replay_batches(pm, np.random.default_rng(0), 4, 4096)
    congestion = benchmark.pedantic(
        lambda state: replay_pass(pm, state, batches),
        setup=lambda: ((LoadState(net),), {}),
        rounds=3 if QUICK else 7,
        iterations=1,
    )
    assert congestion > 0


@pytest.mark.benchmark(group="huge-replay")
def test_huge_replay_numpy_reference(benchmark):
    """The numpy-reference side of the same pass (the RESULTS.md ratio
    divides this median by the compiled one to show the jump)."""
    net, pm, _ = huge_substrate()
    batches = replay_batches(pm, np.random.default_rng(0), 4, 4096)

    def run(state):
        with kernels.use_backend("numpy"):
            return replay_pass(pm, state, batches)

    congestion = benchmark.pedantic(
        run,
        setup=lambda: ((LoadState(net),), {}),
        rounds=2 if QUICK else 5,
        iterations=1,
    )
    assert congestion > 0


def test_huge_compiled_vs_numpy_gate():
    """The compiled backend must beat numpy >= 5x on the huge replay pass.

    Results are asserted bit-for-bit identical first (invariant 9); the
    timing takes best-of-N on both sides so a scheduler hiccup cannot
    fail the gate.
    """
    compiled = [b for b in kernels.available_backends() if b != "numpy"]
    if not compiled:
        pytest.skip("no compiled kernel backend available for the gate")
    backend = kernels.active_backend()
    if backend == "numpy":
        backend = compiled[0]

    net, pm, _ = huge_substrate()
    # Many small batches keep the numpy side CSR-bound (full np.add.at
    # scatter per batch) while the compiled side stays active-path-bound,
    # which is the steadiest shape for the gate margin.
    n_batches = 4 if QUICK else 16
    batch_size = 1024
    batches = replay_batches(pm, np.random.default_rng(1), n_batches, batch_size)
    repeats = 2 if QUICK else 3

    results = {}
    times = {}
    for name in ("numpy", backend):
        best = float("inf")
        with kernels.use_backend(name):
            for _ in range(repeats):
                state = LoadState(net)
                t0 = time.perf_counter()
                congestion = replay_pass(pm, state, batches)
                best = min(best, time.perf_counter() - t0)
        results[name] = (state._loads.copy(), congestion)
        times[name] = best

    assert np.array_equal(results["numpy"][0], results[backend][0])
    assert results["numpy"][1] == results[backend][1]

    speedup = times["numpy"] / max(times[backend], 1e-12)
    events = n_batches * batch_size
    print(
        f"\nhuge replay [{backend}]: {events} pair charges on "
        f"{net.n_processors} processors, numpy {times['numpy']*1e3:.0f}ms, "
        f"{backend} {times[backend]*1e3:.0f}ms -> {speedup:.2f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"compiled backend {backend!r} only {speedup:.2f}x faster than the "
        f"numpy reference on the huge replay pass (gate: {SPEEDUP_FLOOR}x)"
    )
