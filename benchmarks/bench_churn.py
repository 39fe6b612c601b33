"""E10 -- topology churn: incremental substrate repair vs from-scratch rebuild.

A mutable bus network invalidates every derived structure: the rooted view
(an O(n) Python traversal), the path-incidence matrix (an O(n * height)
CSR construction) and the load state (fused loads, denominators, incident
CSR).  PR 3 gave all three an incremental ``repair`` path driven by
:class:`repro.network.mutation.MutationOutcome`; this benchmark measures a
mutation storm processed both ways:

* **repair** -- ``LoadState.repair(outcome)`` per mutation (which repairs
  the rooted view and path matrix as well, all vectorized array surgery);
* **rebuild** -- fresh ``RootedTree`` + ``PathMatrix`` + ``LoadState`` per
  mutation, recharged with the surviving edge loads.

Both produce bit-for-bit identical substrate state (asserted here and in
``tests/properties/test_churn_differential.py``).  The gate at the bottom
enforces the headline number: on the largest network the repair path must
process the storm at least 5x faster than from-scratch rebuilds (measured
~30x on the reference machine).
"""

import os
import time

import numpy as np
import pytest

from repro.core.loadstate import LoadState
from repro.network.builders import balanced_tree
from repro.network.mutation import apply_mutation
from repro.network.rooted import RootedTree
from repro.workload.churn import mutation_storm

QUICK = os.environ.get("BENCH_QUICK", "") == "1"

# scenario name -> (tree dims, charged request pairs, storm length)
SCENARIOS = {
    "small": ((2, 4, 2), 4000, 12),
    "large": ((3, 6, 3), 20000, 16),
}
_cache = {}


def churn_scenario(name):
    """Build (network, outcome chain, initial edge loads) for a scenario."""
    if name not in _cache:
        dims, n_pairs, n_mutations = SCENARIOS[name]
        net = balanced_tree(*dims)
        rng = np.random.default_rng(0)
        procs = np.asarray(net.processors, dtype=np.int64)
        u = rng.choice(procs, size=n_pairs)
        v = rng.choice(procs, size=n_pairs)
        state = LoadState(net)
        state.apply_pairs(u, v, np.ones(n_pairs))
        loads0 = state.edge_loads.copy()

        trace = mutation_storm(net, n_mutations=n_mutations, seed=1)
        outcomes = []
        cur = net
        for timed in trace.events:
            outcome = apply_mutation(cur, timed.mutation)
            outcomes.append(outcome)
            cur = outcome.network
        _cache[name] = (net, outcomes, loads0, (u, v))
    return _cache[name]


def make_state(name):
    """A fresh charged LoadState on the scenario's base network.

    Also drops the repaired rooted views a previous sweep installed on the
    outcome networks, so every measured sweep performs the actual repair
    work instead of hitting the cache of an earlier round.
    """
    net, outcomes, _loads0, (u, v) = churn_scenario(name)
    for outcome in outcomes:
        outcome.network._rooted_cache.clear()
    state = LoadState(net)
    state.apply_pairs(u, v, np.ones(u.size))
    _ = state.congestion
    return state


def repair_sweep(state, outcomes):
    """Process the whole mutation storm through incremental repair."""
    for outcome in outcomes:
        state.repair(outcome)
        _ = state.congestion
    return state


def rebuild_sweep(outcomes, loads0):
    """Process the storm by rebuilding every substrate from scratch.

    One fresh traversal, one path-matrix construction (via the rooted
    view's cache, exactly like a cold LoadState build) and one recharge
    per mutation -- the honest from-scratch baseline the repair path is
    gated against.
    """
    loads = loads0
    last = None
    for outcome in outcomes:
        net = outcome.network
        rooted = RootedTree(net, net.canonical_root())
        last = LoadState(net, rooted=rooted)
        loads = outcome.mapped_edge_loads(loads)
        last.apply_edge_loads(loads)
        _ = last.congestion
    return last


# --------------------------------------------------------------------------- #
# benchmark entries
# --------------------------------------------------------------------------- #
@pytest.mark.benchmark(group="E10-churn")
def test_churn_repair_small(benchmark):
    _net, outcomes, _loads0, _pairs = churn_scenario("small")
    state = benchmark.pedantic(
        repair_sweep,
        setup=lambda: ((make_state("small"), outcomes), {}),
        rounds=3,
        iterations=1,
    )
    assert state.congestion > 0


@pytest.mark.benchmark(group="E10-churn")
def test_churn_rebuild_small(benchmark):
    _net, outcomes, loads0, _pairs = churn_scenario("small")
    last = benchmark.pedantic(
        rebuild_sweep, args=(outcomes, loads0), rounds=3, iterations=1
    )
    repaired = repair_sweep(make_state("small"), outcomes)
    assert np.array_equal(repaired._loads, last._loads)
    assert repaired.congestion == last.congestion


@pytest.mark.benchmark(group="E10-churn")
@pytest.mark.skipif(QUICK, reason="large churn scenario is skipped in quick mode")
def test_churn_repair_large(benchmark):
    _net, outcomes, _loads0, _pairs = churn_scenario("large")
    state = benchmark.pedantic(
        repair_sweep,
        setup=lambda: ((make_state("large"), outcomes), {}),
        rounds=2,
        iterations=1,
    )
    assert state.congestion > 0


@pytest.mark.benchmark(group="E10-churn")
@pytest.mark.skipif(QUICK, reason="large churn scenario is skipped in quick mode")
def test_churn_rebuild_large(benchmark):
    _net, outcomes, loads0, _pairs = churn_scenario("large")
    last = benchmark.pedantic(
        rebuild_sweep, args=(outcomes, loads0), rounds=2, iterations=1
    )
    repaired = repair_sweep(make_state("large"), outcomes)
    assert np.array_equal(repaired._loads, last._loads)


def test_repair_speedup_over_rebuild():
    """Gate the headline number of the topology-churn subsystem.

    On the largest network the incremental repair path must process the
    mutation storm at least 5x faster than from-scratch rebuilds.  The
    measure is a ratio of two runs in the same process, so machine speed
    cancels; best-of-2 per side guards against scheduler hiccups.
    """
    _net, outcomes, loads0, _pairs = churn_scenario("large")
    repair_time = rebuild_time = float("inf")
    repaired = rebuilt = None
    for _ in range(2):
        state = make_state("large")
        t0 = time.perf_counter()
        repaired = repair_sweep(state, outcomes)
        t1 = time.perf_counter()
        rebuilt = rebuild_sweep(outcomes, loads0)
        t2 = time.perf_counter()
        repair_time = min(repair_time, t1 - t0)
        rebuild_time = min(rebuild_time, t2 - t1)

    assert np.array_equal(repaired._loads, rebuilt._loads)
    assert repaired.congestion == rebuilt.congestion
    assert np.array_equal(repaired.stack._denom, rebuilt.stack._denom)
    speedup = rebuild_time / max(repair_time, 1e-12)
    print(
        f"\nE10 churn [large]: {len(outcomes)} mutations, "
        f"rebuild {rebuild_time:.3f}s, repair {repair_time:.3f}s -> {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"incremental repair only {speedup:.1f}x faster than from-scratch "
        f"rebuilds (gate: 5x)"
    )
