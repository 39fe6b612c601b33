"""E6 -- Theorem 4.3: sequential runtime scaling of the extended-nibble.

The bound is O(|X| · |P ∪ B| · height(T) · log(degree(T))).  The benchmark
sweeps |X|, height(T) and degree(T) separately and reports the fitted
log-log slopes; the expected shape is near-linear growth in |X| and clearly
sub-quadratic growth in the structural parameters.
"""

import os
import time

import numpy as np
import pytest

from repro.analysis.scaling import (
    loglog_slope,
    sweep_degree,
    sweep_height,
    sweep_objects,
)
from repro.core.baselines import random_placement
from repro.core.congestion import compute_loads
from repro.core.extended_nibble import extended_nibble
from repro.network.builders import balanced_tree, path_of_buses, single_bus
from repro.workload.generators import uniform_pattern
from tests.scalar_oracle import reference_compute_loads

QUICK = os.environ.get("BENCH_QUICK", "") == "1"

OBJECT_COUNTS = (8, 16) if QUICK else (8, 16, 32, 64)
HEIGHTS = (2, 4, 8) if QUICK else (2, 4, 8, 16)
DEGREES = (4, 8, 16) if QUICK else (4, 8, 16, 32)


@pytest.mark.benchmark(group="E6-runtime")
def test_e6_object_scaling(benchmark, report_table):
    points = benchmark(sweep_objects, OBJECT_COUNTS, 3, 3, 3, 8, 0, 1)
    slope = loglog_slope(points)
    report_table("E6: runtime vs |X|", [p.as_dict() for p in points])
    print(f"\nE6 |X| log-log slope: {slope:.2f} (bound predicts ~1)")
    assert 0.3 <= slope <= 1.8


@pytest.mark.benchmark(group="E6-runtime")
def test_e6_height_scaling(benchmark, report_table):
    points = benchmark(sweep_height, HEIGHTS, 24, 2, 8, 0, 1)
    slope = loglog_slope(points)
    report_table("E6: runtime vs height(T)", [p.as_dict() for p in points])
    print(f"\nE6 height log-log slope: {slope:.2f}")
    # runtime grows with the height, but (well) below quadratically
    assert slope <= 2.5


@pytest.mark.benchmark(group="E6-runtime")
def test_e6_degree_scaling(benchmark, report_table):
    points = benchmark(sweep_degree, DEGREES, 24, 8, 0, 1)
    slope = loglog_slope(points)
    report_table("E6: runtime vs degree(T)", [p.as_dict() for p in points])
    print(f"\nE6 degree log-log slope: {slope:.2f}")
    assert slope <= 2.5


@pytest.mark.benchmark(group="E6-runtime")
def test_e6_vectorized_congestion_speedup(benchmark):
    """The path-incidence engine beats the scalar reference by >= 5x.

    Measured on the largest network the seed benchmark sweeps exercise
    (balanced 3-ary tree of depth 3 with 3 leaves per bus, 64 objects).
    """
    net = balanced_tree(3, 3, 3)
    pattern = uniform_pattern(net, 64, requests_per_processor=8, seed=0)
    placement = random_placement(net, pattern, seed=1)
    net.rooted().path_matrix()  # warm the cached incidence structure

    vec = benchmark(compute_loads, net, pattern, placement, validate=False)
    ref = reference_compute_loads(net, pattern, placement, validate=False)
    assert np.array_equal(vec.edge_loads, ref.edge_loads)

    reps = 3 if QUICK else 7
    ref_times = []
    for _ in range(reps):
        start = time.perf_counter()
        reference_compute_loads(net, pattern, placement, validate=False)
        ref_times.append(time.perf_counter() - start)
    ref_median = float(np.median(ref_times))
    vec_median = float(benchmark.stats.stats.median)
    speedup = ref_median / vec_median
    print(f"\nE6 vectorized congestion speedup: {speedup:.1f}x "
          f"(vec {vec_median * 1e3:.3f} ms, ref {ref_median * 1e3:.3f} ms)")
    assert speedup >= 5.0


@pytest.mark.benchmark(group="E6-runtime")
@pytest.mark.parametrize(
    "topology",
    ["bus", "balanced", "path"],
)
def test_e6_single_run_cost(benchmark, topology):
    """Absolute cost of one run on representative topologies."""
    if topology == "bus":
        net = single_bus(32)
    elif topology == "balanced":
        net = balanced_tree(2, 4, 2)
    else:
        net = path_of_buses(16, leaves_per_bus=2)
    pattern = uniform_pattern(net, 64, requests_per_processor=8, seed=0)
    result = benchmark(extended_nibble, net, pattern)
    assert result.placement.n_objects == 64
