"""Runtime- and round-scaling studies (experiments E6 and E7).

Theorem 4.3 bounds the sequential running time of the extended-nibble
strategy by ``O(|X| · |P ∪ B| · height(T) · log(degree(T)))`` and its
distributed execution by ``O(|X| · |P ∪ B| · log(degree(T)) + height(T))``
rounds.  These helpers measure wall-clock time / round counts over sweeps of
``|X|``, ``|V|``, ``height`` and ``degree`` and fit log-log slopes so the
benchmarks can check that the *growth* matches the bound (a slope close to
one for a parameter that appears linearly in the bound, close to zero for a
parameter it does not depend on).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.extended_nibble import extended_nibble
from repro.network.builders import balanced_tree, path_of_buses, single_bus
from repro.network.tree import HierarchicalBusNetwork
from repro.workload.access import AccessPattern
from repro.workload.generators import uniform_pattern

__all__ = [
    "ScalingPoint",
    "measure_runtime",
    "sweep_objects",
    "sweep_network_size",
    "sweep_height",
    "sweep_degree",
    "loglog_slope",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One measurement of a scaling sweep."""

    parameter: str
    value: float
    n_nodes: int
    n_objects: int
    height: int
    max_degree: int
    seconds: float

    def as_dict(self) -> Dict[str, object]:
        """Flatten for table output."""
        return {
            "parameter": self.parameter,
            "value": self.value,
            "nodes": self.n_nodes,
            "objects": self.n_objects,
            "height": self.height,
            "degree": self.max_degree,
            "seconds": self.seconds,
        }


def measure_runtime(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    repeats: int = 1,
) -> float:
    """Median wall-clock seconds of running the extended-nibble strategy."""
    times = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        extended_nibble(network, pattern, validate=False)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def sweep_objects(
    object_counts: Sequence[int],
    arity: int = 3,
    depth: int = 3,
    leaves_per_bus: int = 3,
    requests_per_processor: int = 8,
    seed: int = 0,
    repeats: int = 1,
) -> List[ScalingPoint]:
    """Runtime versus the number of shared objects ``|X|`` (fixed network)."""
    network = balanced_tree(arity, depth, leaves_per_bus)
    patterns = [
        uniform_pattern(network, count, requests_per_processor=requests_per_processor, seed=seed)
        for count in object_counts
    ]
    # The points share one network: build its cached rooted view and
    # path-incidence structure (and load the kernels) before the first
    # timing, or that one-time cost lands on the first point and bends
    # the fitted slope.
    if patterns:
        extended_nibble(network, patterns[0], validate=False)
    points = []
    for count, pattern in zip(object_counts, patterns):
        seconds = measure_runtime(network, pattern, repeats=repeats)
        points.append(
            ScalingPoint(
                parameter="objects",
                value=float(count),
                n_nodes=network.n_nodes,
                n_objects=count,
                height=network.height(),
                max_degree=network.max_degree(),
                seconds=seconds,
            )
        )
    return points


def sweep_network_size(
    leaf_counts: Sequence[int],
    n_objects: int = 32,
    requests_per_processor: int = 8,
    seed: int = 0,
    repeats: int = 1,
) -> List[ScalingPoint]:
    """Runtime versus ``|V|`` using wider and wider balanced trees."""
    points = []
    for leaves in leaf_counts:
        network = balanced_tree(arity=2, depth=3, leaves_per_bus=max(1, leaves // 4))
        pattern = uniform_pattern(
            network, n_objects, requests_per_processor=requests_per_processor, seed=seed
        )
        seconds = measure_runtime(network, pattern, repeats=repeats)
        points.append(
            ScalingPoint(
                parameter="nodes",
                value=float(network.n_nodes),
                n_nodes=network.n_nodes,
                n_objects=n_objects,
                height=network.height(),
                max_degree=network.max_degree(),
                seconds=seconds,
            )
        )
    return points


def sweep_height(
    heights: Sequence[int],
    n_objects: int = 32,
    leaves_per_bus: int = 2,
    requests_per_processor: int = 8,
    seed: int = 0,
    repeats: int = 1,
) -> List[ScalingPoint]:
    """Runtime versus ``height(T)`` using deeper and deeper bus paths."""
    points = []
    for n_buses in heights:
        network = path_of_buses(n_buses, leaves_per_bus=leaves_per_bus)
        pattern = uniform_pattern(
            network, n_objects, requests_per_processor=requests_per_processor, seed=seed
        )
        seconds = measure_runtime(network, pattern, repeats=repeats)
        points.append(
            ScalingPoint(
                parameter="height",
                value=float(network.height()),
                n_nodes=network.n_nodes,
                n_objects=n_objects,
                height=network.height(),
                max_degree=network.max_degree(),
                seconds=seconds,
            )
        )
    return points


def sweep_degree(
    degrees: Sequence[int],
    n_objects: int = 32,
    requests_per_processor: int = 8,
    seed: int = 0,
    repeats: int = 1,
) -> List[ScalingPoint]:
    """Runtime versus ``degree(T)`` using wider and wider single buses."""
    points = []
    for degree in degrees:
        network = single_bus(degree)
        pattern = uniform_pattern(
            network, n_objects, requests_per_processor=requests_per_processor, seed=seed
        )
        seconds = measure_runtime(network, pattern, repeats=repeats)
        points.append(
            ScalingPoint(
                parameter="degree",
                value=float(network.max_degree()),
                n_nodes=network.n_nodes,
                n_objects=n_objects,
                height=network.height(),
                max_degree=network.max_degree(),
                seconds=seconds,
            )
        )
    return points


def loglog_slope(points: Sequence[ScalingPoint]) -> float:
    """Least-squares slope of ``log(seconds)`` versus ``log(value)``.

    A slope of about one indicates linear growth in the swept parameter, as
    the runtime bound predicts for ``|X|`` and ``|V|``.
    """
    xs = np.array([p.value for p in points], dtype=np.float64)
    ys = np.array([max(p.seconds, 1e-9) for p in points], dtype=np.float64)
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a slope")
    coeffs = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(coeffs[0])
