"""Shared configuration for the benchmark harness.

Every benchmark module regenerates one experiment of DESIGN.md / EXPERIMENTS.md
(E1 -- E8).  Benchmarks both *measure* (via pytest-benchmark) and *print* the
result table of their experiment, so running

    pytest benchmarks/ --benchmark-only -s

reproduces the rows recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.report import format_table, records_to_table
from repro.core import kernels


def pytest_addoption(parser):
    parser.addoption(
        "--huge",
        action="store_true",
        default=False,
        help="run the huge-tier benchmarks (10^5-leaf substrate build, "
        "memory ceiling, compiled-vs-numpy replay gate)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "huge: huge-tier benchmark (10^5-leaf networks); needs --huge",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--huge"):
        return
    skip_huge = pytest.mark.skip(reason="huge tier disabled (pass --huge)")
    for item in items:
        if "huge" in item.keywords:
            item.add_marker(skip_huge)


# Deterministic seeding (kept in sync with tests/conftest.py).
@pytest.fixture(autouse=True)
def _seed_global_rngs():
    """Reset the global RNGs before every benchmark for stable inputs."""
    random.seed(0)
    np.random.seed(0)


@pytest.fixture(scope="session", autouse=True)
def _prewarm_kernel_backends():
    """One throwaway kernel call per available backend before any timing.

    The cc backend compiles its shared library on first load; paying that
    cost inside a timed region (or inside the first benchmark that happens
    to run) would poison the medians recorded into BENCH_history.json.
    """
    up = np.zeros((1, 2), dtype=kernels.INDEX_DTYPE)
    depth = np.zeros(2, dtype=np.int64)
    for backend in kernels.available_backends():
        with kernels.use_backend(backend):
            kernels.lca(up, depth, np.asarray([0, 1]), np.asarray([1, 0]))
            kernels.rescan(np.ones(2), np.ones(2))


def print_records(title: str, records, columns=None) -> None:
    """Print an experiment's record table under a header."""
    rows, headers = records_to_table(records, columns)
    print(f"\n=== {title} ===")
    if rows:
        print(format_table(rows, headers))
    else:
        print("(no rows)")


@pytest.fixture
def report_table():
    """Fixture exposing :func:`print_records` to benchmark modules."""
    return print_records
