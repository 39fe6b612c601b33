"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.network.builders import (
    balanced_tree,
    hardness_gadget,
    path_of_buses,
    random_tree,
    single_bus,
    star_of_buses,
)
from repro.network.tree import HierarchicalBusNetwork
from repro.workload.access import AccessPattern
from repro.workload.generators import random_sparse_pattern
from tests import fuzz


# --------------------------------------------------------------------------- #
# deterministic seeding (kept in sync with benchmarks/conftest.py)
# --------------------------------------------------------------------------- #
@pytest.fixture(autouse=True)
def _seed_global_rngs():
    """Reset the global RNGs before every test.

    All library code takes explicit seeds or Generator objects; this guards
    the tests themselves (and any future code path falling back to the
    global state) against order-dependent randomness in CI.
    """
    random.seed(0)
    np.random.seed(0)


# --------------------------------------------------------------------------- #
# deterministic fixture networks
# --------------------------------------------------------------------------- #
@pytest.fixture
def bus4() -> HierarchicalBusNetwork:
    """The 4-processor single-bus gadget network of the NP-hardness proof."""
    return hardness_gadget()


@pytest.fixture
def small_bus() -> HierarchicalBusNetwork:
    """A single bus with three processors."""
    return single_bus(3)


@pytest.fixture
def two_level_tree() -> HierarchicalBusNetwork:
    """A root bus with two child buses, two processors each (Figure 2 shape)."""
    return star_of_buses(2, 2)


@pytest.fixture
def deep_tree() -> HierarchicalBusNetwork:
    """A path of four buses with one processor each (height 5)."""
    return path_of_buses(4, leaves_per_bus=1)


@pytest.fixture
def medium_tree() -> HierarchicalBusNetwork:
    """Balanced binary bus tree of depth 3 with two processors per leaf bus."""
    return balanced_tree(2, 3, 2)


@pytest.fixture
def line_network() -> HierarchicalBusNetwork:
    """Two processors connected through a single bus (smallest valid network)."""
    return single_bus(2)


@pytest.fixture
def simple_pattern(small_bus) -> AccessPattern:
    """Deterministic small pattern on the 3-processor bus."""
    procs = list(small_bus.processors)
    return AccessPattern.from_requests(
        small_bus,
        2,
        [
            (procs[0], 0, 4, 2),
            (procs[1], 0, 1, 1),
            (procs[2], 1, 3, 0),
            (procs[0], 1, 0, 2),
        ],
    )


# --------------------------------------------------------------------------- #
# helpers used by many tests
# --------------------------------------------------------------------------- #
def make_instance(seed: int, n_buses: int = 5, n_procs: int = 8, n_objects: int = 6):
    """A deterministic random (network, pattern) instance."""
    net = random_tree(n_buses, n_procs, seed=seed)
    pat = random_sparse_pattern(net, n_objects, seed=seed)
    return net, pat


@pytest.fixture
def instance_factory():
    """Factory fixture returning :func:`make_instance`."""
    return make_instance


def pytest_generate_tests(metafunc):
    """Run a test that takes ``case`` once per differential case of
    ``tests/fuzz.py``, and one that takes ``member`` once per roster member
    of each case, ``(case, index)``.  The cases are drawn when the first
    such test is collected, so a run that collects none draws none.  A test
    that parametrises the name itself keeps its own values."""
    own = set()
    for marker in metafunc.definition.iter_markers("parametrize"):
        names = marker.args[0]
        own.update(n.strip() for n in (names.split(",") if isinstance(names, str) else names))
    if "case" in metafunc.fixturenames and "case" not in own:
        metafunc.parametrize("case", fuzz.matrix(), ids=lambda case: case.spec.name)
    if "member" in metafunc.fixturenames and "member" not in own:
        metafunc.parametrize(
            "member", fuzz.member_matrix(),
            ids=lambda member: f"{member[0].spec.name}-{member[0].labels[member[1]]}",
        )


# --------------------------------------------------------------------------- #
# hypothesis strategies
# --------------------------------------------------------------------------- #
@st.composite
def networks(draw, max_buses: int = 6, max_processors: int = 10):
    """Random hierarchical bus networks (via the random_tree builder)."""
    n_buses = draw(st.integers(min_value=1, max_value=max_buses))
    n_procs = draw(st.integers(min_value=2, max_value=max_processors))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_tree(n_buses, n_procs, seed=seed)


@st.composite
def instances(
    draw,
    max_buses: int = 5,
    max_processors: int = 8,
    max_objects: int = 6,
    max_frequency: int = 8,
):
    """Random (network, access pattern) instances."""
    network = draw(networks(max_buses=max_buses, max_processors=max_processors))
    n_objects = draw(st.integers(min_value=1, max_value=max_objects))
    n_procs = network.n_processors
    reads = np.zeros((network.n_nodes, n_objects), dtype=np.int64)
    writes = np.zeros((network.n_nodes, n_objects), dtype=np.int64)
    procs = list(network.processors)
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_procs - 1),
                st.integers(0, n_objects - 1),
                st.integers(0, max_frequency),
                st.integers(0, max_frequency),
            ),
            min_size=0,
            max_size=3 * n_objects,
        )
    )
    for proc_idx, obj, r, w in entries:
        reads[procs[proc_idx], obj] += r
        writes[procs[proc_idx], obj] += w
    pattern = AccessPattern(reads, writes)
    return network, pattern
