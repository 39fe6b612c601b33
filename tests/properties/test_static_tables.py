"""The static placement's two tables: lifecycle, Steiner CSR, serving.

A :class:`~repro.dynamic.online.StaticPlacementManager` holds its
placement as a nearest-copy table over the distinct holder sets and a CSR
of their write-broadcast Steiner edges (``StaticPlacementManager.tables``).
This suite pins:

* the lifecycle on seeded churn chains: a bandwidth mutation keeps the
  very table objects; attach, split and detach (re-homing included) drop
  them, and the rebuilt tables equal a fresh manager's on a from-scratch
  view of the new network;
* the Steiner CSR against ``RootedTree.steiner_edge_ids``, object by
  object and for arbitrary node sets (one-terminal sets, sets spanning
  the root, one set per block);
* static serving against the scalar oracle of ``tests/scalar_oracle.py``,
  bit for bit: a fleet mixing several placements at chunk sizes 1, 7, 256
  and the whole sequence, and one manager at 256 (the served = offline
  = scalar oracle of ``test_serve_differential.py`` covers one manager at
  each drawn case's chunk size).
"""

import numpy as np
import pytest

from repro.core.baselines import (
    full_replication_placement,
    median_leaf_placement,
    owner_placement,
    random_placement,
)
from repro.core.extended_nibble import extended_nibble
from repro.core.pathmatrix import PathMatrix
from repro.core.placement import Placement
from repro.dynamic.online import StaticPlacementManager
from repro.dynamic.sequence import sequence_from_pattern
from repro.errors import InvalidNodeError
from repro.network.builders import balanced_tree, random_tree
from repro.network.mutation import DetachLeaf, apply_mutation
from repro.network.rooted import RootedTree
from repro.sim.engine import SimulationEngine
from repro.workload.churn import _detachable_processors, random_valid_mutation
from repro.workload.generators import zipf_pattern
from tests.scalar_oracle import ReferenceOnlineCostAccount, serve_events

SEEDS = (0, 1, 2, 3)


def _random_placement(net, rng, n_objects):
    """Every processor the sole holder of one object (so any detach
    re-homes), then random sets of one to four holders."""
    procs = list(net.processors)
    holders = [[p] for p in procs]
    for _ in range(n_objects):
        k = int(rng.integers(1, min(4, len(procs)) + 1))
        holders.append(sorted(int(p) for p in rng.choice(procs, size=k, replace=False)))
    return Placement(holders)


def _csr_sets(tables):
    indptr, ids = tables.steiner_indptr, tables.steiner_ids
    return [ids[indptr[s]:indptr[s + 1]].tolist() for s in range(indptr.size - 1)]


def _assert_tables_equal(got, want):
    for name in got._fields:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("seed", SEEDS)
def test_tables_survive_bandwidth_and_rebuild_after_structure(seed):
    rng = np.random.default_rng(seed)
    net = random_tree(int(rng.integers(2, 7)), int(rng.integers(4, 11)), seed=seed)
    manager = StaticPlacementManager(net, _random_placement(net, rng, 8))
    kinds = set()
    for _ in range(12):
        before = manager.tables()
        sole = {
            int(next(iter(h))) for h in manager._placement.all_holders() if len(h) == 1
        }
        rehoming = sorted(sole.intersection(_detachable_processors(net)))
        if rehoming and "re-home" not in kinds:
            # the first chance of a chain detaches a sole copy's holder
            mutation = DetachLeaf(int(rng.choice(rehoming)))
            kinds.add("re-home")
        else:
            mutation = random_valid_mutation(net, rng)
        outcome = apply_mutation(net, mutation)
        manager.apply_mutation(outcome)
        net = outcome.network
        kinds.add(type(mutation).__name__)
        if not outcome.structural:
            assert manager._tables is before
            assert all(a is b for a, b in zip(manager.tables(), before))
            continue
        assert manager._tables is None
        fresh = StaticPlacementManager(net, manager._placement)
        fresh.rooted = RootedTree(net, net.canonical_root())
        _assert_tables_equal(manager.tables(), fresh.tables())
        assert manager.tables().nearest.shape[1] == net.n_nodes
    assert "re-home" in kinds


@pytest.mark.parametrize("one_set_per_block", (False, True))
@pytest.mark.parametrize("seed", SEEDS)
def test_steiner_csr_equals_steiner_edge_ids(seed, one_set_per_block, monkeypatch):
    rng = np.random.default_rng(seed)
    net = random_tree(int(rng.integers(1, 8)), int(rng.integers(2, 14)), seed=seed)
    rooted = net.rooted()
    if one_set_per_block:
        monkeypatch.setattr(PathMatrix, "_STEINER_BLOCK", net.n_nodes)
    manager = StaticPlacementManager(net, _random_placement(net, rng, 10))
    tables = manager.tables()
    rows = _csr_sets(tables)
    for obj in range(manager.n_objects):
        edges = rows[tables.row_of[obj]]
        assert edges == sorted(edges)
        assert edges == sorted(rooted.steiner_edge_ids(manager.holders(obj)))

    # arbitrary node sets, buses included: empty, one terminal, repeated
    # terminals, every processor (which spans the root) and random sets
    nodes = np.arange(net.n_nodes)
    sets = [(), (int(rng.integers(net.n_nodes)),), (0, 0), tuple(net.processors)]
    sets += [tuple(rng.choice(nodes, size=int(rng.integers(1, 6)))) for _ in range(8)]
    indptr, ids = rooted.path_matrix().steiner_edge_csr(sets)
    assert indptr.shape == (len(sets) + 1,)
    for s, terminals in enumerate(sets):
        assert ids[indptr[s]:indptr[s + 1]].tolist() == sorted(
            rooted.steiner_edge_ids(terminals)
        )


@pytest.mark.parametrize("bad", (-1, 7))
def test_steiner_csr_refuses_terminals_outside_the_network(bad):
    # seven nodes: a terminal of -1 must not wrap to node 6, and one of 7
    # must not reach the indicator block
    pm = balanced_tree(2, 2, 2).rooted().path_matrix()
    with pytest.raises(InvalidNodeError, match=f"terminal {bad} is outside"):
        pm.steiner_edge_csr([[bad, 3]])


def _oracle_instances():
    yield "balanced", balanced_tree(2, 3, 2), 0
    yield "random", random_tree(5, 12, seed=4), 4


@pytest.mark.parametrize("chunk", (1, 7, 256, None))
@pytest.mark.parametrize("name,net,seed", list(_oracle_instances()))
def test_static_fleet_and_serve_equal_the_scalar_oracle(name, net, seed, chunk):
    pattern = zipf_pattern(net, 24, requests_per_processor=40, write_fraction=0.3, seed=seed)
    seq = sequence_from_pattern(net, pattern, seed=seed + 1)
    assert len(seq) > 256
    chunk_size = len(seq) if chunk is None else chunk
    placements = [
        extended_nibble(net, pattern).placement,
        owner_placement(net, pattern),
        median_leaf_placement(net, pattern),
        full_replication_placement(net, pattern),
        random_placement(net, pattern, seed=seed),
    ]
    oracle = [
        serve_events(
            StaticPlacementManager(net, pl, account=ReferenceOnlineCostAccount(net)),
            seq.events,
        )
        for pl in placements
    ]
    results = SimulationEngine.run_fleet(
        [StaticPlacementManager(net, pl) for pl in placements], seq, chunk_size=chunk_size
    )
    if chunk == 256:
        # the served = offline = scalar oracle serves one manager at the
        # drawn chunk sizes (None, 1, 7, 64)
        results += [
            SimulationEngine(StaticPlacementManager(net, pl), chunk_size=256).run(seq)
            for pl in placements
        ]
    for reference, result in zip(oracle * 2, results):
        account = result.account
        assert np.array_equal(account.edge_loads, reference.edge_loads)
        assert np.array_equal(account.bus_loads, reference.bus_loads)
        assert account.congestion == reference.congestion
        assert account.service_units == reference.service_units
        assert account.management_units == reference.management_units
