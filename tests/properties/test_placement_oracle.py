"""Exactness oracle for the columnar placement pipeline (invariant 1).

The deletion step, the mapping step's basic loads and phases, the request
assignment store and ``RequestSequence.to_pattern`` run over arrays.  This
module keeps the per-portion object code they replaced **verbatim** (as
``reference_*`` functions and ``ReferenceCopyRecord``) and asserts exact
agreement: holders, every share, each copy's node, home and portion order,
the bytes of the ``MappingResult`` arrays and of the ``compute_loads``
output, on hypothesis instances, the E5/E8 instance suites and one
instance of the offline-static benchmark's size.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.experiments import standard_instance_suite
from repro.core.congestion import compute_loads
from repro.core.deletion import CopyRecord, ObjectCopies, apply_deletion
from repro.core.extended_nibble import extended_nibble
from repro.core.mapping import directed_basic_loads, map_copies_to_leaves
from repro.core.nibble import nibble_placement
from repro.core.placement import Placement, RequestAssignment, Share
from repro.dynamic.sequence import RequestEvent, RequestSequence, sequence_from_pattern
from repro.errors import AlgorithmError, AssignmentError, ReproError
from repro.network.builders import balanced_tree
from repro.network.rooted import RootedTree
from repro.network.tree import HierarchicalBusNetwork, NetworkBuilder
from repro.workload.access import AccessPattern
from repro.workload.generators import zipf_pattern
from tests.conftest import instances, networks

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# --------------------------------------------------------------------------- #
# per-portion object references (verbatim)
# --------------------------------------------------------------------------- #
@dataclass
class ReferenceCopyRecord:
    """``CopyRecord`` with its served portions as a list of tuples."""

    obj: int
    node: int
    served: List[Tuple[int, int, int]] = field(default_factory=list)
    home: int = -1

    def __post_init__(self) -> None:
        if self.home < 0:
            self.home = self.node

    @property
    def s(self) -> int:
        """Number of requests served by this copy (``s(c)`` in the paper)."""
        return sum(r + w for (_p, r, w) in self.served)

    def add(self, proc: int, reads: int, writes: int) -> None:
        """Add a served portion (merging with an existing one for the processor)."""
        if reads == 0 and writes == 0:
            return
        for i, (p, r, w) in enumerate(self.served):
            if p == proc:
                self.served[i] = (p, r + reads, w + writes)
                return
        self.served.append((proc, reads, writes))

    def take_all(self) -> List[Tuple[int, int, int]]:
        """Remove and return all served portions."""
        out = self.served
        self.served = []
        return out


def reference_induced_subtree_structure(
    rooted: RootedTree, holders: frozenset
) -> Tuple[int, Dict[int, int], Dict[int, int]]:
    root = min(holders)
    parent: Dict[int, int] = {root: -1}
    depth: Dict[int, int] = {root: 0}
    stack = [root]
    seen = {root}
    while stack:
        u = stack.pop()
        for v in rooted.network.neighbors(u):
            if v in holders and v not in seen:
                seen.add(v)
                parent[v] = u
                depth[v] = depth[u] + 1
                stack.append(v)
    if seen != set(holders):
        raise AlgorithmError(
            "holder set is not connected; the nibble placement guarantees "
            "connectivity, so this indicates a malformed input"
        )
    return root, parent, depth


def reference_split_copy(copy: ReferenceCopyRecord, kappa: int) -> List[ReferenceCopyRecord]:
    s = copy.s
    if kappa <= 0 or s <= 2 * kappa:
        return [copy]
    # number of copies: smallest m with s <= 2*kappa*m; then s >= kappa*m holds
    m = -(-s // (2 * kappa))
    base, extra = divmod(s, m)
    quotas = [base + 1] * extra + [base] * (m - extra)

    pieces: List[Tuple[int, int, int]] = []  # (proc, reads, writes) stream
    for proc, reads, writes in copy.served:
        pieces.append((proc, reads, writes))

    result: List[ReferenceCopyRecord] = []
    idx = 0
    cur_proc, cur_reads, cur_writes = (None, 0, 0)
    for quota in quotas:
        new_copy = ReferenceCopyRecord(obj=copy.obj, node=copy.node, home=copy.home)
        need = quota
        while need > 0:
            if cur_reads == 0 and cur_writes == 0:
                cur_proc, cur_reads, cur_writes = pieces[idx]
                idx += 1
            take_reads = min(cur_reads, need)
            cur_reads -= take_reads
            need -= take_reads
            take_writes = min(cur_writes, need)
            cur_writes -= take_writes
            need -= take_writes
            new_copy.add(cur_proc, take_reads, take_writes)
        result.append(new_copy)
    if cur_reads or cur_writes or idx != len(pieces):  # pragma: no cover
        raise AlgorithmError("copy splitting lost requests")
    return result


def reference_delete_rarely_used_copies(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    obj: int,
    holders: frozenset,
    rooted: Optional[RootedTree] = None,
) -> ObjectCopies:
    if rooted is None:
        rooted = network.rooted()
    kappa = pattern.write_contention(obj)

    # Initial reference copies: the holder nearest to each requester,
    # resolved for all requesters at once via the path-incidence structure.
    holder_list = sorted(holders)
    copy_at: Dict[int, ReferenceCopyRecord] = {
        node: ReferenceCopyRecord(obj=obj, node=node) for node in holder_list
    }
    requesters = np.asarray(pattern.requesters(obj), dtype=np.int64)
    if requesters.size:
        nearest = rooted.path_matrix().nearest_in_set(requesters, holder_list)
        reads = pattern.reads[requesters, obj]
        writes = pattern.writes[requesters, obj]
        for proc, holder, r, w in zip(requesters, nearest, reads, writes):
            copy_at[int(holder)].add(int(proc), int(r), int(w))

    if len(holder_list) == 1:
        only = copy_at[holder_list[0]]
        return ObjectCopies(obj=obj, kappa=kappa, copies=reference_split_copy(only, kappa))

    subtree_root, parent_in, depth_in = reference_induced_subtree_structure(rooted, holders)
    height = max(depth_in.values()) if depth_in else 0
    # level(v) = height - depth(v); process levels 0 .. height (leaves first).
    by_level: Dict[int, List[int]] = {}
    for node in holder_list:
        by_level.setdefault(height - depth_in[node], []).append(node)

    alive: Dict[int, ReferenceCopyRecord] = dict(copy_at)
    for level in range(0, height + 1):
        for node in sorted(by_level.get(level, [])):
            copy = alive.get(node)
            if copy is None:
                continue
            if copy.s >= kappa and not (kappa == 0 and copy.s == 0 and len(alive) > 1):
                continue
            if node != subtree_root:
                target_node = parent_in[node]
                target = alive.get(target_node)
                if target is None:
                    target = alive[rooted.nearest_in_set(node, list(alive))]
            else:
                others = [n for n in alive if n != node]
                if not others:
                    continue  # the last copy is never deleted
                target = alive[rooted.nearest_in_set(node, others)]
            for proc, reads, writes in copy.take_all():
                target.add(proc, reads, writes)
            del alive[node]

    survivors: List[ReferenceCopyRecord] = []
    for node in sorted(alive):
        survivors.extend(reference_split_copy(alive[node], kappa))
    return ObjectCopies(obj=obj, kappa=kappa, copies=survivors)


def reference_apply_deletion(network, pattern, nibble_placement) -> List[ObjectCopies]:
    rooted = network.rooted()
    result: List[ObjectCopies] = []
    for obj in range(pattern.n_objects):
        result.append(
            reference_delete_rarely_used_copies(
                network, pattern, obj, nibble_placement.holders(obj), rooted=rooted
            )
        )
    return result


def reference_copies_to_placement(
    copies_per_object: Sequence[ObjectCopies],
    pattern: AccessPattern,
    fallback_holders: Optional[Union[Sequence[int], Mapping[int, int]]] = None,
) -> Tuple[Placement, RequestAssignment]:
    holders: List[List[int]] = []
    shares: Dict[Tuple[int, int], List[Share]] = {}
    for obj in range(pattern.n_objects):
        oc = copies_per_object[obj]
        nodes = sorted(oc.holder_nodes)
        if not nodes:
            if fallback_holders is None:
                raise AlgorithmError(
                    f"object {obj} has no copies and no fallback holder was given"
                )
            nodes = [int(fallback_holders[obj])]
        holders.append(nodes)
        for copy in oc.copies:
            for proc, reads, writes in copy.served:
                shares.setdefault((proc, obj), []).append(
                    Share(copy.node, reads, writes)
                )
    # Merge shares with identical holders (a processor may have several
    # portions on the same node after splitting).
    merged: Dict[Tuple[int, int], List[Share]] = {}
    for key, entries in shares.items():
        by_holder: Dict[int, List[int]] = {}
        for s in entries:
            agg = by_holder.setdefault(s.holder, [0, 0])
            agg[0] += s.reads
            agg[1] += s.writes
        merged[key] = [Share(h, r, w) for h, (r, w) in sorted(by_holder.items())]
    placement = Placement(holders)
    assignment = RequestAssignment(merged, pattern.n_objects)
    return placement, assignment


def reference_directed_basic_loads(
    network: HierarchicalBusNetwork,
    rooted: RootedTree,
    copies,
) -> Tuple[np.ndarray, np.ndarray]:
    n = network.n_nodes
    up = np.zeros(n, dtype=np.int64)
    down = np.zeros(n, dtype=np.int64)
    for copy in copies:
        u = copy.node
        for proc, reads, writes in copy.served:
            count = reads + writes
            if count == 0 or proc == u:
                continue
            path = rooted.path_nodes(u, proc)
            for a, b in zip(path, path[1:]):
                if rooted.parent(a) == b:
                    up[a] += count  # a -> parent(a)
                else:  # b is a child of a
                    down[b] += count  # parent(b) -> b
    return up, down


def reference_map_copies_to_leaves(network, copies_per_object, root=None, affected_objects=None):
    """``map_copies_to_leaves`` walking every node of every level."""
    if root is None:
        root = network.canonical_root()
    rooted = network.rooted(root)

    if affected_objects is None:
        affected_objects = [
            oc.obj for oc in copies_per_object if oc.has_bus_copy(network)
        ]
    affected = tuple(int(x) for x in affected_objects)
    affected_set = set(affected)

    kappa_of: Dict[int, int] = {oc.obj: oc.kappa for oc in copies_per_object}
    participating = []
    for oc in copies_per_object:
        if oc.obj in affected_set:
            participating.extend(oc.copies)

    n = network.n_nodes
    empty = np.zeros(n, dtype=np.float64)
    if not participating or network.n_edges == 0:
        return dict(
            root=root, affected_objects=affected, tau_max=0, moves_up=0, moves_down=0,
            up_mapping_load=empty.copy(), down_mapping_load=empty.copy(),
            up_acceptable_load=empty.copy(), down_acceptable_load=empty.copy(),
        )

    tau_max = max(c.s + kappa_of[c.obj] for c in participating)

    up_basic, down_basic = reference_directed_basic_loads(network, rooted, participating)
    up_acc = 2.0 * up_basic.astype(np.float64)
    down_acc = 2.0 * down_basic.astype(np.float64)
    up_map = np.zeros(n, dtype=np.float64)
    down_map = np.zeros(n, dtype=np.float64)

    # copies currently stored at each node, in deterministic order
    at_node: Dict[int, list] = {v: [] for v in network.nodes()}
    order: Dict[int, int] = {}
    for seq, copy in enumerate(
        sorted(participating, key=lambda c: (c.obj, c.home, -c.s))
    ):
        order[id(copy)] = seq
        at_node[copy.node].append(copy)

    height = rooted.height
    by_level = rooted.nodes_by_level()

    moves_up = 0
    for level in range(0, height):
        for v in by_level.get(level, []):
            parent = rooted.parent(v)
            if parent < 0:
                continue
            stash = at_node[v]
            stash.sort(key=lambda c: order[id(c)])
            while stash and up_map[v] + tau_max <= up_acc[v]:
                copy = stash.pop(0)
                cost = copy.s + kappa_of[copy.obj]
                copy.node = parent
                at_node[parent].append(copy)
                up_map[v] += cost
                moves_up += 1
            delta = up_acc[v] - up_map[v]
            up_acc[v] -= delta
            down_acc[v] -= delta

    moves_down = 0
    for level in range(height, 0, -1):
        for v in by_level.get(level, []):
            if network.is_processor(v):
                continue
            stash = list(at_node[v])
            stash.sort(key=lambda c: order[id(c)])
            children = rooted.children(v)
            for copy in stash:
                cost = copy.s + kappa_of[copy.obj]
                best_child = None
                best_slack = None
                for child in children:
                    slack = down_acc[child] + tau_max - down_map[child] - cost
                    if slack >= 0 and (best_slack is None or slack > best_slack):
                        best_child, best_slack = child, slack
                if best_child is None:
                    raise AlgorithmError(
                        f"no free child edge at node {v} for a copy of object "
                        f"{copy.obj}; Lemma 4.1 excludes this for valid inputs"
                    )
                # by identity: two empty copies of one object are equal
                at_node[v] = [c for c in at_node[v] if c is not copy]
                copy.node = best_child
                at_node[best_child].append(copy)
                down_map[best_child] += cost
                moves_down += 1

    for copy in participating:
        if not network.is_processor(copy.node):
            raise AlgorithmError(
                f"copy of object {copy.obj} remained on bus {copy.node} after mapping"
            )

    return dict(
        root=root, affected_objects=affected, tau_max=int(tau_max),
        moves_up=moves_up, moves_down=moves_down,
        up_mapping_load=up_map, down_mapping_load=down_map,
        up_acceptable_load=up_acc, down_acceptable_load=down_acc,
    )


def reference_validate_for(assignment, network, pattern, placement) -> None:
    """``RequestAssignment.validate_for`` looping over the requester pairs."""
    if pattern.n_objects != assignment.n_objects:
        raise AssignmentError("assignment and pattern cover different object counts")
    for obj in range(pattern.n_objects):
        holders = placement.holders(obj)
        for proc in pattern.requesters(obj):
            entries = assignment.shares(proc, obj)
            if not entries:
                raise AssignmentError(
                    f"processor {proc} requests object {obj} but has no shares"
                )
            reads = sum(s.reads for s in entries)
            writes = sum(s.writes for s in entries)
            if reads != pattern.reads_of(proc, obj) or writes != pattern.writes_of(
                proc, obj
            ):
                raise AssignmentError(
                    f"shares of processor {proc}, object {obj} do not sum to the "
                    "pattern frequencies"
                )
            for s in entries:
                if s.holder not in holders:
                    raise AssignmentError(
                        f"share of processor {proc}, object {obj} uses holder "
                        f"{s.holder} which is not in P_x = {sorted(holders)}"
                    )
                if s.holder not in network:
                    raise AssignmentError(f"unknown holder node {s.holder}")


def reference_to_pattern(sequence, network) -> AccessPattern:
    """``RequestSequence.to_pattern`` looping over the event objects."""
    reads = np.zeros((network.n_nodes, sequence.n_objects), dtype=np.int64)
    writes = np.zeros((network.n_nodes, sequence.n_objects), dtype=np.int64)
    for ev in sequence.events:
        if ev.is_write:
            writes[ev.processor, ev.obj] += 1
        else:
            reads[ev.processor, ev.obj] += 1
    pattern = AccessPattern(reads, writes)
    pattern.validate_for(network)
    return pattern


def reference_pipeline(network, pattern, root=None):
    """``extended_nibble``'s steps, each run by its reference."""
    nib = nibble_placement(network, pattern)
    deleted = reference_apply_deletion(network, pattern, nib.placement)
    snapshot = copy_view(deleted)
    for obj in range(pattern.n_objects):
        if pattern.is_trivial(obj):
            deleted[obj].copies.clear()
    mapping = reference_map_copies_to_leaves(network, deleted, root=root)
    bare = [obj for obj in range(pattern.n_objects) if not deleted[obj].holder_nodes]
    fallback = {}
    if bare:
        centers = np.asarray([nib.centers[obj] for obj in bare])
        leaves = network.rooted().path_matrix().nearest_in_set(centers, network.processors)
        fallback = dict(zip(bare, leaves.tolist()))
    placement, assignment = reference_copies_to_placement(
        deleted, pattern, fallback_holders=fallback
    )
    return snapshot, deleted, mapping, placement, assignment


# --------------------------------------------------------------------------- #
# comparison helpers
# --------------------------------------------------------------------------- #
def copy_view(copies_per_object):
    """Every copy's (node, home, s, portions in order), per object."""
    return [
        (oc.obj, oc.kappa, [(c.node, c.home, c.s, list(c.served)) for c in oc.copies])
        for oc in copies_per_object
    ]


def array_bytes(a):
    return (str(a.dtype), a.shape, a.tobytes())


def assignment_view(assignment):
    return {key: tuple(shares) for key, shares in assignment.items()}


def assert_mapping_matches(network, specs, root):
    """``map_copies_to_leaves`` equals its reference on hand-placed copies.

    ``specs`` lists ``(obj, kappa, [(node, portions), ...])``.  Both raise
    the same error, or both return the same fields and leave every copy
    on the same node; returns the mapping (``None`` when both raise).
    """
    def build(record):
        return [
            ObjectCopies(obj, kappa, [record(obj, node, list(p)) for node, p in copies])
            for obj, kappa, copies in specs
        ]

    new, ref = build(CopyRecord), build(ReferenceCopyRecord)
    got = outcome(map_copies_to_leaves, network, new, root)
    want = outcome(reference_map_copies_to_leaves, network, ref, root)
    assert got == want
    if got is not None:
        return None
    assert copy_view(new) == copy_view(ref)
    mapping = map_copies_to_leaves(network, build(CopyRecord), root)
    expected = reference_map_copies_to_leaves(network, build(ReferenceCopyRecord), root)
    for name, value in expected.items():
        actual = getattr(mapping, name)
        if isinstance(value, np.ndarray):
            assert array_bytes(actual) == array_bytes(value), name
        else:
            assert actual == value, name
    return mapping


def assert_pipeline_matches(network, pattern, root=None):
    ref_deleted, ref_mapped, ref_mapping, ref_placement, ref_assignment = (
        reference_pipeline(network, pattern, root=root)
    )
    result = extended_nibble(network, pattern, root=root)

    # deletion step, before any mapping movement
    nib = nibble_placement(network, pattern)
    deleted = apply_deletion(network, pattern, nib.placement)
    assert copy_view(deleted) == ref_deleted
    rooted = network.rooted(root if root is not None else network.canonical_root())
    every_copy = [c for oc in deleted for c in oc.copies]
    got = directed_basic_loads(network, rooted, every_copy)
    want = reference_directed_basic_loads(network, rooted, every_copy)
    assert [array_bytes(a) for a in got] == [array_bytes(a) for a in want]

    # mapping step and the final records
    assert copy_view(result.modified_copies) == copy_view(ref_mapped)
    mapping = result.mapping
    for name in ("root", "affected_objects", "tau_max", "moves_up", "moves_down"):
        assert getattr(mapping, name) == ref_mapping[name], name
    for name in (
        "up_mapping_load",
        "down_mapping_load",
        "up_acceptable_load",
        "down_acceptable_load",
    ):
        assert array_bytes(getattr(mapping, name)) == array_bytes(ref_mapping[name]), name

    # placement, every share, and the loads they induce
    assert result.placement == ref_placement
    assert assignment_view(result.assignment) == assignment_view(ref_assignment)
    reference_validate_for(result.assignment, network, pattern, result.placement)
    got = compute_loads(network, pattern, result.placement, assignment=result.assignment)
    want = compute_loads(network, pattern, ref_placement, assignment=ref_assignment)
    assert array_bytes(got.edge_loads) == array_bytes(want.edge_loads)
    assert array_bytes(got.bus_loads) == array_bytes(want.bus_loads)


# --------------------------------------------------------------------------- #
# pipeline oracle
# --------------------------------------------------------------------------- #
class TestPipelineOracle:
    @given(data=st.data(), inst=instances())
    @settings(**SETTINGS)
    def test_matches_reference_on_random_instances(self, data, inst):
        net, pat = inst
        root = data.draw(st.sampled_from([None] + list(net.nodes())))
        assert_pipeline_matches(net, pat, root=root)

    @pytest.mark.parametrize("large", [False, True])
    def test_matches_reference_on_instance_suite(self, large):
        for _label, net, pat in standard_instance_suite(large=large):
            assert_pipeline_matches(net, pat)

    def test_matches_reference_at_benchmark_size(self):
        # the offline-static workload's shape: 1024 leaves, 128 objects
        net = balanced_tree(4, 4, 16)
        pat = zipf_pattern(net, 128, requests_per_processor=48, write_fraction=0.1, seed=7)
        assert_pipeline_matches(net, pat)

    @given(net=networks(), data=st.data())
    @settings(**SETTINGS)
    def test_mapping_matches_reference_on_arbitrary_copies(self, net, data):
        """Hand-placed copies (any node, any load) reach the upward moves and
        the Lemma 4.1 error, which pipeline outputs rarely do."""
        procs = list(net.processors)
        specs = []
        for obj in range(data.draw(st.integers(1, 3))):
            kappa = data.draw(st.integers(0, 3))
            copies = []
            for _ in range(data.draw(st.integers(0, 4))):
                node = data.draw(st.sampled_from(list(net.nodes())))
                portions = data.draw(
                    st.lists(
                        st.tuples(
                            st.sampled_from(procs), st.integers(0, 4), st.integers(0, 4)
                        ),
                        max_size=4,
                        unique_by=lambda t: t[0],
                    )
                )
                copies.append((node, [t for t in portions if t[1] or t[2]]))
            specs.append((obj, kappa, copies))
        root = data.draw(st.sampled_from([None] + list(net.nodes())))
        assert_mapping_matches(net, specs, root)

    def test_mapping_moves_equal_empty_copies_by_identity(self):
        """Two empty copies of one object on one node compare equal.  Here
        the first moves up and is mapped back down behind the second, so a
        reference that took moved copies off a node by equality took the
        second copy's entry and then raised ``ValueError``."""
        builder = NetworkBuilder()
        b0, b1 = builder.add_bus(), builder.add_bus()
        p2, p3 = builder.add_processor(), builder.add_processor()
        for u, v in ((b0, b1), (b1, p2), (b0, p3)):
            builder.connect(u, v)
        specs = [
            (0, 3, [(p3, [(p3, 4, 4)]), (b1, []), (b1, []),
                    (b0, [(p2, 4, 0), (p3, 0, 4)])]),
            (1, 1, [(p3, [(p2, 1, 3), (p3, 0, 4)]), (b1, [(p2, 3, 2), (p3, 2, 4)])]),
        ]
        mapping = assert_mapping_matches(builder.build(), specs, root=b0)
        assert (mapping.moves_up, mapping.moves_down) == (1, 5)

    @given(
        portions=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 2)),
            max_size=40,
        )
    )
    @settings(**SETTINGS)
    def test_copy_record_add_matches_reference(self, portions):
        """``add`` merges into the processor's row exactly like the list scan."""
        copy, ref = CopyRecord(obj=0, node=0), ReferenceCopyRecord(obj=0, node=0)
        for proc, reads, writes in portions:
            copy.add(proc, reads, writes)
            ref.add(proc, reads, writes)
            assert copy.served == ref.served and copy.s == ref.s
        assert copy.take_all() == ref.take_all()
        assert copy.served == ref.served and copy.s == ref.s


# --------------------------------------------------------------------------- #
# validate_for oracle on corrupted assignments
# --------------------------------------------------------------------------- #
def outcome(check, *args):
    try:
        check(*args)
    except ReproError as exc:
        return type(exc), str(exc)
    return None


def corrupt(rng, network, shares):
    """Apply one random corruption to a requester pair of ``shares``."""
    key = list(shares)[int(rng.integers(len(shares)))]
    entries = list(shares[key])
    kind = int(rng.integers(5))
    if kind == 0:  # drop the pair
        del shares[key]
        return
    i = int(rng.integers(len(entries)))
    s = entries[i]
    if kind == 1:  # wrong counts
        entries[i] = Share(s.holder, s.reads + int(rng.integers(1, 3)), s.writes)
    elif kind == 2:  # a holder that may not hold the object, or no node at all
        entries[i] = Share(
            int(rng.integers(-1, network.n_nodes + 2)), s.reads, s.writes
        )
    elif kind == 3:  # split a share between its holder and another node
        other = int(rng.integers(0, network.n_nodes))
        entries[i : i + 1] = [Share(s.holder, s.reads, 0), Share(other, 0, s.writes)]
    else:  # an empty share on a random node
        empty = Share(int(rng.integers(0, network.n_nodes + 1)), 0, 0)
        entries.insert(int(rng.integers(len(entries) + 1)), empty)
    shares[key] = entries


class TestValidateForOracle:
    @given(inst=instances(), seed=st.integers(0, 2**16), n_corruptions=st.integers(0, 3))
    @settings(**SETTINGS)
    def test_corrupted_assignments_match_reference(self, inst, seed, n_corruptions):
        net, pat = inst
        result = extended_nibble(net, pat)
        shares = {key: list(entries) for key, entries in result.assignment.items()}
        rng = np.random.default_rng(seed)
        for _ in range(n_corruptions if shares else 0):
            corrupt(rng, net, shares)
            if not shares:
                break
        assignment = RequestAssignment(shares, pat.n_objects)
        args = (net, pat, result.placement)
        assert outcome(assignment.validate_for, *args) == outcome(
            reference_validate_for, assignment, *args
        )

    @given(inst=instances(), seed=st.integers(0, 2**16))
    @settings(**SETTINGS)
    def test_phantom_pairs_are_rejected(self, inst, seed):
        """The one class the references pass: shares on a pair without requests."""
        net, pat = inst
        result = extended_nibble(net, pat)
        rng = np.random.default_rng(seed)
        requested = pat.totals > 0
        silent = [
            (p, x)
            for p in range(-1, net.n_nodes + 1)
            for x in range(pat.n_objects)
            if not (0 <= p < net.n_nodes and requested[p, x])
        ]
        proc, obj = silent[int(rng.integers(len(silent)))]
        shares = {key: list(entries) for key, entries in result.assignment.items()}
        shares[(proc, obj)] = [Share(min(result.placement.holders(obj)), 1, 0)]
        assignment = RequestAssignment(shares, pat.n_objects)
        args = (net, pat, result.placement)
        assert outcome(reference_validate_for, assignment, *args) is None
        with pytest.raises(AssignmentError):
            assignment.validate_for(*args)


# --------------------------------------------------------------------------- #
# to_pattern oracle
# --------------------------------------------------------------------------- #
class TestToPatternOracle:
    @given(inst=instances(), seed=st.integers(0, 2**16), extra=st.integers(0, 3))
    @settings(**SETTINGS)
    def test_matches_reference(self, inst, seed, extra):
        net, pat = inst
        seq = sequence_from_pattern(net, pat, seed=seed)
        rng = np.random.default_rng(seed)
        # a few events issued by arbitrary nodes, buses included
        events = list(seq.events) + [
            RequestEvent(int(rng.integers(net.n_nodes)), int(rng.integers(pat.n_objects)), kind)
            for kind in ("read", "write")[:extra]
        ]
        seq = RequestSequence(events, pat.n_objects)
        got = outcome(seq.to_pattern, net)
        want = outcome(reference_to_pattern, seq, net)
        assert got == want
        if got is None:
            a, b = seq.to_pattern(net), reference_to_pattern(seq, net)
            assert array_bytes(a.reads) == array_bytes(b.reads)
            assert array_bytes(a.writes) == array_bytes(b.writes)
