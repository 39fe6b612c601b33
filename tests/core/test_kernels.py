"""Kernel backend selection, index-capacity guards and dtype invariants.

Covers the dispatch machinery of :mod:`repro.core.kernels` (environment
and runtime backend selection, explicit failure on unavailable
backends, a loud failure for a C compiler that cannot build, a cache
directory that is not private, a library that lacks a function and a
prototype the binder cannot read), the int32
capacity guard of the memory-scaled substrate (raises
:class:`~repro.errors.CapacityError`, never wraps), and the
int32/int64 parity of the shrunken CSR tables -- including across churn
repairs, where NEP 50 dtype promotion could silently widen them back.
"""

import hashlib
import os
import re
import subprocess
import tempfile
import warnings

import numpy as np
import pytest

from repro.core import kernels
from repro.core.pathmatrix import PathMatrix
from repro.errors import AlgorithmError, CapacityError, ReproError
from repro.network.builders import balanced_tree, random_tree
from repro.network.mutation import apply_mutation
from repro.network.rooted import RootedTree
from repro.workload.churn import random_valid_mutation

INT32_MAX = np.iinfo(np.int32).max


def _fresh_kernel_state(monkeypatch, tmp_path):
    """An empty kernel cache directory and no built or resolved backend."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernel-cache"))
    monkeypatch.setattr(kernels, "_cc_build", None)
    monkeypatch.setattr(kernels, "_resolved", kernels._UNRESOLVED)


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """A host without a C compiler: cc cannot be built."""
    _fresh_kernel_state(monkeypatch, tmp_path)
    monkeypatch.setattr(kernels, "_find_compiler", lambda: None)


class TestBackendSelection:
    def test_backends_are_cc_and_numpy(self):
        assert kernels.BACKENDS == ("cc", "numpy")

    def test_numpy_always_available(self):
        assert "numpy" in kernels.available_backends()

    def test_active_backend_is_available(self):
        assert kernels.active_backend() in kernels.available_backends()

    def test_env_selects_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert kernels.active_backend() == "numpy"

    def test_env_auto_and_blank(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        auto = kernels.active_backend()
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert kernels.active_backend() == auto
        assert auto == kernels.available_backends()[0]

    # numba is no backend: requesting it fails loudly, never falls back
    @pytest.mark.parametrize("name", ["fortran", "numba"])
    def test_env_unknown_backend_raises(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_BACKEND", name)
        with pytest.raises(AlgorithmError, match="unknown kernel backend"):
            kernels.active_backend()

    def test_unavailable_backend_raises_not_degrades(self, monkeypatch, no_compiler):
        assert kernels.available_backends() == ("numpy",)
        monkeypatch.setenv("REPRO_BACKEND", "cc")
        with pytest.raises(AlgorithmError, match="not.*available.*no C compiler"):
            kernels.active_backend()

    def test_set_backend_validates_eagerly(self, no_compiler):
        try:
            with pytest.raises(AlgorithmError):
                kernels.set_backend("cc")
        finally:
            kernels.set_backend(None)

    def test_set_backend_rejects_numba(self):
        try:
            with pytest.raises(AlgorithmError, match="unknown kernel backend"):
                kernels.set_backend("numba")
        finally:
            kernels.set_backend(None)

    def test_no_compiler_falls_back_to_numpy_quietly(self, monkeypatch, no_compiler):
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernels.active_backend() == "numpy"

    def test_use_backend_restores_previous(self):
        before = kernels.active_backend()
        with kernels.use_backend("numpy"):
            assert kernels.active_backend() == "numpy"
        assert kernels.active_backend() == before

    def test_use_backend_restores_on_error(self):
        before = kernels.active_backend()
        with pytest.raises(RuntimeError):
            with kernels.use_backend("numpy"):
                raise RuntimeError("boom")
        assert kernels.active_backend() == before

    def test_forced_backend_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", kernels.active_backend())
        with kernels.use_backend("numpy"):
            assert kernels.active_backend() == "numpy"


class TestBrokenCompiler:
    """A compiler that is found but fails must never be hidden."""

    @pytest.fixture(autouse=True)
    def broken_compiler(self, monkeypatch, tmp_path):
        _fresh_kernel_state(monkeypatch, tmp_path)
        monkeypatch.setenv("CC", "/bin/false")

    def test_auto_warns_then_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        with pytest.warns(RuntimeWarning, match="/bin/false.*status 1"):
            assert kernels.active_backend() == "numpy"
        assert kernels.available_backends() == ("numpy",)

    def test_explicit_cc_raises_naming_the_compiler(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "cc")
        with pytest.raises(AlgorithmError, match="/bin/false") as info:
            kernels.active_backend()
        assert "exited with status 1" in str(info.value)


def _compile(tmp_path, source: str, library) -> None:
    """Build ``source`` into the shared library ``library``."""
    compiler = kernels._find_compiler()
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    path = tmp_path / "planted.c"
    path.write_text(source)
    subprocess.run(
        [compiler, "-shared", "-fPIC", "-o", str(library), str(path)],
        check=True,
        capture_output=True,
    )


def _library_name() -> str:
    """The file name the kernel cache looks up for the embedded source."""
    digest = hashlib.sha256(kernels._C_SOURCE.encode()).hexdigest()[:16]
    return f"repro_kernels_{digest}.so"


def _assert_build_fails(monkeypatch, match: str) -> None:
    """The build failure path: explicit cc raises, auto warns once and
    falls back to numpy, both naming the cause."""
    monkeypatch.setenv("REPRO_BACKEND", "cc")
    with pytest.raises(AlgorithmError, match=match):
        kernels.active_backend()
    monkeypatch.setenv("REPRO_BACKEND", "auto")
    with pytest.warns(RuntimeWarning, match=match):
        assert kernels.active_backend() == "numpy"


#: a library whose constructor leaves a marker file when it is loaded
_PLANTED = """#include <stdio.h>
__attribute__((constructor)) static void planted(void)
{
    FILE *marker = fopen("%s", "w");
    if (marker)
        fclose(marker);
}
"""


class TestKernelCache:
    """Kernels load only from a private cache, and only a library that
    binds every prototype; anything else fails the build loudly."""

    @pytest.mark.parametrize("where", ["default", "REPRO_KERNEL_CACHE"])
    @pytest.mark.parametrize("fault", ["writable-by-others", "owned-by-another-user"])
    def test_a_library_in_a_cache_that_is_not_private_never_loads(
        self, monkeypatch, tmp_path, where, fault
    ):
        _fresh_kernel_state(monkeypatch, tmp_path)
        uid = os.getuid()
        if fault == "owned-by-another-user":
            uid += 1
            monkeypatch.setattr(os, "getuid", lambda: uid)
        if where == "default":
            monkeypatch.delenv("REPRO_KERNEL_CACHE")
            monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
            cache = tmp_path / f"repro-kernels-{uid}"
        else:
            cache = tmp_path / "kernel-cache"
        cache.mkdir()
        cache.chmod(0o777 if fault == "writable-by-others" else 0o700)
        marker = tmp_path / "constructor-ran"
        _compile(tmp_path, _PLANTED % marker, cache / _library_name())
        _assert_build_fails(
            monkeypatch, f"OSError: kernel cache directory {re.escape(str(cache))} is not private"
        )
        assert not marker.exists()

    def test_the_default_cache_is_made_private(self, monkeypatch, tmp_path):
        _fresh_kernel_state(monkeypatch, tmp_path)
        monkeypatch.delenv("REPRO_KERNEL_CACHE")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(kernels, "_find_compiler", lambda: None)
        assert kernels._load_cc_library() is None
        info = (tmp_path / f"repro-kernels-{os.getuid()}").stat()
        assert info.st_mode & 0o777 == 0o700

    def test_a_library_that_lacks_a_function_fails_the_build(self, monkeypatch, tmp_path):
        _fresh_kernel_state(monkeypatch, tmp_path)
        cache = tmp_path / "kernel-cache"
        cache.mkdir(mode=0o700)
        _compile(tmp_path, "int repro_unrelated;\n", cache / _library_name())
        _assert_build_fails(monkeypatch, "OSError: kernel library .* lacks repro_lca")

    @pytest.mark.parametrize(
        "prototype",
        ["void repro_bad(float x)", "float repro_bad(int64_t n)", "void repro_bad(int64_t **rows)"],
    )
    def test_an_unreadable_prototype_fails_the_build(self, monkeypatch, tmp_path, prototype):
        _fresh_kernel_state(monkeypatch, tmp_path)
        monkeypatch.setattr(kernels, "_C_SOURCE", f"#include <stdint.h>\n{prototype}\n{{\n}}\n")
        if kernels._find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        _assert_build_fails(monkeypatch, "ValueError: unreadable prototype of repro_bad")


class TestCapacityGuard:
    def test_within_capacity_passes(self):
        kernels.ensure_index_capacity(INT32_MAX, INT32_MAX, INT32_MAX)

    @pytest.mark.parametrize(
        "kwargs, what",
        [
            (dict(n_nodes=INT32_MAX + 1, n_edges=0, path_entries=0), "node count"),
            (dict(n_nodes=0, n_edges=INT32_MAX + 1, path_entries=0), "edge count"),
            (
                dict(n_nodes=0, n_edges=0, path_entries=INT32_MAX + 1),
                "root-path entry count",
            ),
        ],
    )
    def test_overflow_raises_never_wraps(self, kwargs, what):
        with pytest.raises(CapacityError, match=what):
            kernels.ensure_index_capacity(**kwargs)

    def test_capacity_error_is_repro_error(self):
        assert issubclass(CapacityError, ReproError)

    def test_pathmatrix_construction_guards(self, monkeypatch):
        # shrink the guard threshold so a small network "overflows": the
        # construction path must refuse loudly instead of wrapping indices
        monkeypatch.setattr(kernels, "_INT32_MAX", 4)
        net = balanced_tree(2, 2, 2)
        with pytest.raises(CapacityError):
            PathMatrix(RootedTree(net, net.canonical_root()))

    def test_repair_guards_structural_growth(self, monkeypatch):
        from repro.network.mutation import AttachLeaf

        net = balanced_tree(2, 2, 2)
        rooted = net.rooted()
        pm = rooted.path_matrix()
        outcome = apply_mutation(net, AttachLeaf(int(net.buses[0])))
        monkeypatch.setattr(kernels, "_INT32_MAX", 4)
        with pytest.raises(CapacityError):
            pm.repaired(outcome, rooted.repaired(outcome))


class TestIndexDtypes:
    """The CSR/lifting substrate stays int32, fresh and across repairs."""

    INDEX_ARRAYS = ("_up", "_rp_edges", "_rp_nodes", "_edge_u", "_edge_v")

    def _assert_int32(self, pm):
        for attr in self.INDEX_ARRAYS:
            assert getattr(pm, attr).dtype == kernels.INDEX_DTYPE, attr

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fresh_substrate_is_int32(self, seed):
        net = random_tree(5, 12, seed=seed)
        self._assert_int32(net.rooted().path_matrix())

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_repaired_substrate_stays_int32(self, seed):
        # NEP 50 regression guard: surgery on int32 tables must not promote
        # them back to int64 (np.append with python ints, int64 gathers)
        net = random_tree(5, 12, seed=seed)
        rooted = net.rooted()
        pm = rooted.path_matrix()
        rng = np.random.default_rng(seed)
        for _ in range(6):
            mutation = random_valid_mutation(net, rng)
            outcome = apply_mutation(net, mutation)
            rooted = rooted.repaired(outcome)
            pm = pm.repaired(outcome, rooted)
            net = outcome.network
            self._assert_int32(pm)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_int32_substrate_matches_int64_reference(self, seed):
        # parity: the shrunken tables drive the reference kernels to the
        # same answers as their int64 widenings
        net = random_tree(5, 12, seed=seed)
        pm = net.rooted().path_matrix()
        rng = np.random.default_rng(seed)
        u = rng.integers(0, net.n_nodes, size=64)
        v = rng.integers(0, net.n_nodes, size=64)
        with kernels.use_backend("numpy"):
            narrow = kernels.lca(pm._up, pm._depth, u.copy(), v.copy())
            wide = kernels.lca(
                pm._up.astype(np.int64), pm._depth, u.copy(), v.copy()
            )
        assert np.array_equal(narrow, wide)
        delta = rng.integers(-4, 5, size=net.n_nodes).astype(np.float64)
        out32 = np.zeros(net.n_edges)
        out64 = np.zeros(net.n_edges)
        with kernels.use_backend("numpy"):
            kernels.scatter_paths(
                out32, pm._rp_edges, pm._rp_nodes, pm._rp_indptr, delta
            )
            kernels.scatter_paths(
                out64,
                pm._rp_edges.astype(np.int64),
                pm._rp_nodes.astype(np.int64),
                pm._rp_indptr,
                delta,
            )
        assert np.array_equal(out32, out64)

    def test_memory_bytes_reports_substrate(self):
        net = balanced_tree(2, 3, 2)
        pm = net.rooted().path_matrix()
        total = pm.memory_bytes()
        assert total > 0
        # int32 tables are counted at their shrunken width
        assert total >= pm._up.nbytes + pm._rp_edges.nbytes
        from repro.core.loadstate import LoadState

        state = LoadState(net)
        assert state.memory_bytes() >= total  # shares the pm arrays, adds loads


class TestAggregatePairsUnit:
    def test_empty(self):
        u, o, c = kernels.aggregate_pairs(np.empty(0, np.int64), np.empty(0, np.int64))
        assert u.size == o.size == c.size == 0
        assert u.dtype == o.dtype == c.dtype == np.int64

    def test_small_known(self):
        procs = np.asarray([3, 1, 3, 1, 3])
        objs = np.asarray([0, 2, 0, 2, 1])
        u, o, c = kernels.aggregate_pairs(procs, objs)
        assert u.tolist() == [1, 3, 3]
        assert o.tolist() == [2, 0, 1]
        assert c.tolist() == [2, 2, 1]
