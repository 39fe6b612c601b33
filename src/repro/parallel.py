"""Persistent worker pools shared by the sweep layers.

Both sweep entry points -- the lab's ``run-missing`` sweep of
:mod:`repro.lab.registry` and the scenario sweeps of
:mod:`repro.sim.scenario` -- fan independent jobs out over worker
processes.  Spinning a fresh :class:`~concurrent.futures.ProcessPoolExecutor`
up per call throws the workers' warm state away: their imports and the
compiled kernel library each one loads.  Workers keep no substrate
between jobs; every job builds its own.  This module keeps one pool
alive per worker count instead; repeated sweeps in one process
(experiment batteries, test suites, the CLI called from a driver loop)
reuse the same warm workers.

Pools are shut down at interpreter exit.  Determinism is unaffected:
jobs carry their own seeds and the callers collect futures in submission
order, so results are independent of which worker runs what.

A pool whose workers died (OOM kill, segfault) enters the executor's
broken state permanently.  :func:`run_jobs` and :func:`iter_jobs` handle
that through the public :class:`~concurrent.futures.process.BrokenProcessPool`
exception: the dead pool is discarded, a fresh one replaces it, and the
affected jobs are resubmitted **once** (sweep jobs are pure functions of
their arguments, so a rerun is safe).  A second break in the same call
propagates -- a workload that reliably kills its workers is a real
failure, not a pool-lifecycle hiccup.

One pool lives per distinct worker count, so a driver alternating
between, say, ``--parallel 2`` and ``--parallel 8`` keeps two pools (10
resident workers) warm; call :func:`shutdown_pools` to release them
early when that matters.
"""

from __future__ import annotations

import atexit
import os
import signal
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Dict

from repro import faults

__all__ = [
    "persistent_pool",
    "run_jobs",
    "iter_jobs",
    "shutdown_pools",
    "BrokenProcessPool",
]

_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _call_with_faults(fn, *args):
    """Worker-side shim: hit the ``parallel.worker`` fault point, then run.

    Only submitted when a fault plan is active in the parent (the
    non-chaos path keeps submitting ``fn`` directly -- zero overhead).
    Workers inherit ``REPRO_FAULT_PLAN`` through the environment, so the
    plan resolves lazily in each worker; a ``kill`` fault dies hard with
    SIGKILL -- the genuine :class:`BrokenProcessPool` scenario, not an
    exception the executor could catch.  Cross-process ``once`` sentinels
    keep a kill rule from taking out every worker.
    """
    fault = faults.fault_point("parallel.worker")
    if fault is not None:
        if fault.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        faults.raise_fault(fault)
    return fn(*args)


def _submit(pool: ProcessPoolExecutor, fn, args):
    if faults.plan_active():
        return pool.submit(_call_with_faults, fn, *args)
    return pool.submit(fn, *args)


def persistent_pool(max_workers: int) -> ProcessPoolExecutor:
    """The shared process pool for ``max_workers`` workers (created lazily).

    The pool stays alive across calls so its workers stay warm; it is
    shut down automatically at interpreter exit (or explicitly via
    :func:`shutdown_pools`).  Submitting to a pool whose workers died
    raises :class:`BrokenProcessPool`; callers that want the
    replace-and-retry behaviour should go through :func:`run_jobs` /
    :func:`iter_jobs` rather than submitting directly.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    pool = _POOLS.get(max_workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=max_workers)
        _POOLS[max_workers] = pool
    return pool


def _discard_pool(max_workers: int) -> None:
    """Drop (and best-effort shut down) the pool for one worker count."""
    pool = _POOLS.pop(max_workers, None)
    if pool is not None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass  # a broken pool may be torn down already


def run_jobs(max_workers: int, fn, jobs):
    """Run ``fn(*args)`` for every ``args`` in ``jobs`` on the shared pool.

    Results come back in submission order (determinism does not depend on
    worker scheduling).  If collecting a result raises, the not-yet-started
    jobs are cancelled so no orphaned work keeps running in the persistent
    pool, and the exception propagates.  A pool broken by dying workers
    (:class:`BrokenProcessPool`) is replaced and the whole job list is
    resubmitted once; jobs must therefore be pure functions of their
    arguments (the sweep jobs are).
    """
    jobs = list(jobs)
    try:
        return _collect_jobs(persistent_pool(max_workers), fn, jobs)
    except BrokenProcessPool:
        _discard_pool(max_workers)
        return _collect_jobs(persistent_pool(max_workers), fn, jobs)


def _collect_jobs(pool: ProcessPoolExecutor, fn, jobs):
    """Submit all jobs and collect results in submission order."""
    futures = [_submit(pool, fn, args) for args in jobs]
    try:
        return [future.result() for future in futures]
    finally:
        for future in futures:
            future.cancel()


def iter_jobs(max_workers: int, fn, jobs):
    """Yield ``(index, fn(*jobs[index]))`` pairs in *completion* order.

    The streaming counterpart of :func:`run_jobs` for callers that persist
    each result as soon as it exists (the lab registry's ``run-missing``
    writes every finished artifact immediately, so a killed sweep keeps
    all completed work).  ``index`` is the job's position in ``jobs``;
    callers that need submission order can reassemble it.  If a job
    raises, or the consumer abandons the generator, the not-yet-started
    jobs are cancelled so no orphaned work keeps running in the
    persistent pool.  A pool broken by dying workers is replaced and only
    the not-yet-yielded jobs are resubmitted once, so already-delivered
    results are never recomputed.
    """
    pending = {index: args for index, args in enumerate(jobs)}
    for attempt in (0, 1):
        futures = {}
        try:
            pool = persistent_pool(max_workers)
            for index, args in pending.items():
                futures[_submit(pool, fn, args)] = index
            for future in as_completed(futures):
                index = futures[future]
                result = future.result()
                del pending[index]
                yield index, result
            return
        except BrokenProcessPool:
            if attempt:
                raise
            _discard_pool(max_workers)
        finally:
            for future in futures:
                future.cancel()


def shutdown_pools() -> None:
    """Shut every persistent pool down and drop the registry.

    Registered at interpreter exit, so it must tolerate pools that broke
    earlier (their worker processes are already gone and ``shutdown`` on
    some Python versions can trip over the half-torn-down state).
    """
    for pool in list(_POOLS.values()):
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass  # already-broken pools must not wedge interpreter exit
    _POOLS.clear()


atexit.register(shutdown_pools)
