"""Persistent run registry: every reported number traces back to an artifact.

The registry is a directory (``lab/registry`` in the repo by convention)
holding one JSON artifact per completed run plus a single ``index.json``.
Runs are keyed by ``(spec_hash, seed, engine_version)``:

* ``spec_hash`` -- SHA-256 of the canonical JSON form of what ran: a
  :class:`~repro.sim.scenario.ScenarioSpec` round-trip document for
  scenario entries (:meth:`ScenarioSpec.spec_hash`), or the
  ``{"kind": "experiment", "experiment": ..., "small": ..., "large": ...}``
  document for the E1--E11 experiment runners.  Content-addressed: any
  change to the network, workload, churn, strategies or embedded seeds
  changes the hash.
* ``seed`` -- the entry's own seed (for experiments: the per-experiment
  seed derived by :func:`experiment_seeds`).
* ``engine_version`` -- :data:`repro.version.__version__`; bumping the
  package version invalidates every stored run (``gc`` reclaims the old
  ones).

Artifacts live under ``artifacts/<hash[:2]>/<hash>-s<seed>-v<version>.json``
and contain only deterministic data (result records and the spec document
-- never wall-clock fields or absolute paths), so the whole registry is a
pure function of the registered suite and byte-identical across machines,
worker counts and interrupted/resumed sweeps.  The one declared exception
is the ``backend`` provenance field naming the kernel backend that ran the
entry; the *records* themselves are pinned bit-for-bit backend-independent
(ARCHITECTURE.md invariant 9), so keys, reports and the index never vary
with it.  ``index.json`` is rewritten
sorted on every update and carries no timestamps for the same reason.

:func:`run_missing` is the resumable sweep driver: it diffs a suite of
:class:`LabEntry` definitions against the stored keys and executes *only*
the missing ones, fanning them over the persistent worker pool
(:func:`repro.parallel.iter_jobs`) and registering each artifact the
moment its job completes -- a killed sweep re-run with the same arguments
redoes only the unfinished entries.  A failed run does not stop the
others: it is never registered (so the next pass retries it), and the
sweep raises one :class:`~repro.errors.LabError` naming every failed
entry once the rest have run.  It is the one sweep runner: experiment
entries run through :func:`repro.analysis.experiments.run_experiment`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro import faults
from repro.errors import LabError
from repro.version import __version__ as ENGINE_VERSION

logger = logging.getLogger("repro.lab")

__all__ = [
    "ENGINE_VERSION",
    "INDEX_FORMAT",
    "ARTIFACT_FORMAT",
    "LAB_SUITES",
    "RunKey",
    "LabEntry",
    "LabRegistry",
    "RunMissingResult",
    "canonical_json",
    "canonical_hash",
    "experiment_seeds",
    "experiment_entry",
    "scenario_entry",
    "tournament_entry",
    "suite_entries",
    "run_missing",
]

INDEX_FORMAT = "repro.lab-index/v1"
ARTIFACT_FORMAT = "repro.lab-artifact/v1"

#: Experiments whose *records* are wall-clock measurements (E6 is the
#: runtime-scaling experiment) cannot be content-addressed -- their payload
#: is not a function of the seed -- so the suites exclude them.
NONDETERMINISTIC_EXPERIMENTS = ("E6",)


# --------------------------------------------------------------------------- #
# hashing
# --------------------------------------------------------------------------- #
def canonical_json(document: Mapping) -> str:
    """Canonical JSON of a plain document: sorted keys, fixed separators.

    The encoding is invariant under dict key order and JSON round-trips,
    so it is a stable basis for content addressing.
    """
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def canonical_hash(document: Mapping) -> str:
    """SHA-256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(document).encode("ascii")).hexdigest()


# --------------------------------------------------------------------------- #
# keys and entries
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RunKey:
    """The registry key of one run: ``(spec_hash, seed, engine_version)``."""

    spec_hash: str
    seed: int
    engine_version: str = ENGINE_VERSION

    def as_string(self) -> str:
        """The index key string ``<spec_hash>:<seed>:<engine_version>``."""
        return f"{self.spec_hash}:{self.seed}:{self.engine_version}"


@dataclass(frozen=True)
class LabEntry:
    """One registered unit of work: what to run and how it is keyed.

    ``document`` is the canonical spec document that gets hashed -- the
    :meth:`ScenarioSpec.to_dict` round-trip form for scenarios (so
    ``entry.spec_hash == spec.spec_hash()``) or
    ``{"kind": "experiment", "experiment": id, "small": ..., "large": ...}``
    for experiments -- and is stored verbatim inside the artifact for
    provenance.
    """

    name: str
    kind: str  # "scenario" | "tournament" | "experiment"
    seed: int
    document: Mapping = field(hash=False)

    @property
    def spec_hash(self) -> str:
        return canonical_hash(self.document)

    @property
    def key(self) -> RunKey:
        return RunKey(spec_hash=self.spec_hash, seed=self.seed)

    def to_job_json(self) -> str:
        """Self-contained JSON of the entry (what worker processes get)."""
        return json.dumps(
            {
                "name": self.name,
                "kind": self.kind,
                "seed": self.seed,
                "document": dict(self.document),
            }
        )

    @classmethod
    def from_job_json(cls, text: str) -> "LabEntry":
        doc = json.loads(text)
        return cls(
            name=doc["name"],
            kind=doc["kind"],
            seed=int(doc["seed"]),
            document=doc["document"],
        )


def scenario_entry(spec, seed: int) -> LabEntry:
    """Registry entry for one :class:`~repro.sim.scenario.ScenarioSpec`.

    ``seed`` is the base seed the spec was instantiated with; the spec's
    own embedded seeds are part of the hashed document, so the key is
    content-addressed either way.
    """
    return LabEntry(
        name=spec.name,
        kind="scenario",
        seed=int(seed),
        document=spec.to_dict(),
    )


def tournament_entry(spec, seed: int) -> LabEntry:
    """Registry entry for one strategy-tournament scenario spec.

    Tournament entries are scenario specs whose strategy tuple is the
    pinned set of :data:`repro.lab.tournament.TOURNAMENT_STRATEGIES`
    (build them with :func:`repro.lab.tournament.tournament_spec`); the
    strategy set is part of the hashed document, so tournament and plain
    scenario runs of the same family never collide.  The ``tournament/``
    name prefix keeps the two apart in status tables and reports.
    """
    return LabEntry(
        name=f"tournament/{spec.name}",
        kind="tournament",
        seed=int(seed),
        document=spec.to_dict(),
    )


def experiment_seeds(base_seed: int, ids: Sequence[str]) -> Dict[str, int]:
    """Deterministic per-experiment seeds derived from one base seed.

    The seed of an experiment is the first word of
    ``SeedSequence((base_seed, index))``, where ``index`` is its position
    in the natural id order
    (:data:`repro.analysis.experiments.EXPERIMENT_IDS`), so it depends
    only on the base seed and its id -- not on which other experiments
    run alongside it.
    """
    from repro.analysis.experiments import EXPERIMENT_IDS

    seeds: Dict[str, int] = {}
    for exp_id in set(ids):
        entropy = (int(base_seed), EXPERIMENT_IDS.index(exp_id))
        state = np.random.SeedSequence(entropy).generate_state(1)[0]
        seeds[exp_id] = int(state % 2**31)
    return seeds


def experiment_entry(
    exp_id: str, seed: int, small: bool = False, large: bool = False
) -> LabEntry:
    """Registry entry for one experiment runner (E1--E11, minus E6).

    ``seed`` is the *per-experiment* seed (derive it with
    :func:`experiment_seeds` for sweep-independent keys).
    """
    if exp_id in NONDETERMINISTIC_EXPERIMENTS:
        raise LabError(
            f"experiment {exp_id} has wall-clock records and cannot be "
            "content-addressed in the registry"
        )
    return LabEntry(
        name=exp_id,
        kind="experiment",
        seed=int(seed),
        document={
            "kind": "experiment",
            "experiment": exp_id,
            "small": bool(small),
            "large": bool(large),
        },
    )


# --------------------------------------------------------------------------- #
# suites
# --------------------------------------------------------------------------- #
def _scenario_suite(seed: int, small: bool, large: bool) -> List[LabEntry]:
    from repro.sim.scenario import list_scenarios, scenario_spec

    return [
        scenario_entry(scenario_spec(name, seed=seed, small=small, large=large), seed)
        for name in list_scenarios()
    ]


def _tournament_suite(seed: int, small: bool, large: bool) -> List[LabEntry]:
    from repro.lab.tournament import tournament_spec
    from repro.sim.scenario import list_scenarios

    return [
        tournament_entry(
            tournament_spec(name, seed=seed, small=small, large=large), seed
        )
        for name in list_scenarios()
    ]


def _experiment_suite(seed: int, small: bool, large: bool) -> List[LabEntry]:
    from repro.analysis.experiments import EXPERIMENT_IDS

    ids = [i for i in EXPERIMENT_IDS if i not in NONDETERMINISTIC_EXPERIMENTS]
    seeds = experiment_seeds(seed, ids)
    return [
        experiment_entry(exp_id, seeds[exp_id], small=small, large=large)
        for exp_id in ids
    ]


def _full_suite(seed: int, small: bool, large: bool) -> List[LabEntry]:
    return (
        _scenario_suite(seed, small, large)
        + _tournament_suite(seed, small, large)
        + _experiment_suite(seed, small, large)
    )


def _ci_suite(seed: int, small: bool, large: bool) -> List[LabEntry]:
    # pinned: the committed registry and RESULTS.md are regenerated from
    # exactly this suite in CI, so it ignores the size/seed knobs
    return _full_suite(seed=0, small=True, large=False)


LAB_SUITES: Dict[str, Callable[[int, bool, bool], List[LabEntry]]] = {
    "ci": _ci_suite,
    "scenarios": _scenario_suite,
    "tournament": _tournament_suite,
    "experiments": _experiment_suite,
    "full": _full_suite,
}


def suite_entries(
    suite: str = "ci", seed: int = 0, small: bool = False, large: bool = False
) -> List[LabEntry]:
    """The entries of a named suite.

    ``scenarios`` is every registered scenario family, ``tournament`` is
    every family under the pinned tournament strategy set
    (:mod:`repro.lab.tournament`), ``experiments`` is every deterministic
    experiment runner (E1--E11 minus E6), ``full`` is all three, and
    ``ci`` is the *pinned* full suite at ``seed=0, small=True``
    regardless of the knobs -- the committed registry is regenerated from
    it, so it must mean the same thing on every machine.  ``small`` and
    ``large`` are mutually exclusive for every suite.
    """
    factory = LAB_SUITES.get(suite)
    if factory is None:
        raise LabError(f"unknown lab suite {suite!r} (have: {sorted(LAB_SUITES)})")
    if small and large:
        raise ValueError("small and large are mutually exclusive")
    return factory(seed, small, large)


# --------------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------------- #
def _json_default(value):
    """Encode the numpy scalar/array types that experiment records contain."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


def _durable_write(path: Path, text: str) -> None:
    """Atomic temp-fsync-rename write: readers see old or new, never torn.

    The payload is written to a sibling temp file, fsynced, and renamed
    over the target (``os.replace`` is atomic on POSIX and Windows); the
    directory entry is fsynced best-effort so the rename itself is
    durable.  The ``registry.write`` fault point simulates the failure
    modes this exists to rule out: ``torn-write`` leaves a half-written
    *target* (the legacy in-place write a crash could tear --
    :meth:`LabRegistry.heal` recovers it), ``disk-error`` raises
    :class:`OSError` before anything is touched.
    """
    fault = faults.fault_point("registry.write")
    if fault is not None:
        if fault.kind == "torn-write":
            path.write_text(text[: max(1, len(text) // 2)], encoding="utf-8")
        faults.raise_fault(fault)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass  # platforms without directory fsync: rename is still atomic


class LabRegistry:
    """A content-addressed run registry rooted at one directory.

    Layout::

        <root>/index.json                          sorted key -> entry map
        <root>/artifacts/<h[:2]>/<h>-s<seed>-v<version>.json

    Every write keeps the invariant that the directory is a pure function
    of the set of registered runs: the index is rewritten fully sorted,
    artifacts are canonical JSON, and nothing machine- or time-dependent
    is ever stored.
    """

    def __init__(self, root: "str | Path"):
        self.root = Path(root)

    # -- index ------------------------------------------------------------- #
    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    def load_index(self) -> Dict[str, Dict[str, object]]:
        """The key -> entry-record map (empty for a fresh registry).

        An *unparseable* index is a torn write (a crash mid-rewrite under
        the legacy in-place writer, or disk corruption): it is
        quarantined and rebuilt from the artifact payloads via
        :meth:`heal` -- artifacts are the source of truth, the index is a
        cache.  An index with an *unknown format* string still raises: it
        parses fine, so it is a version mismatch, not corruption, and
        healing would silently destroy a future-format registry.
        """
        if not self.index_path.exists():
            return {}
        try:
            document = json.loads(self.index_path.read_text())
        except json.JSONDecodeError:
            logger.warning(
                "registry index %s is torn/corrupt; quarantining and "
                "rebuilding from artifacts",
                self.index_path,
            )
            self.heal()
            if not self.index_path.exists():
                return {}
            document = json.loads(self.index_path.read_text())
        if document.get("format") != INDEX_FORMAT:
            raise LabError(
                f"unknown registry index format {document.get('format')!r} "
                f"in {self.index_path}"
            )
        return dict(document.get("entries", {}))

    def _write_index(self, entries: Mapping[str, Mapping]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        document = {
            "format": INDEX_FORMAT,
            "entries": {key: entries[key] for key in sorted(entries)},
        }
        _durable_write(
            self.index_path, json.dumps(document, indent=2, sort_keys=True)
        )

    def heal(self) -> Dict[str, object]:
        """Rebuild ``index.json`` from artifact payloads; quarantine rot.

        Artifacts carry every field the index derives (name, kind, seed,
        spec hash, engine version, record count), so a lost or torn index
        is rebuilt *byte-identically* to the one an uninterrupted sweep
        would have written.  An unparseable index or artifact is moved
        aside to ``<name>.corrupt`` (never deleted -- forensics over
        convenience); a quarantined artifact's runs simply count as
        missing, which ``run-missing`` heals by re-executing them.
        Returns a report: quarantined paths and the rebuilt entry count.
        """
        quarantined: List[str] = []
        if self.index_path.exists():
            parseable = True
            try:
                json.loads(self.index_path.read_text())
            except json.JSONDecodeError:
                parseable = False
            if not parseable:
                target = self.index_path.with_name(self.index_path.name + ".corrupt")
                os.replace(self.index_path, target)
                quarantined.append(target.relative_to(self.root).as_posix())
        entries: Dict[str, Dict[str, object]] = {}
        for path in sorted((self.root / "artifacts").glob("*/*.json")):
            try:
                payload = json.loads(path.read_text())
                if payload.get("format") != ARTIFACT_FORMAT:
                    raise ValueError(f"format {payload.get('format')!r}")
                key = (
                    f"{payload['spec_hash']}:{payload['seed']}:"
                    f"{payload['engine_version']}"
                )
                record = {
                    "name": payload["name"],
                    "kind": payload["kind"],
                    "seed": payload["seed"],
                    "spec_hash": payload["spec_hash"],
                    "engine_version": payload["engine_version"],
                    "artifact": path.relative_to(self.root).as_posix(),
                    "n_records": payload["n_records"],
                }
            except (ValueError, KeyError) as exc:
                logger.warning("quarantining corrupt artifact %s: %s", path, exc)
                target = path.with_name(path.name + ".corrupt")
                os.replace(path, target)
                quarantined.append(target.relative_to(self.root).as_posix())
                continue
            entries[key] = record
        if entries or quarantined or self.index_path.exists() or self.root.exists():
            self._write_index(entries)
        return {"entries": len(entries), "quarantined": quarantined}

    # -- artifacts --------------------------------------------------------- #
    def artifact_path(self, key: RunKey) -> Path:
        """The content-addressed artifact location of a key."""
        name = f"{key.spec_hash}-s{key.seed}-v{key.engine_version}.json"
        return self.root / "artifacts" / key.spec_hash[:2] / name

    def has(self, key: RunKey) -> bool:
        """True iff the key is indexed *and* its artifact file exists.

        A dangling index entry (artifact deleted by hand or by a killed
        write) counts as missing, so ``run-missing`` heals it.
        """
        return key.as_string() in self.load_index() and self.artifact_path(key).exists()

    def get(self, key: RunKey) -> Dict[str, object]:
        """Load the artifact payload of a key."""
        path = self.artifact_path(key)
        if not path.exists():
            raise LabError(f"no artifact for {key.as_string()} in {self.root}")
        payload = json.loads(path.read_text())
        if payload.get("format") != ARTIFACT_FORMAT:
            raise LabError(f"unknown artifact format {payload.get('format')!r} in {path}")
        return payload

    def record(self, entry: LabEntry, records: Sequence[Mapping]) -> Path:
        """Register one completed run: write its artifact, update the index.

        Both writes are atomic temp-fsync-rename (:func:`_durable_write`),
        and the artifact is written before the index entry, so a crash at
        any point leaves either a complete (artifact, index) pair or a
        harmless orphan artifact that the next ``record`` overwrites with
        identical bytes -- never a torn file.

        ``backend`` names the kernel backend that executed the run.  It is
        the one declared provenance field: the run *key* and the
        ``records`` payload never depend on it (compiled kernels are
        pinned bit-for-bit against the numpy reference, ARCHITECTURE.md
        invariant 9), so everything derived from the registry -- reports,
        hashes, the index -- is backend-independent.
        """
        from repro.core.kernels import active_backend

        key = entry.key
        payload = {
            "format": ARTIFACT_FORMAT,
            "backend": active_backend(),
            "kind": entry.kind,
            "name": entry.name,
            "seed": entry.seed,
            "spec_hash": entry.spec_hash,
            "engine_version": key.engine_version,
            "spec": dict(entry.document),
            "n_records": len(records),
            "records": list(records),
        }
        path = self.artifact_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        _durable_write(
            path,
            json.dumps(payload, indent=2, sort_keys=True, default=_json_default),
        )
        entries = self.load_index()
        entries[key.as_string()] = {
            "name": entry.name,
            "kind": entry.kind,
            "seed": entry.seed,
            "spec_hash": entry.spec_hash,
            "engine_version": key.engine_version,
            "artifact": path.relative_to(self.root).as_posix(),
            "n_records": len(records),
        }
        self._write_index(entries)
        return path

    # -- suite queries ------------------------------------------------------ #
    def missing(self, entries: Sequence[LabEntry]) -> List[LabEntry]:
        """The suite entries with no stored run, in suite order."""
        index = self.load_index()
        return [
            entry
            for entry in entries
            if not (
                entry.key.as_string() in index
                and self.artifact_path(entry.key).exists()
            )
        ]

    def status_rows(self, entries: Sequence[LabEntry]) -> List[Dict[str, object]]:
        """One status record per suite entry (for the ``status`` table)."""
        missing = {e.key.as_string() for e in self.missing(entries)}
        return [
            {
                "name": entry.name,
                "kind": entry.kind,
                "seed": entry.seed,
                "spec_hash": entry.spec_hash[:12],
                "version": entry.key.engine_version,
                "stored": entry.key.as_string() not in missing,
            }
            for entry in entries
        ]

    def gc(
        self, entries: Sequence[LabEntry], dry_run: bool = False
    ) -> List[str]:
        """Drop every stored run not keyed by the given suite.

        Reclaims runs of old engine versions, stale spec contents and
        entries removed from the suite.  Orphaned artifact files (present
        on disk but absent from the index) are removed too.  Returns the
        removed key strings / artifact paths; with ``dry_run`` nothing is
        touched.
        """
        keep_keys = {entry.key.as_string() for entry in entries}
        index = self.load_index()
        removed: List[str] = []
        survivors: Dict[str, Dict[str, object]] = {}
        for key_string, record in index.items():
            if key_string in keep_keys:
                survivors[key_string] = record
            else:
                removed.append(key_string)
                if not dry_run:
                    (self.root / str(record["artifact"])).unlink(missing_ok=True)
        accounted = {self.root / str(r["artifact"]) for r in index.values()}
        for path in sorted((self.root / "artifacts").glob("*/*.json")):
            if path not in accounted:  # orphan: on disk but never indexed
                removed.append(path.relative_to(self.root).as_posix())
                if not dry_run:
                    path.unlink(missing_ok=True)
        if not dry_run:
            if self.index_path.exists() or survivors:
                self._write_index(survivors)
            for bucket in sorted((self.root / "artifacts").glob("*")):
                if bucket.is_dir() and not any(bucket.iterdir()):
                    bucket.rmdir()
        return removed


# --------------------------------------------------------------------------- #
# run-missing: the resumable sweep
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RunMissingResult:
    """What one ``run-missing`` pass did."""

    total: int
    already_stored: int
    executed: List[str]  # key strings, in completion order

    @property
    def n_executed(self) -> int:
        return len(self.executed)


def _execute_entry(job_json: str) -> List[Dict[str, object]]:
    """Run one entry and return its records (module-level: pickles to workers)."""
    entry = LabEntry.from_job_json(job_json)
    if entry.kind in ("scenario", "tournament"):
        from repro.sim.scenario import ScenarioSpec, run_scenario

        spec = ScenarioSpec.from_dict(entry.document)
        return run_scenario(spec)
    if entry.kind == "experiment":
        from repro.analysis.experiments import run_experiment

        document = entry.document
        try:
            return run_experiment(
                document["experiment"],
                entry.seed,
                small=bool(document.get("small", False)),
                large=bool(document.get("large", False)),
            )
        except Exception as exc:
            raise LabError(
                f"experiment {entry.name} (seed {entry.seed}) failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
    raise LabError(f"unknown lab entry kind {entry.kind!r}")


def _attempt_entry(job_json: str):
    """``(records, None)``, or ``(None, message)`` for a run that failed.

    A failed run comes back as a value, not an exception, so it neither
    stops the entries after it nor cancels the jobs of a parallel sweep
    that have not started yet (module-level: pickles to workers).
    """
    try:
        return _execute_entry(job_json), None
    except LabError as exc:
        return None, str(exc)


def run_missing(
    registry: LabRegistry,
    entries: Sequence[LabEntry],
    parallel: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> RunMissingResult:
    """Execute exactly the suite entries the registry does not hold yet.

    Each finished run is registered immediately (artifact written, index
    updated), so interrupting the sweep at any point loses only the jobs
    in flight: the next ``run_missing`` with the same suite executes the
    remainder and the final registry is byte-identical to an
    uninterrupted sweep.

    A run that fails (its job raises :class:`LabError`) is not registered
    and does not stop the sweep: every other missing entry still runs and
    registers, then one :class:`LabError` names each failed entry in
    suite order.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    missing = registry.missing(entries)
    executed: List[str] = []
    failures: Dict[int, str] = {}

    def settle(index: int, outcome) -> None:
        records, error = outcome
        entry = missing[index]
        if error is not None:
            failures[index] = error
            return
        registry.record(entry, records)
        executed.append(entry.key.as_string())
        if progress is not None:
            progress(f"{entry.kind} {entry.name} (seed {entry.seed})")

    if parallel == 1 or len(missing) <= 1:
        for index, entry in enumerate(missing):
            settle(index, _attempt_entry(entry.to_job_json()))
    else:
        from repro.parallel import iter_jobs

        jobs = [(entry.to_job_json(),) for entry in missing]
        for index, outcome in iter_jobs(min(parallel, len(jobs)), _attempt_entry, jobs):
            settle(index, outcome)
    if failures:
        raise LabError(
            f"{len(failures)} of {len(missing)} missing runs failed and were "
            "not registered (the next run-missing retries them): "
            + "; ".join(failures[index] for index in sorted(failures))
        )
    return RunMissingResult(
        total=len(entries),
        already_stored=len(entries) - len(missing),
        executed=executed,
    )
