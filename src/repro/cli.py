"""Command-line interface.

Installed as the ``repro`` console script.  The CLI covers the common
workflows without writing Python:

* ``repro generate-network`` -- build a topology and save it as JSON;
* ``repro info`` -- print the structural metrics of a saved network;
* ``repro generate-workload`` -- build a synthetic workload for a network;
* ``repro place`` -- run a placement strategy and report congestion against
  the lower bound (optionally saving the placement);
* ``repro experiment`` -- run one of the experiment runners E1..E11 and print
  its result table (the same rows recorded in EXPERIMENTS.md); whole
  sweeps run through ``repro lab run-missing --suite experiments``;
* ``repro simulate`` -- run a scenario from the declarative registry (or a
  ``ScenarioSpec`` JSON file) through the unified simulation kernel and
  write a JSON result artifact; ``--list`` shows the registered scenario
  families, ``--fleet`` replays all strategies in one stacked pass over
  the timeline and ``--parallel N`` fans sweep/strategy jobs over a
  persistent worker pool -- both produce byte-identical artifacts to the
  serial default;
* ``repro serve`` -- the streaming placement service (docs/SERVING.md):
  request/churn events in over a socket, placement acks and live sink
  metrics out, every session optionally recorded for offline replay;
* ``repro loadgen`` -- replay a scenario workload against a running
  server at a target events/sec and report achieved throughput plus
  ack-latency percentiles;
* ``repro replay-stream`` -- re-run a recorded served stream through the
  offline engine; ``--check`` asserts served equals replayed bit-for-bit
  (ARCHITECTURE invariant 10);
* ``repro lab`` -- the experiment lab (see docs/LAB.md): a persistent run
  registry keyed by ``(spec_hash, seed, engine_version)``.
  ``run-missing`` executes only the suite entries without stored
  artifacts (a killed sweep resumes; ``--parallel N`` fans them over
  worker processes), ``status`` shows what is stored,
  ``report`` regenerates RESULTS.md purely from artifacts (``--check``
  fails on drift) and ``gc`` reclaims runs no longer keyed by the suite;
* ``repro tournament`` -- race the pinned strategy set
  (:data:`repro.lab.tournament.TOURNAMENT_STRATEGIES`) across every
  scenario family through the lab registry (resumable, ``--fleet`` /
  ``--parallel`` byte-identical to serial) and print the leaderboard.

Every subcommand is a thin wrapper around the library API, so the CLI is
also a usage example.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.report import format_table, records_to_table
from repro.analysis.experiments import EXPERIMENT_IDS, run_experiment
from repro.core.baselines import (
    full_replication_placement,
    greedy_congestion_placement,
    median_leaf_placement,
    owner_placement,
    random_placement,
)
from repro.core.bounds import nibble_lower_bound
from repro.core.congestion import compute_loads
from repro.core.deletion import copies_to_placement, refine_copies
from repro.core.extended_nibble import extended_nibble
from repro.network.builders import (
    balanced_tree,
    fat_tree,
    path_of_buses,
    random_tree,
    single_bus,
    star_of_buses,
)
from repro.network.metrics import compute_metrics
from repro.network.serialization import load_network, save_network
from repro.workload.access import AccessPattern
from repro.workload.generators import (
    hotspot_pattern,
    subtree_local_pattern,
    uniform_pattern,
    zipf_pattern,
)
from repro.workload.traces import shared_counter_trace, web_cache_trace

__all__ = ["main", "build_parser"]


# --------------------------------------------------------------------------- #
# registries
# --------------------------------------------------------------------------- #
_STRATEGIES: Dict[str, Callable] = {
    "extended-nibble": None,  # handled specially
    "owner": owner_placement,
    "median-leaf": median_leaf_placement,
    "greedy": greedy_congestion_placement,
    "random": lambda net, pat: random_placement(net, pat, seed=0),
    "full-replication": full_replication_placement,
}

#: The default ``--registry``: the committed registry, which holds exactly
#: the pinned ``ci`` suite (ARCHITECTURE.md invariant 8).
_COMMITTED_REGISTRY = "lab/registry"


def _print_records(records, stream) -> None:
    rows, headers = records_to_table(records)
    if rows:
        print(format_table(rows, headers), file=stream)
    else:
        print("(no rows)", file=stream)


# --------------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------------- #
def _cmd_generate_network(args: argparse.Namespace, stream) -> int:
    topology = args.topology
    if topology == "single-bus":
        net = single_bus(args.processors, bus_bandwidth=args.bus_bandwidth)
    elif topology == "balanced":
        net = balanced_tree(
            args.arity, args.depth, args.leaves_per_bus, bus_bandwidth=args.bus_bandwidth
        )
    elif topology == "star":
        net = star_of_buses(args.arity, args.leaves_per_bus, bus_bandwidth=args.bus_bandwidth)
    elif topology == "path":
        net = path_of_buses(args.depth, leaves_per_bus=args.leaves_per_bus)
    elif topology == "fat-tree":
        net = fat_tree(args.arity, args.depth, args.leaves_per_bus)
    elif topology == "random":
        net = random_tree(args.depth, args.processors, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown topology {topology}")
    save_network(net, args.output)
    print(
        f"wrote {topology} network with {net.n_processors} processors and "
        f"{net.n_buses} buses to {args.output}",
        file=stream,
    )
    return 0


def _cmd_info(args: argparse.Namespace, stream) -> int:
    net = load_network(args.network)
    metrics = compute_metrics(net)
    rows = [[key, value] for key, value in metrics.as_dict().items()]
    print(format_table(rows, headers=["metric", "value"]), file=stream)
    return 0


def _cmd_generate_workload(args: argparse.Namespace, stream) -> int:
    net = load_network(args.network)
    kind = args.kind
    if kind == "uniform":
        pattern = uniform_pattern(
            net, args.objects, requests_per_processor=args.requests, seed=args.seed
        )
    elif kind == "zipf":
        pattern = zipf_pattern(
            net, args.objects, requests_per_processor=args.requests, seed=args.seed
        )
    elif kind == "hotspot":
        pattern = hotspot_pattern(net, args.objects, seed=args.seed)
    elif kind == "local":
        pattern = subtree_local_pattern(
            net, args.objects, requests_per_processor=args.requests, seed=args.seed
        )
    elif kind == "counter":
        pattern = shared_counter_trace(net, n_counters=args.objects)
    elif kind == "web":
        pattern = web_cache_trace(
            net, n_pages=args.objects, requests_per_processor=args.requests, seed=args.seed
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown workload kind {kind}")
    Path(args.output).write_text(json.dumps(pattern.to_dict(), indent=2))
    print(
        f"wrote {kind} workload with {pattern.n_objects} objects "
        f"({int(pattern.reads.sum())} reads, {int(pattern.writes.sum())} writes) "
        f"to {args.output}",
        file=stream,
    )
    return 0


def _cmd_place(args: argparse.Namespace, stream) -> int:
    net = load_network(args.network)
    pattern = AccessPattern.from_dict(json.loads(Path(args.workload).read_text()))
    pattern.validate_for(net)

    refinement = None
    if args.strategy == "extended-nibble":
        result = extended_nibble(net, pattern)
        placement, assignment = result.placement, result.assignment
        if args.refine:
            refinement = refine_copies(net, pattern, result.modified_copies)
            fallback = [
                sorted(placement.holders(x))[0] for x in range(pattern.n_objects)
            ]
            placement, assignment = copies_to_placement(
                refinement.copies, pattern, fallback_holders=fallback
            )
    else:
        if args.refine:
            print(
                "note: --refine only applies to the extended-nibble strategy",
                file=stream,
            )
        placement = _STRATEGIES[args.strategy](net, pattern)
        assignment = None
    profile = compute_loads(net, pattern, placement, assignment=assignment)
    bound = nibble_lower_bound(net, pattern)

    rows = [
        ["strategy", args.strategy],
        ["congestion", profile.congestion],
        ["lower bound", bound],
        ["ratio", profile.congestion / bound if bound > 0 else 1.0],
        ["total load", profile.total_load],
        ["copies", placement.total_copies()],
    ]
    if refinement is not None:
        rows.append(["local-search moves", refinement.moves_accepted])
        rows.append(["congestion before refine", refinement.congestion_before])
    print(format_table(rows, headers=["quantity", "value"]), file=stream)

    if args.output:
        document = {
            "strategy": args.strategy,
            "congestion": profile.congestion,
            "lower_bound": bound,
            "holders": {
                pattern.object_names[x]: sorted(placement.holders(x))
                for x in range(pattern.n_objects)
            },
        }
        Path(args.output).write_text(json.dumps(document, indent=2))
        print(f"wrote placement to {args.output}", file=stream)
    return 0


def _cmd_experiment(args: argparse.Namespace, stream) -> int:
    records = run_experiment(args.id, small=args.small)
    print(f"experiment {args.id}: {len(records)} rows", file=stream)
    _print_records(records, stream)
    return 0


def _cmd_simulate(args: argparse.Namespace, stream) -> int:
    from repro.sim.scenario import (
        SCENARIO_FAMILIES,
        ScenarioSpec,
        list_scenarios,
        run_scenario,
        scenario_spec,
    )

    if args.list:
        rows = [
            [name, SCENARIO_FAMILIES[name](seed=0).description]
            for name in list_scenarios()
        ]
        print(format_table(rows, headers=["scenario", "description"]), file=stream)
        return 0
    if args.spec:
        spec = ScenarioSpec.from_json(Path(args.spec).read_text())
        seed = None  # a spec file carries its seeds inside the document
    elif args.scenario:
        spec = scenario_spec(
            args.scenario, seed=args.seed, small=args.small, large=args.large
        )
        seed = args.seed
    else:
        print("simulate: pass --scenario, --spec or --list", file=stream)
        return 2
    records = run_scenario(spec, fleet=args.fleet, parallel=args.parallel)
    print(
        f"scenario {spec.name}: {len(records)} strategy runs",
        file=stream,
    )
    _print_records(
        [{k: v for k, v in rec.items() if k != "trajectory"} for rec in records],
        stream,
    )
    if args.output:
        from repro.core.kernels import active_backend

        document = {
            "format": "repro.sim-result/v1",
            "scenario": spec.name,
            "seed": seed,
            "backend": active_backend(),
            "spec": spec.to_dict(),
            "records": records,
        }
        Path(args.output).write_text(json.dumps(document, indent=2))
        print(f"wrote simulation report to {args.output}", file=stream)
    return 0


def _resolve_spec(args: argparse.Namespace, stream):
    """Spec-source resolution shared by serve/loadgen (name or JSON file)."""
    from repro.sim.scenario import ScenarioSpec, scenario_spec

    if args.spec:
        return ScenarioSpec.from_json(Path(args.spec).read_text())
    if args.scenario:
        return scenario_spec(
            args.scenario, seed=args.seed, small=args.small, large=args.large
        )
    print(f"{args.command}: pass --scenario or --spec", file=stream)
    return None


def _install_fault_plan(args: argparse.Namespace) -> None:
    """Activate a seeded chaos plan for this process (and its pool workers)."""
    plan_spec = getattr(args, "fault_plan", None)
    if plan_spec:
        from repro import faults

        faults.install(faults.FaultPlan.from_spec(plan_spec))


def _cmd_serve(args: argparse.Namespace, stream) -> int:
    import asyncio

    from repro.serve import PlacementServer

    spec = _resolve_spec(args, stream)
    if spec is None:
        return 2
    _install_fault_plan(args)
    server = PlacementServer(
        spec,
        strategy=args.strategy,
        chunk_size=args.chunk_size,
        batch_size=args.batch_size,
        queue_size=args.queue_size,
        record_dir=args.record_dir,
        max_sessions=args.sessions,
        journal_sync=args.sync_journal,
        watchdog=args.watchdog,
        max_active=args.max_active,
    )

    def ready(bound) -> None:
        host, port = bound
        print(f"serving scenario {spec.name} on {host}:{port}", file=stream)
        stream.flush()

    try:
        asyncio.run(server.serve(args.host, args.port, ready=ready))
    except KeyboardInterrupt:
        pass
    print(f"served {server.sessions_served} sessions", file=stream)
    for path in server.recordings:
        print(f"recorded {path}", file=stream)
    return 0


def _cmd_loadgen(args: argparse.Namespace, stream) -> int:
    from repro.serve.loadgen import loadgen, workload_from_spec

    spec = _resolve_spec(args, stream)
    if spec is None:
        return 2
    _install_fault_plan(args)
    events, mutations = workload_from_spec(spec)
    if args.no_churn:
        mutations = []
    stats = loadgen(
        args.host,
        args.port,
        events,
        mutations,
        rate=args.rate,
        batch=args.batch,
        repeat=args.repeat,
        connect_timeout=args.connect_timeout,
        timeout=args.timeout,
        retries=args.retries,
    )
    latency = stats["latency_ms"]
    rows = [
        ["events", stats["n_events"]],
        ["mutations", stats["n_mutations"]],
        ["target rate (ev/s)", stats["target_rate"] or "max"],
        ["achieved (ev/s)", round(stats["events_per_sec"], 1)],
        ["wall seconds", round(stats["wall_seconds"], 3)],
        ["reconnects", stats["reconnects"]],
        ["resumed", stats["resumed"]],
        ["latency p50 (ms)", round(latency["p50"], 3)],
        ["latency p90 (ms)", round(latency["p90"], 3)],
        ["latency p99 (ms)", round(latency["p99"], 3)],
        ["served", stats["summary"]["served"]],
        ["dropped", stats["summary"]["dropped"]],
        ["congestion", stats["summary"]["congestion"]],
    ]
    print(format_table(rows, headers=["quantity", "value"]), file=stream)
    if args.report:
        Path(args.report).write_text(json.dumps(stats, indent=2))
        print(f"wrote loadgen report to {args.report}", file=stream)
    return 0


def _cmd_replay_stream(args: argparse.Namespace, stream) -> int:
    from repro.serve import replay_recording

    replayed, served = replay_recording(args.recording)
    rows = [[key, value] for key, value in replayed.items()
            if not isinstance(value, (list, dict))]
    print(format_table(rows, headers=["quantity", "replayed"]), file=stream)
    if args.output:
        Path(args.output).write_text(json.dumps(replayed, indent=2))
        print(f"wrote replay record to {args.output}", file=stream)
    if args.check:
        if served is None:
            print("recording has no served summary (partial stream)", file=stream)
            return 1
        if replayed != served:
            print("MISMATCH: served summary differs from offline replay:", file=stream)
            for key in sorted(set(replayed) | set(served)):
                if replayed.get(key) != served.get(key):
                    print(
                        f"  {key}: served={served.get(key)!r} "
                        f"replayed={replayed.get(key)!r}",
                        file=stream,
                    )
            return 1
        print("served summary matches offline replay bit-for-bit", file=stream)
    return 0


def _lab_suite_entries(args: argparse.Namespace):
    from repro.lab.registry import LabRegistry, suite_entries

    registry = LabRegistry(args.registry)
    entries = suite_entries(
        args.suite, seed=args.seed, small=args.small, large=args.large
    )
    return registry, entries


def _refuses_committed_registry(command: str, registry, entries, stream) -> bool:
    """Whether ``command`` must not write ``entries`` into ``registry``.

    The committed registry holds exactly the ci suite (ARCHITECTURE.md
    invariant 8), so it takes only entries of that suite; for anything
    else the command prints why and exits 2 before writing.
    """
    from repro.lab.registry import suite_entries

    if Path(registry).resolve() != Path(_COMMITTED_REGISTRY).resolve():
        return False
    ci_keys = {entry.key for entry in suite_entries("ci")}
    if all(entry.key in ci_keys for entry in entries):
        return False
    print(
        f"{command}: {_COMMITTED_REGISTRY} holds only the ci suite; "
        "write these entries into another --registry DIR",
        file=stream,
    )
    return True


def _cmd_lab_run_missing(args: argparse.Namespace, stream) -> int:
    from repro.lab.registry import run_missing

    registry, entries = _lab_suite_entries(args)
    if _refuses_committed_registry("lab run-missing", registry.root, entries, stream):
        return 2
    result = run_missing(
        registry,
        entries,
        parallel=args.parallel,
        fleet=args.fleet,
        progress=lambda line: print(f"ran {line}", file=stream),
    )
    print(
        f"suite {args.suite}: {result.total} entries, "
        f"{result.already_stored} already stored, "
        f"{result.n_executed} executed",
        file=stream,
    )
    return 0


def _cmd_tournament(args: argparse.Namespace, stream) -> int:
    from repro.lab.registry import LabRegistry, run_missing, suite_entries
    from repro.lab.tournament import leaderboard_rows

    registry = LabRegistry(args.registry)
    entries = suite_entries(
        "tournament", seed=args.seed, small=args.small, large=args.large
    )
    if _refuses_committed_registry("tournament", registry.root, entries, stream):
        return 2
    result = run_missing(
        registry,
        entries,
        parallel=args.parallel,
        fleet=args.fleet,
        progress=lambda line: print(f"ran {line}", file=stream),
    )
    print(
        f"tournament: {result.total} entries, "
        f"{result.already_stored} already stored, "
        f"{result.n_executed} executed",
        file=stream,
    )
    payloads = [registry.get(entry.key) for entry in entries]
    _print_records(leaderboard_rows(payloads), stream)
    print(
        "(standings derive purely from the stored artifacts; "
        "`repro lab report --write` surfaces them in RESULTS.md)",
        file=stream,
    )
    return 0


def _cmd_lab_status(args: argparse.Namespace, stream) -> int:
    from repro.core.kernels import active_backend

    registry, entries = _lab_suite_entries(args)
    rows = registry.status_rows(entries)
    _print_records(rows, stream)
    stored = sum(1 for row in rows if row["stored"])
    print(
        f"{stored} of {len(rows)} suite entries stored in {args.registry} "
        f"(kernel backend: {active_backend()})",
        file=stream,
    )
    return 0


def _cmd_lab_report(args: argparse.Namespace, stream) -> int:
    from repro.lab.reports import check_results, generate_results

    registry, entries = _lab_suite_entries(args)
    if args.check:
        drift = check_results(
            registry, entries, args.output, bench_history=args.bench_history
        )
        if drift:
            print(f"{args.output} is out of date:", file=stream)
            for line in drift:
                print(line, file=stream)
            return 1
        print(f"{args.output} matches the registry artifacts", file=stream)
        return 0
    text = generate_results(registry, entries, bench_history=args.bench_history)
    if args.write:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}", file=stream)
    else:
        print(text, file=stream)
    return 0


def _cmd_lab_heal(args: argparse.Namespace, stream) -> int:
    from repro.lab.registry import LabRegistry

    registry = LabRegistry(args.registry)
    report = registry.heal()
    for item in report["quarantined"]:
        print(f"quarantined {item}", file=stream)
    print(
        f"rebuilt index from artifacts: {report['entries']} entries, "
        f"{len(report['quarantined'])} quarantined",
        file=stream,
    )
    return 0


def _cmd_lab_gc(args: argparse.Namespace, stream) -> int:
    registry, entries = _lab_suite_entries(args)
    removed = registry.gc(entries, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for item in removed:
        print(f"{verb} {item}", file=stream)
    print(f"{verb} {len(removed)} stored runs not keyed by suite "
          f"{args.suite}", file=stream)
    return 0


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #
def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return number


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Data management in hierarchical bus networks (SPAA 2000) -- "
            "reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen_net = sub.add_parser("generate-network", help="build a topology and save it as JSON")
    gen_net.add_argument(
        "--topology",
        choices=["single-bus", "balanced", "star", "path", "fat-tree", "random"],
        default="balanced",
    )
    gen_net.add_argument("--processors", type=int, default=8)
    gen_net.add_argument("--arity", type=int, default=2)
    gen_net.add_argument("--depth", type=int, default=3)
    gen_net.add_argument("--leaves-per-bus", type=int, default=2)
    gen_net.add_argument("--bus-bandwidth", type=float, default=1.0)
    gen_net.add_argument("--seed", type=int, default=0)
    gen_net.add_argument("--output", "-o", required=True)
    gen_net.set_defaults(func=_cmd_generate_network)

    info = sub.add_parser("info", help="print structural metrics of a saved network")
    info.add_argument("network")
    info.set_defaults(func=_cmd_info)

    gen_wl = sub.add_parser("generate-workload", help="build a synthetic workload")
    gen_wl.add_argument("--network", required=True)
    gen_wl.add_argument(
        "--kind",
        choices=["uniform", "zipf", "hotspot", "local", "counter", "web"],
        default="zipf",
    )
    gen_wl.add_argument("--objects", type=int, default=32)
    gen_wl.add_argument("--requests", type=int, default=32)
    gen_wl.add_argument("--seed", type=int, default=0)
    gen_wl.add_argument("--output", "-o", required=True)
    gen_wl.set_defaults(func=_cmd_generate_workload)

    place = sub.add_parser("place", help="run a placement strategy on an instance")
    place.add_argument("--network", required=True)
    place.add_argument("--workload", required=True)
    place.add_argument(
        "--strategy", choices=sorted(_STRATEGIES), default="extended-nibble"
    )
    place.add_argument(
        "--refine",
        action="store_true",
        help=(
            "run the congestion local search (snapshot/rollback tentative "
            "moves) after the extended-nibble pipeline"
        ),
    )
    place.add_argument("--output", "-o", default=None)
    place.set_defaults(func=_cmd_place)

    exp = sub.add_parser("experiment", help="run an experiment runner (E1..E11)")
    exp.add_argument("id", choices=sorted(EXPERIMENT_IDS))
    exp.add_argument("--small", action="store_true", help="use reduced instance sizes")
    exp.set_defaults(func=_cmd_experiment)

    simulate = sub.add_parser(
        "simulate",
        help=(
            "run a declarative scenario (registry name or ScenarioSpec JSON "
            "file) through the unified simulation kernel"
        ),
    )
    source = simulate.add_mutually_exclusive_group()
    source.add_argument(
        "--scenario",
        default=None,
        help="name of a registered scenario family (see --list)",
    )
    source.add_argument(
        "--spec",
        default=None,
        help="path to a ScenarioSpec JSON document to run instead",
    )
    source.add_argument(
        "--list", action="store_true", help="list the registered scenario families"
    )
    simulate.add_argument("--seed", type=int, default=0)
    size = simulate.add_mutually_exclusive_group()
    size.add_argument("--small", action="store_true", help="use reduced instance sizes")
    size.add_argument("--large", action="store_true", help="use the larger instance suite")
    simulate.add_argument(
        "--parallel",
        type=_positive_int,
        default=1,
        help=(
            "fan sweep/strategy jobs over a persistent worker pool; "
            "artifacts are byte-identical to a serial run"
        ),
    )
    simulate.add_argument(
        "--fleet",
        action="store_true",
        help=(
            "replay all strategies of a scenario in one stacked pass over "
            "the timeline (bit-for-bit equal to the sequential default)"
        ),
    )
    simulate.add_argument("--output", "-o", default=None)
    simulate.set_defaults(func=_cmd_simulate)

    def _spec_source(p, with_list: bool = False) -> None:
        source = p.add_mutually_exclusive_group()
        source.add_argument(
            "--scenario",
            default=None,
            help="name of a registered scenario family",
        )
        source.add_argument(
            "--spec",
            default=None,
            help="path to a ScenarioSpec JSON document",
        )
        p.add_argument("--seed", type=int, default=0)
        size = p.add_mutually_exclusive_group()
        size.add_argument(
            "--small", action="store_true", help="use reduced instance sizes"
        )
        size.add_argument(
            "--large", action="store_true", help="use the larger instance suite"
        )
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=7753)

    serve = sub.add_parser(
        "serve",
        help=(
            "run the streaming placement service: request/churn events in "
            "over a socket, placement acks and live metrics out "
            "(docs/SERVING.md)"
        ),
    )
    _spec_source(serve)
    serve.add_argument(
        "--strategy",
        default=None,
        help="strategy label from the spec to serve (default: first)",
    )
    serve.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        help="engine chunk bound (default: unbounded spans)",
    )
    serve.add_argument(
        "--batch-size",
        type=_positive_int,
        default=1024,
        help="max events per engine micro-batch",
    )
    serve.add_argument(
        "--queue-size",
        type=_positive_int,
        default=1024,
        help="inbound message queue bound (the backpressure knob)",
    )
    serve.add_argument(
        "--record-dir",
        default=None,
        help="write one stream recording per session here",
    )
    serve.add_argument(
        "--sessions",
        type=_positive_int,
        default=None,
        help="exit after this many completed sessions (CI smoke mode)",
    )
    serve.add_argument(
        "--sync-journal",
        action="store_true",
        help="fsync every recorded journal line before serving it "
        "(write-ahead durability: acks only cover durable bytes)",
    )
    serve.add_argument(
        "--watchdog",
        type=float,
        default=None,
        help="engine-pass deadline in seconds (a stalled engine aborts "
        "the session with a structured error instead of hanging)",
    )
    serve.add_argument(
        "--max-active",
        type=_positive_int,
        default=None,
        help="shed connections beyond this many active sessions with a "
        "structured retry-after error",
    )
    serve.add_argument(
        "--fault-plan",
        default=None,
        help="seeded chaos plan (JSON file or inline JSON; "
        "docs/ROBUSTNESS.md) -- also via REPRO_FAULT_PLAN",
    )
    serve.set_defaults(func=_cmd_serve)

    lg = sub.add_parser(
        "loadgen",
        help=(
            "replay a scenario workload against a running `repro serve` "
            "at a target events/sec; reports achieved throughput and "
            "ack-latency percentiles"
        ),
    )
    _spec_source(lg)
    lg.add_argument(
        "--rate",
        type=float,
        default=None,
        help="target events/sec (default: as fast as the server accepts)",
    )
    lg.add_argument(
        "--batch",
        type=_positive_int,
        default=64,
        help="events per request message",
    )
    lg.add_argument(
        "--repeat",
        type=_positive_int,
        default=1,
        help="replay the event sequence this many times back to back",
    )
    lg.add_argument(
        "--no-churn",
        action="store_true",
        help="send only request events (skip the spec's churn trace)",
    )
    lg.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        help="seconds to keep retrying the initial connection",
    )
    lg.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-read socket timeout in seconds (a silent server raises "
        "instead of hanging forever)",
    )
    lg.add_argument(
        "--retries",
        type=int,
        default=0,
        help="reconnect attempts after a lost connection (sessions resume "
        "at the journal watermark when the server records)",
    )
    lg.add_argument(
        "--fault-plan",
        default=None,
        help="seeded chaos plan (JSON file or inline JSON; "
        "docs/ROBUSTNESS.md) -- also via REPRO_FAULT_PLAN",
    )
    lg.add_argument(
        "--report", default=None, help="write the stats document here (JSON)"
    )
    lg.set_defaults(func=_cmd_loadgen)

    replay = sub.add_parser(
        "replay-stream",
        help=(
            "re-run a recorded served stream through the offline engine; "
            "--check asserts the served summary matches bit-for-bit "
            "(ARCHITECTURE invariant 10)"
        ),
    )
    replay.add_argument("recording", help="a repro.stream-recording/v1 file")
    replay.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless served equals replayed",
    )
    replay.add_argument("--output", "-o", default=None)
    replay.set_defaults(func=_cmd_replay_stream)

    lab = sub.add_parser(
        "lab",
        help=(
            "experiment lab: persistent run registry, resumable sweeps and "
            "artifact-generated reports (docs/LAB.md)"
        ),
    )
    lab_sub = lab.add_subparsers(dest="lab_command", required=True)

    def _lab_common(p):
        p.add_argument(
            "--registry",
            default=_COMMITTED_REGISTRY,
            help="registry root directory (default: lab/registry)",
        )
        p.add_argument(
            "--suite",
            choices=["ci", "scenarios", "tournament", "experiments", "full"],
            default="ci",
            help=(
                "which suite keys the registry; `ci` is pinned to "
                "(seed 0, small) so the committed registry is reproducible"
            ),
        )
        p.add_argument("--seed", type=int, default=0, help="suite base seed")
        size = p.add_mutually_exclusive_group()
        size.add_argument(
            "--small", action="store_true", help="use reduced instance sizes"
        )
        size.add_argument(
            "--large", action="store_true", help="use the larger instance suite"
        )

    lab_run = lab_sub.add_parser(
        "run-missing",
        help=(
            "execute exactly the suite entries without stored artifacts; "
            "each finished run registers immediately, so a killed sweep "
            "resumes without redoing completed work (lab/registry takes "
            "only entries of the ci suite; sweep anything else into "
            "another --registry)"
        ),
    )
    _lab_common(lab_run)
    lab_run.add_argument(
        "--parallel",
        type=_positive_int,
        default=1,
        help="fan missing entries over the persistent worker pool",
    )
    lab_run.add_argument(
        "--fleet",
        action="store_true",
        help=(
            "replay scenario entries through the stacked fleet engine "
            "(pure accelerator: artifacts are bit-for-bit unchanged)"
        ),
    )
    lab_run.set_defaults(func=_cmd_lab_run_missing)

    lab_status = lab_sub.add_parser(
        "status", help="show which suite entries have stored runs"
    )
    _lab_common(lab_status)
    lab_status.set_defaults(func=_cmd_lab_status)

    lab_report = lab_sub.add_parser(
        "report",
        help=(
            "regenerate RESULTS.md purely from registry artifacts "
            "(--write saves it, --check fails on drift, default prints)"
        ),
    )
    _lab_common(lab_report)
    lab_report.add_argument(
        "--output", "-o", default="RESULTS.md", help="report path"
    )
    lab_report.add_argument(
        "--bench-history",
        default="benchmarks/BENCH_history.json",
        help="committed bench trajectory for the derived speedup section",
    )
    mode = lab_report.add_mutually_exclusive_group()
    mode.add_argument(
        "--write", action="store_true", help="write the report to --output"
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if --output differs from a regeneration",
    )
    lab_report.set_defaults(func=_cmd_lab_report)

    lab_heal = lab_sub.add_parser(
        "heal",
        help=(
            "quarantine a torn index.json (and any corrupt artifacts) and "
            "rebuild the index byte-identically from artifact payloads"
        ),
    )
    lab_heal.add_argument(
        "--registry",
        default=_COMMITTED_REGISTRY,
        help="registry root directory (default: lab/registry)",
    )
    lab_heal.set_defaults(func=_cmd_lab_heal)

    lab_gc = lab_sub.add_parser(
        "gc",
        help=(
            "remove stored runs not keyed by the suite (old engine "
            "versions, stale specs, orphaned artifacts)"
        ),
    )
    _lab_common(lab_gc)
    lab_gc.add_argument(
        "--dry-run", action="store_true", help="only print what would be removed"
    )
    lab_gc.set_defaults(func=_cmd_lab_gc)

    tournament = sub.add_parser(
        "tournament",
        help=(
            "race the pinned strategy set across every scenario family "
            "through the lab registry and print the leaderboard"
        ),
    )
    tournament.add_argument(
        "--registry",
        default=_COMMITTED_REGISTRY,
        help=(
            "registry root directory (default: lab/registry, which takes "
            "only the ci suite's tournament: --small --seed 0)"
        ),
    )
    tournament.add_argument("--seed", type=int, default=0, help="suite base seed")
    t_size = tournament.add_mutually_exclusive_group()
    t_size.add_argument(
        "--small", action="store_true", help="use reduced instance sizes"
    )
    t_size.add_argument(
        "--large", action="store_true", help="use the larger instance suite"
    )
    tournament.add_argument(
        "--parallel",
        type=_positive_int,
        default=1,
        help="fan missing entries over the persistent worker pool",
    )
    tournament.add_argument(
        "--fleet",
        action="store_true",
        help=(
            "replay each entry's strategies through the stacked fleet "
            "engine (pure accelerator: artifacts are bit-for-bit unchanged)"
        ),
    )
    tournament.set_defaults(func=_cmd_tournament)

    return parser


def main(argv: Optional[Sequence[str]] = None, stream=None) -> int:
    """CLI entry point; returns the process exit code.

    Writing to the real stdout, a reader that closes the pipe early
    (``repro simulate --list | head -1``) ends the command with exit code
    1 and no traceback, as CPython's documented SIGPIPE recipe does.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if stream is not None:
        return args.func(args, stream)
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
