"""CPU-cost benchmark of the offline pipeline and the streaming service.

    python3 perfbench/run.py --workload offline-static --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  The workloads and metrics are
declared in ``BENCHMARK.json``; README.md in this directory documents them.
``--trace 0`` prints every end-to-end metric, ``--trace 1`` reruns the
workload with the layer entry points wrapped and prints every per-layer
metric.  The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import common

DEADLINE_S = 175  # the whole run, after the one-off build
OFFLINE = ("offline-static", "offline-adaptive-churn")

# Per-layer metrics of layers a workload never enters read 0; these are the
# ones that come from the served client or the server process, not spans.
SERVED_ONLY = (
    "wire.decode.cpu_us_per_event",
    "wire.encode.cpu_us_per_ack",
    "batcher.events_per_feed",
    "server.residual.cpu_us_per_event",
    "journal.write.cpu_us_per_event",
    "journal.bytes_per_event",
    "server.ack_p50_ms",
    "server.ack_p99_ms",
    "server.ack_samples",
    "loadgen.late_p99_ms",
    "server.backlog_drain_ms",
    "server.rtt_p50_ms",
)


class Outcome:
    """What one run measured: metrics, operations and human-readable notes."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, count: int, reasons: List[str]) -> None:
        self.failed += count
        self.notes.extend(f"FAILED: {reason}" for reason in reasons)


def prepare() -> str:
    """Byte-compile the sources and fill the kernel cache (the cc build
    happens once per checkout); returns the kernel backend in use."""
    common.BUILD.mkdir(exist_ok=True)
    env = common.child_env()
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(common.SRC), str(common.HERE)],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    probe = subprocess.run(
        [sys.executable, "-c", "from repro.core import kernels; print(kernels.active_backend())"],
        env=env, check=True, capture_output=True, text=True,
    )
    backend = probe.stdout.strip()
    if backend != common.PINNED_ENV["REPRO_BACKEND"]:
        raise RuntimeError(f"kernel backend is {backend!r}, expected the pinned one")
    return backend


# --------------------------------------------------------------------------- #
# offline workloads: one fresh process per repetition
# --------------------------------------------------------------------------- #
def offline_rep(args, rep: int, trace: bool):
    command = [
        sys.executable, str(common.HERE / "offline.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--rep", str(rep), "--size", args.size,
    ]
    proc = subprocess.run(
        command + (["--trace"] if trace else []),
        cwd=common.ROOT, env=common.child_env(), capture_output=True, text=True,
        preexec_fn=common.pin_under_test,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def run_offline(args, out: Outcome) -> None:
    """Fresh-process repetitions until ``--seconds`` have passed (at least
    three; with ``--trace 1`` at least two untraced/traced pairs of the same
    input, whose records digests must agree)."""
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    rep = 0
    while rep < (2 if args.trace else 3) or time.perf_counter() < deadline:
        pair = {}
        for trace in (False, True) if args.trace else (False,):
            result = offline_rep(args, rep, trace)
            out.attempted += 1
            if result is None:
                out.fail(1, [f"repetition {rep} exited with an error"])
                continue
            problems = list(result["failures"])
            if trace and pair.get(False, result)["digest"] != result["digest"]:
                problems.append(f"repetition {rep}: tracing changed the records digest")
            if problems:
                out.fail(1, problems)
            pair[trace] = result
            (traced if trace else untraced).append(result)
        rep += 1
    if not untraced or (args.trace and not traced):
        raise RuntimeError("no repetition completed")

    cpu = [r["scenario_cpu_s"] for r in untraced]
    out.notes.append(
        f"scenario_cpu_s median {statistics.median(cpu):.4f} over {len(cpu)} runs: "
        + " ".join(f"{c:.3f}" for c in cpu)
    )
    out.notes.append(
        f"n_events {untraced[0]['n_events']} records digests "
        + " ".join(r["digest"][:12] for r in untraced)
    )
    out.metrics.update({
        "setup_s": statistics.median([r["setup_s"] for r in untraced]),
        "cpu_us_per_event": statistics.median(
            [1e6 * r["scenario_cpu_s"] / r["n_events"] for r in untraced]
        ),
        "peak_rss_mib": statistics.median([r["peak_rss_mib"] for r in untraced]),
    })
    if args.trace:
        for name in traced[0]["layers"]:
            out.metrics[name] = statistics.median([r["layers"][name] for r in traced])
        out.metrics.update({name: 0.0 for name in SERVED_ONLY})
        traced_cpu = statistics.median([r["scenario_cpu_s"] for r in traced])
        out.metrics["trace.overhead_pct"] = 100.0 * (traced_cpu / statistics.median(cpu) - 1)
        out.notes.append(traced[len(traced) // 2]["table"])


# --------------------------------------------------------------------------- #
# served workloads: the benchmark is the client of a spawned server
# --------------------------------------------------------------------------- #
def latency_metrics(session: Dict) -> Dict[str, float]:
    metrics = {
        "server.rtt_p50_ms": 1e3 * statistics.median(session["rtts"]),
        "server.ack_p50_ms": 0.0,
        "server.ack_p99_ms": 0.0,
        "server.ack_samples": 0,
        "loadgen.late_p99_ms": 0.0,
        "server.backlog_drain_ms": 0.0,
    }
    if session["open"] is not None:
        latency = session["open"]["latency_s"]
        metrics.update({
            "server.ack_p50_ms": 1e3 * statistics.median(latency),
            "server.ack_p99_ms": 1e3 * common.percentile(latency, 99),
            "server.ack_samples": len(latency),
            "loadgen.late_p99_ms": 1e3 * common.percentile(session["open"]["late_s"], 99),
            "server.backlog_drain_ms": 1e3 * session["open"]["drain_s"],
        })
    return metrics


def run_served(args, out: Outcome, workdir) -> None:
    import served
    import tracer

    plan = served.Plan(args.workload, args.seed, args.seconds, args.size, workdir)
    setups: List[Dict] = []
    n = plan.n_segments
    setup_after = {min(n - 1, n // 3), min(n - 1, 2 * n // 3)} if not args.trace else set()

    def between_segments(k: int) -> None:
        if k in setup_after:
            setups.append(served.setup_session(plan))

    main = served.run_session(plan, between_segments=between_segments)
    out.attempted += main["sent"]
    problems = served.verify(main["summary"], main["journal"], main["sent"], main["acked"])
    if problems:
        out.fail(main["sent"], problems)
    for setup in setups:
        out.attempted += plan.warmup
        if setup["failures"] or setup["summary"] != setups[0]["summary"]:
            out.fail(plan.warmup, setup["failures"] or ["set-up sessions disagree"])

    latency = latency_metrics(main)
    out.notes.append(
        f"closed loop: {main['closed_events']} events in {n} segments, server us/event "
        + " ".join(f"{v:.2f}" for v in main["segment_us"])
    )
    out.notes.append(" ".join(f"{k}={v:.4g}" for k, v in latency.items()))
    out.metrics.update({
        "setup_s": statistics.median([main["setup_s"]] + [s["setup_s"] for s in setups]),
        "cpu_us_per_event": statistics.median(main["segment_us"]),
        "peak_rss_mib": main["peak_rss_mib"],
    })
    if not args.trace:
        return

    spans_path = workdir / "spans.json"
    traced = served.run_session(plan, spans_out=spans_path)
    out.attempted += traced["sent"]
    if traced["summary"] != main["summary"] or traced["sent"] != main["sent"]:
        out.fail(traced["sent"], ["the traced session's summary differs from the untraced one"])
    spans = tracer.load_spans(spans_path)
    a, b = traced["closed_window"]
    windows = {
        "setup": tracer.Layers(spans, lambda s: s[tracer.T0] < a),
        "closed loop": tracer.Layers(spans, lambda s: a <= s[tracer.T0] < b),
        "open loop+end": tracer.Layers(spans, lambda s: s[tracer.T0] >= b),
    }
    closed = windows["closed loop"]
    events = traced["closed_events"]
    metrics = tracer.layer_metrics(tracer.Layers(spans, lambda s: s[tracer.T0] < b))
    metrics.update({
        "strategy.events_per_chunk": closed.per_call("strategy.serve_chunk"),
        "wire.decode.cpu_us_per_event": 1e6 * closed.cpu_s("wire.decode") / events,
        "wire.encode.cpu_us_per_ack": 1e6 * closed.cpu_s("wire.encode")
        / max(1, closed.count("wire.encode")),
        "batcher.events_per_feed": closed.per_call("batcher.feed"),
        "journal.write.cpu_us_per_event": 1e6 * closed.cpu_s("journal.write") / events,
        "journal.bytes_per_event": main["journal"].stat().st_size / main["sent"],
        "server.residual.cpu_us_per_event": 1e6 * (traced["closed_cpu_s"] - closed.root_cpu)
        / events,
        "trace.overhead_pct": 100.0 * (
            statistics.median(traced["segment_us"]) / statistics.median(main["segment_us"]) - 1
        ),
    })
    metrics.update(latency)
    out.metrics.update(metrics)
    out.notes.append(tracer.format_table(windows))


# --------------------------------------------------------------------------- #
def _deadline(signum, frame):
    raise TimeoutError(f"the run exceeded {DEADLINE_S} s")


def build_parser(declared: Dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(common.SIZES), default="full",
                        help="input size; 'tiny' is for the benchmark's self-test")
    return parser


def main(argv=None) -> int:
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {common.SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    parser = build_parser(declared)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # pin this process too, before numpy is imported by anything below
    os.environ.update(common.child_env())
    sys.path.insert(0, str(common.SRC))
    backend = prepare()
    os.sched_setaffinity(0, common.BENCH_CPUS)
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    out = Outcome()
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=common.BUILD))
    ticks = common.host_cpu_ticks()
    try:
        if args.workload in OFFLINE:
            run_offline(args, out)
        else:
            run_served(args, out, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    signal.alarm(0)
    out.metrics["host.steal_pct"] = common.steal_pct(ticks, common.host_cpu_ticks())

    import numpy

    for note in out.notes:
        print(note)
    print(
        f"env backend={backend} python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={common.NPROC} host.steal_pct={out.metrics['host.steal_pct']:.2f}"
    )
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    metrics = {m["name"]: {"value": out.metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    common.emit({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
