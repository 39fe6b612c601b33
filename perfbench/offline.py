"""One repetition of an offline workload, in a fresh process.

    python perfbench/offline.py --workload offline-static --seed 0 --rep 0 [--trace] [--size tiny]

Measures, with ``time.process_time`` (CPU of every thread of this process):

* set-up: from interpreter start until the imports are done and the kernel
  backend is loaded;
* one ``run_scenario(spec)`` call, scenario build included;
* the peak resident memory of the process afterwards.

Then checks the records (outside the timed call) and prints one JSON line:
the measurements, the records digest and the list of failed checks.  With
``--trace`` the layer entry points are wrapped first and the line also
carries the per-layer metrics and table of the traced call.
"""

from __future__ import annotations

import time

import argparse
import hashlib
import json
import resource

from repro.core import kernels
from repro.sim import scenario

import repro.dynamic.evaluate  # noqa: F401  (imported lazily by run_scenario)
import repro.sim.engine  # noqa: F401  (imported lazily by run_scenario)

BACKEND = kernels.active_backend()
SETUP_CPU_S = time.process_time()

import common  # noqa: E402
import tracer  # noqa: E402


def records_digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def check_records(records) -> list:
    """Failed output checks of one run (an empty list means it passed)."""
    failures = []
    if not records:
        failures.append("no records")
    for rec in records:
        if rec.get("repair_consistent") is not True:
            failures.append(f"{rec.get('strategy')}: repair_consistent is not True")
        if rec.get("served", -1) + rec.get("dropped", -1) != rec.get("n_events"):
            failures.append(f"{rec.get('strategy')}: served + dropped != n_events")
    return failures


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(common.SIZES))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    spec = scenario.ScenarioSpec.from_dict(
        common.offline_spec(args.workload, args.seed, args.rep, args.size)
    )
    recorder = None
    if args.trace:
        recorder = tracer.SpanRecorder()
        tracer.install(recorder)
    start = time.process_time()
    records = scenario.run_scenario(spec)  # looked up after install: traced
    scenario_cpu_s = time.process_time() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "backend": BACKEND,
        "setup_s": SETUP_CPU_S,
        "scenario_cpu_s": scenario_cpu_s,
        "n_events": sum(rec["n_events"] for rec in records),
        "peak_rss_mib": peak_rss_mib,
        "digest": records_digest(records),
        "failures": check_records(records),
    }
    if recorder is not None:
        layers = tracer.Layers(recorder.spans)
        result["layers"] = tracer.layer_metrics(layers)
        result["table"] = tracer.format_table({"run_scenario": layers})
    common.emit(result)


if __name__ == "__main__":
    main()
