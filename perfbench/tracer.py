"""Span tracing of the program's layers, installed from outside the program.

:func:`install` wraps the public entry points of each layer (the table
:data:`ENTRY_POINTS`) so every call records one span: name, wall start and
end (``time.perf_counter``, CLOCK_MONOTONIC, so timestamps of two processes
on one host compare), the parent span, the calling thread's CPU time at
entry and exit, and an optional amount (events handed in).  Spans stay in
memory; :meth:`SpanRecorder.dump` writes them out once, at exit.

A function is replaced wherever a ``repro`` module holds a reference to it
(module globals and module-level registry dicts such as
``PATTERN_GENERATORS``), so ``from x import f`` call sites are traced too;
methods are replaced on their class.  Per-event scalar helpers such as
``RootedTree.distance`` are deliberately not wrapped: they run more than
1e5 times per run and the wrapper would dominate them.

A layer's self time is its span's CPU minus the CPU of its child spans;
:func:`layer_metrics` sums self times and counts per layer.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

KERNEL_OPS = (
    "aggregate_pairs",
    "lca",
    "scatter_paths",
    "pair_scatter",
    "pair_scatter_lanes",
    "bus_fold",
    "apply_column",
    "apply_columns_lanes",
    "rescan",
    "rescan_rows",
)


def _count_rows(args, kwargs) -> int:
    return len(args[0])


def _count_arg1(args, kwargs) -> int:
    return len(args[1])


def _count_span(args, kwargs) -> int:
    return int(args[3]) - int(args[2])


# (span name, module, attribute or "Class.method", amount of work per call)
ENTRY_POINTS = (
    ("workload.generate", "repro.workload.generators", "zipf_pattern", None),
    ("workload.generate", "repro.workload.churn", "mutation_storm", None),
    ("sequence.materialise", "repro.dynamic.sequence", "sequence_from_pattern", None),
    ("sequence.batch", "repro.dynamic.sequence", "RequestSequence.__init__", None),
    ("sequence.to_pattern", "repro.dynamic.sequence", "RequestSequence.to_pattern", None),
    ("sequence.as_arrays", "repro.dynamic.sequence", "RequestSequence.as_arrays", None),
    ("placement.solve", "repro.core.extended_nibble", "extended_nibble", None),
    ("placement.nibble", "repro.core.nibble", "nibble_placement", None),
    ("placement.deletion", "repro.core.deletion", "apply_deletion", None),
    ("placement.mapping", "repro.core.mapping", "map_copies_to_leaves", None),
    ("network.steiner", "repro.network.rooted", "RootedTree.steiner_edge_ids", None),
    ("network.nearest", "repro.network.rooted", "RootedTree.nearest_in_set", None),
    ("network.mutation", "repro.network.mutation", "apply_mutation", None),
    ("substrate.build", "repro.network.rooted", "RootedTree.__init__", None),
    ("substrate.build", "repro.core.pathmatrix", "PathMatrix.__init__", None),
    ("substrate.build", "repro.core.loadstate", "LoadState.__init__", None),
    ("substrate.repair", "repro.core.loadstate", "LoadState.repair", None),
    ("strategy.serve_chunk", "repro.dynamic.online", "OnlineStrategy.serve_chunk", _count_span),
    (
        "strategy.serve_chunk",
        "repro.dynamic.online",
        "StaticPlacementManager.serve_chunk",
        _count_span,
    ),
    ("strategy.serve_chunk", "repro.dynamic.online", "EdgeCounterManager.serve_chunk", _count_span),
    ("strategy.apply_mutation", "repro.dynamic.online", "OnlineStrategy.apply_mutation", None),
    ("scenario.run", "repro.sim.scenario", "run_scenario", None),
    ("scenario.build", "repro.sim.scenario", "build_scenario", None),
    ("engine.run", "repro.sim.engine", "SimulationEngine.run", None),
    ("stream.serve", "repro.sim.engine", "EngineStream.serve", None),
    ("wire.decode", "repro.serve.wire", "decode_message", None),
    ("wire.decode", "repro.serve.wire", "decode_events", _count_rows),
    ("wire.encode", "repro.serve.wire", "encode_message", None),
    ("batcher.feed", "repro.serve.batcher", "ServeSession.feed", _count_arg1),
    ("journal.write", "repro.serve.recorder", "StreamRecorder.record_events", _count_arg1),
) + tuple(("kernels", "repro.core.kernels", op, None) for op in KERNEL_OPS)

# span fields, in order: name, wall start, wall end, parent index (-1 for a
# root), thread CPU at entry, thread CPU at exit, amount
NAME, T0, T1, PARENT, C0, C1, AMOUNT = range(7)


class SpanRecorder:
    """In-memory span store; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable, amount: Optional[Callable] = None) -> Callable:
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        cpu = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, clock(), 0.0, stack[-1] if stack else -1, cpu(), 0.0,
                    amount(args, kwargs) if amount is not None else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[C1] = cpu()
                span[T1] = clock()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _rebind(original, replacement) -> None:
    """Point every reference a ``repro`` module holds to ``original`` at
    ``replacement``: module globals and values of module-level dicts."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
            elif type(value) is dict:
                for k, v in value.items():
                    if v is original:
                        value[k] = replacement


def install(recorder: SpanRecorder) -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS`; call it once per
    process (a second call would wrap the wrappers)."""
    import importlib

    # import every module that binds a wrapped name, so _rebind sees them all
    for module in ("repro.cli", "repro.sim.scenario", "repro.serve.server",
                   "repro.serve.recorder", "repro.dynamic.evaluate"):
        importlib.import_module(module)
    for name, module_name, attr, amount in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, recorder.wrap(name, cls.__dict__[method], amount))
        else:
            original = getattr(module, attr)
            _rebind(original, recorder.wrap(name, original, amount))


def load_spans(path) -> List[list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def self_cpu(spans: Sequence[list]) -> List[float]:
    """Per-span CPU seconds minus the CPU seconds of its direct children."""
    own = [s[C1] - s[C0] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[C1] - s[C0]
    return own


class Layers:
    """Self CPU, call counts and amounts per span name over a subset of spans."""

    def __init__(self, spans: Sequence[list], keep: Callable[[list], bool] = lambda s: True):
        own = self_cpu(spans)
        self.cpu: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.amount: Dict[str, int] = {}
        self.root_cpu = 0.0
        for span, self_s in zip(spans, own):
            if not keep(span):
                continue
            name = span[NAME]
            self.cpu[name] = self.cpu.get(name, 0.0) + self_s
            self.calls[name] = self.calls.get(name, 0) + 1
            self.amount[name] = self.amount.get(name, 0) + span[AMOUNT]
            if span[PARENT] < 0:
                self.root_cpu += span[C1] - span[C0]

    def cpu_s(self, *names: str) -> float:
        return sum(self.cpu.get(n, 0.0) for n in names)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def per_call(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.amount.get(name, 0) / calls if calls else 0.0


def layer_metrics(totals: Layers) -> Dict[str, float]:
    """The per-layer metrics every workload reports from its spans."""
    return {
        "placement.solve.cpu_s": totals.cpu_s("placement.solve"),
        "placement.nibble.cpu_s": totals.cpu_s("placement.nibble"),
        "placement.deletion.cpu_s": totals.cpu_s("placement.deletion"),
        "placement.mapping.cpu_s": totals.cpu_s("placement.mapping"),
        "network.steiner.cpu_s": totals.cpu_s("network.steiner"),
        "network.steiner.calls": totals.count("network.steiner"),
        "network.nearest.cpu_s": totals.cpu_s("network.nearest"),
        "network.nearest.calls": totals.count("network.nearest"),
        "network.mutation.cpu_s": totals.cpu_s("network.mutation"),
        "network.mutation.calls": totals.count("network.mutation"),
        "substrate.build.cpu_s": totals.cpu_s("substrate.build"),
        "substrate.repair.cpu_s": totals.cpu_s("substrate.repair"),
        "strategy.apply_mutation.cpu_s": totals.cpu_s("strategy.apply_mutation"),
        "strategy.serve_chunk.cpu_s": totals.cpu_s("strategy.serve_chunk"),
        "strategy.serve_chunk.calls": totals.count("strategy.serve_chunk"),
        "strategy.events_per_chunk": totals.per_call("strategy.serve_chunk"),
        "kernels.cpu_s": totals.cpu_s("kernels"),
        "kernels.calls": totals.count("kernels"),
        "workload.generate.cpu_s": totals.cpu_s("workload.generate"),
        "sequence.materialise.cpu_s": totals.cpu_s("sequence.materialise", "sequence.batch"),
        "sequence.to_pattern.cpu_s": totals.cpu_s("sequence.to_pattern"),
        "sequence.as_arrays.cpu_s": totals.cpu_s("sequence.as_arrays"),
        "sequence.batches": totals.count("sequence.batch"),
        "scenario.run.cpu_s": totals.cpu_s("scenario.run"),
        "scenario.build.cpu_s": totals.cpu_s("scenario.build"),
        "engine.run.cpu_s": totals.cpu_s("engine.run"),
        "stream.serve.cpu_s": totals.cpu_s("stream.serve"),
        "batcher.feed.cpu_s": totals.cpu_s("batcher.feed"),
    }


def format_table(columns: Dict[str, Layers]) -> str:
    """Self CPU seconds and calls per span name, one column pair per window."""
    names = sorted({n for layers in columns.values() for n in layers.cpu})
    header = f"{'layer (self CPU s / calls)':28s}" + "".join(
        f"{title:>22s}" for title in columns
    )
    lines = [header]
    for name in names:
        cells = "".join(
            f"{layers.cpu.get(name, 0.0):13.4f} {layers.calls.get(name, 0):8d}"
            for layers in columns.values()
        )
        lines.append(f"{name:28s}{cells}")
    totals = "".join(
        f"{sum(layers.cpu.values()):13.4f} {sum(layers.calls.values()):8d}"
        for layers in columns.values()
    )
    lines.append(f"{'all spans':28s}{totals}")
    return "\n".join(lines)
