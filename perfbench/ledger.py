"""Spans around calls into each simulator layer, and the ledger built from them.

The traced run wraps public entry points of every layer — plus the private
solver names the flow simulator calls directly — from outside the program:
a wrapper replaces the name where its caller looks it up at call time (a
class attribute, or every ``repro`` module global bound to the function),
and :func:`tracing` puts every original back on exit.  Nothing under
``src/`` knows it is being traced.

A span's self time is its duration minus the time its child spans cover.
Because calls nest, the self times of every span under a root add up to the
root's duration; :func:`ledger` checks that, so a wrapper that escaped its
parent shows up as a residual instead of silently skewing a layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from types import ModuleType
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.controller import OpusController
from repro.core.shim import OpusShim
from repro.simulator.executor import DAGExecutor
from repro.simulator.flow_network import FlowNetworkModel
from repro.simulator.flows import FlowSimulator
from repro.topology.base import Topology

LAYERS = ("build", "expand", "route", "flow", "allocate", "control", "execute")

SizeOf = Optional[Callable[[tuple, object], int]]


def _schedule_transfers(_args: tuple, schedule: object) -> int:
    return sum(len(step.transfers) for step in schedule)


def _first_arg_len(args: tuple, _result: object) -> int:
    return len(args[0])


def _batch_len(args: tuple, _result: object) -> int:
    return len(args[1])  # args[0] is the FlowSimulator


def _switched(_args: tuple, result: object) -> int:
    return 0 if result[1] is None else 1  # (ready_time, record or None)


#: ``(layer, owner, attribute, size_of)``.  A module owner holding a plain
#: function means "every ``repro`` module global bound to that function":
#: callers that imported the name are patched where they look it up.
TARGETS: Tuple[Tuple[str, object, str, SizeOf], ...] = (
    ("build", "repro.experiments.session", "build_iteration_dag",
     lambda _a, dag: dag.num_operations),
    ("build", "repro.experiments.session", "GroupRegistry", None),
    ("build", "repro.experiments.session", "create_network", None),
    ("expand", FlowNetworkModel, "step_items", None),
    ("expand", "repro.collectives.schedule", "expand_cached", None),
    ("expand", "repro.collectives.schedule", "expand", _schedule_transfers),
    ("route", FlowNetworkModel, "path_between", None),
    ("route", FlowNetworkModel, "transfer_path", None),
    ("route", FlowNetworkModel, "_prefetch_routes", None),
    ("route", Topology, "shortest_path", None),
    ("route", Topology, "paths_from", None),
    ("route", Topology, "equal_cost_paths", None),
    ("flow", FlowNetworkModel, "advance", None),
    ("flow", FlowSimulator, "add_flows", _batch_len),
    ("flow", FlowSimulator, "run", None),
    ("allocate", "repro.simulator.flows", "max_min_fair_rates", _first_arg_len),
    ("allocate", "repro.simulator.flows", "_max_min_fair_rates_numpy", _first_arg_len),
    ("allocate", "repro.simulator.flows", "_max_min_fair_rates_python", _first_arg_len),
    ("allocate", "repro.simulator.flows", "_max_min_fair_rates_parallel", _first_arg_len),
    ("control", OpusShim, "request_circuits", None),
    ("control", OpusShim, "notify_transfer", None),
    ("control", OpusController, "ensure", _switched),
    ("control", OpusController, "notify_traffic", None),
    ("execute", DAGExecutor, "run_iteration", None),
)

#: Route spans that run a graph search (a route-table miss).
SEARCHES = frozenset({"shortest_path", "paths_from", "equal_cost_paths"})


class SpanRecorder:
    """Spans of one traced repetition, kept in memory as parallel lists.

    Span ``i`` is ``name[i]`` in ``layer[i]`` from ``start[i]`` to ``end[i]``
    (``perf_counter`` seconds), caused by span ``parent[i]`` (-1 for a
    root); ``size[i]`` is the span's work count where its target defines one.
    """

    def __init__(self, workload: str, repetition: int) -> None:
        self.workload = workload
        self.repetition = repetition
        self.name: List[str] = []
        self.layer: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.size: List[int] = []
        #: The root span covering ``run_to`` + ``result``, once recorded.
        self.run_root = -1
        self._stack: List[int] = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name: str, layer: str) -> int:
        index = len(self.name)
        self.name.append(name)
        self.layer.append(layer)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.size.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[int]:
        index = self.open(name, layer)
        try:
            yield index
        finally:
            self.close(index)

    def wrap(self, name: str, layer: str, fn: Callable, size_of: SizeOf) -> Callable:
        """``fn`` recording one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if size_of is not None:
                self.size[index] = size_of(args, result)
            return result

        traced.perfbench_layer = layer
        return traced


def _bindings(owner: object, attribute: str) -> List[Tuple[object, object]]:
    """``(namespace, original)`` pairs to patch for one target."""
    if not isinstance(owner, str):
        original = owner.__dict__.get(attribute)
        return [] if original is None else [(owner, original)]
    module = importlib.import_module(owner)
    original = getattr(module, attribute, None)
    if original is None:
        return []
    if not inspect.isfunction(original):
        return [(module, original)]  # a class: patch only its caller's binding
    return [
        (other, original)
        for name, other in sorted(sys.modules.items())
        if isinstance(other, ModuleType)
        and (name == "repro" or name.startswith("repro."))
        and other.__dict__.get(attribute) is original
    ]


@contextlib.contextmanager
def tracing(recorder: SpanRecorder) -> Iterator[List[str]]:
    """Wrap every target for the duration of the block; restore on exit.

    Yields the targets that could not be found (empty at this commit), so a
    renamed entry point shows up in the report instead of as a silent gap.
    Run the code once untraced first: a module imported lazily inside the
    block would bind a wrapper that outlives it.
    """
    patched: List[Tuple[object, str, object]] = []
    missing: List[str] = []
    try:
        for layer, owner, attribute, size_of in TARGETS:
            bindings = _bindings(owner, attribute)
            if not bindings:
                label = owner if isinstance(owner, str) else owner.__name__
                missing.append(f"{label}.{attribute}")
            for namespace, original in bindings:
                setattr(
                    namespace,
                    attribute,
                    recorder.wrap(attribute, layer, original, size_of),
                )
                patched.append((namespace, attribute, original))
        yield missing
    finally:
        for namespace, attribute, original in reversed(patched):
            setattr(namespace, attribute, original)


def self_times(recorder: SpanRecorder) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for start, end in zip(recorder.start, recorder.end)]
    for index, parent in enumerate(recorder.parent):
        if parent >= 0:
            own[parent] -= recorder.end[index] - recorder.start[index]
    return own


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def ledger(
    recorder: SpanRecorder, result, session
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of one traced repetition, plus reconciliation figures.

    ``result`` and ``session`` are that repetition's outputs.  Returns
    ``(metrics, checks)`` where ``checks`` holds the self-time residual
    against the run root and the gap between the outermost allocate spans
    and the allocator's own invocation count.
    """
    own = self_times(recorder)
    run_root = recorder.run_root
    names, layers, parents, sizes = (
        recorder.name, recorder.layer, recorder.parent, recorder.size,
    )
    duration = [end - start for start, end in zip(recorder.start, recorder.end)]

    def count(name: str) -> int:
        return names.count(name)

    def total(name: str, values: Sequence[float]) -> float:
        return sum(v for n, v in zip(names, values) if n == name)

    children: Dict[int, List[int]] = {}
    for index, parent in enumerate(parents):
        children.setdefault(parent, []).append(index)

    def under_run(index: int) -> bool:
        while index >= 0:
            if index == run_root:
                return True
            index = parents[index]
        return False

    layer_self = dict.fromkeys(LAYERS, 0.0)
    run_self = 0.0
    for index, value in enumerate(own):
        if under_run(index):
            layer_self[layers[index]] += value
            run_self += value
    run_s = duration[run_root]

    cached_calls = [i for i, n in enumerate(names) if n == "expand_cached"]
    cache_hits = sum(
        1 for i in cached_calls
        if not any(names[c] == "expand" for c in children.get(i, ()))
    )
    pair_calls = [i for i, n in enumerate(names) if n == "path_between"]
    pair_hits = sum(
        1 for i in pair_calls
        if not any(names[c] in SEARCHES for c in children.get(i, ()))
    )
    outer_allocate = [
        i for i, layer in enumerate(layers)
        if layer == "allocate" and (parents[i] < 0 or layers[parents[i]] != "allocate")
    ]
    ensure_calls = count("ensure")
    records = [
        record
        for iteration in session.trace.iterations
        for record in iteration.reconfig_records
    ]
    stats = result.metrics
    invocations = int(stats.get("allocator_invocations", 0))
    metrics = {
        "build.dag_s": total("build_iteration_dag", duration),
        "build.registry_s": total("GroupRegistry", duration),
        "build.network_s": total("create_network", duration),
        "build.operations": total("build_iteration_dag", sizes),
        "expand.calls": count("step_items"),
        "expand.self_s": layer_self["expand"],
        "expand.items": total("expand", sizes),
        "expand.schedules": count("expand"),
        "expand.hit_ratio": _ratio(cache_hits, len(cached_calls)),
        "route.calls": len(pair_calls) + count("transfer_path"),
        "route.self_s": layer_self["route"],
        "route.searches": sum(count(name) for name in sorted(SEARCHES)),
        "route.hit_ratio": _ratio(pair_hits, len(pair_calls)),
        "flow.advance_calls": count("advance"),
        "flow.batches": count("add_flows"),
        "flow.flows": total("add_flows", sizes),
        "flow.self_s": layer_self["flow"],
        "allocate.calls": len(outer_allocate),
        "allocate.self_s": layer_self["allocate"],
        "allocate.invocations": invocations,
        "allocate.rerated_components": int(stats.get("rerated_components", 0)),
        "allocate.rerated_flows": int(stats.get("rerated_flows", 0)),
        "allocate.flows_per_call": _ratio(
            sum(sizes[i] for i in outer_allocate), len(outer_allocate)
        ),
        "control.ensure_calls": ensure_calls,
        "control.ensure_s": total("ensure", duration),
        "control.installed_ratio": _ratio(
            ensure_calls - total("ensure", sizes), ensure_calls
        ),
        "control.reconfigurations": len(records),
        "control.provisioned_ratio": _ratio(
            sum(1 for record in records if record.provisioned), len(records)
        ),
        "control.notify_calls": count("notify_traffic"),
        "control.notify_s": total("notify_traffic", duration),
        "control.self_s": layer_self["control"],
        "control.exposed_reconfig_s": stats["exposed_reconfig_time"],
        "execute.self_s": layer_self["execute"],
        "execute.iterations": count("run_iteration"),
        "execute.operations": sum(
            len(iteration.comm_records) + len(iteration.compute_records)
            for iteration in session.trace.iterations
        ),
    }
    checks = {
        "run_s": run_s,
        "self_time_residual_s": run_s - run_self,
        "allocate_gap": invocations - len(outer_allocate),
        "spans": len(names),
    }
    return metrics, checks


def chrome_trace(recorder: SpanRecorder, metadata: dict) -> dict:
    """Chrome trace-event JSON of one repetition's spans (opens in Perfetto).

    The workload names the process and the repetition names the thread;
    each event carries its span id, parent span id and work count.
    """
    origin = recorder.start[0] if len(recorder) else 0.0
    events = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": recorder.repetition,
         "args": {"name": recorder.workload}},
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": recorder.repetition,
         "args": {"name": f"repetition {recorder.repetition}"}},
    ]
    for index in range(len(recorder)):
        start = recorder.start[index]
        events.append(
            {
                "name": recorder.name[index],
                "cat": recorder.layer[index],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((recorder.end[index] - start) * 1e6, 3),
                "pid": 1,
                "tid": recorder.repetition,
                "args": {
                    "id": index,
                    "parent": recorder.parent[index],
                    "size": recorder.size[index],
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}
