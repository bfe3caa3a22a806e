"""Spans around calls into the program's layers, recorded from outside.

:class:`Tracer` keeps spans in memory -- ``(id, name, start, end,
parent, cell, pid)`` on the ``time.perf_counter`` clock, which is
``CLOCK_MONOTONIC`` and therefore shared by forked executor workers --
and :func:`install` wraps public functions of each layer so every call
becomes a span:

* ``repro.runner.executor.execute_spec`` -> ``runner.execute`` (the
  cell's in-process time; one cell id per cell and round);
* ``WorkloadSpec.build_compiled`` -> ``workloads.build``;
* ``System.__init__`` -> ``sim.system.build``;
* ``repro.runner.executor.run_trace`` -> ``sim.replay``, after which the
  replay route and the kernel, fast-path and route-plan counters are read
  through ``protocol.batched_kernel()``, ``protocol.fastpath()`` and
  ``System.route_plan_stats()``;
* ``Multicaster.send_payload`` -> ``network.multicast``, aggregated per
  enclosing span (a count and a total) because a replay makes thousands.

A forked worker starts with a copy of the parent's tracer; it drops the
inherited spans, records its cell, and writes its spans and counters to
one file in ``child_dir`` when the cell ends.  The parent merges those
files after the sweep.  Nothing here is active unless :func:`install`
ran, and :func:`uninstall` restores every wrapped attribute.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import repro.runner.executor as executor_module
from repro.network.multicast import Multicaster
from repro.runner import WorkloadSpec
from repro.sim.system import System

#: ``sim.route.<protocol>`` values.
ROUTE_CODES = {"columns": 0, "table": 1, "kernel": 2}


class Tracer:
    def __init__(self, child_dir: Path | None = None) -> None:
        self.owner = os.getpid()
        self.child_dir = child_dir
        self.spans: list[tuple] = []
        #: ``(parent id, name) -> [count, total seconds]``.
        self.aggregates: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        #: ``protocol -> route name`` of the last replay seen.
        self.routes: dict[str, str] = {}
        #: Tag added to cell ids (the round number).
        self.tag = ""
        self._local = threading.local()
        self._ids = itertools.count()

    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> str:
        return f"{os.getpid()}-{next(self._ids)}"

    def current(self) -> tuple[str | None, str | None]:
        """``(span id, cell id)`` of the innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    @contextmanager
    def span(self, name: str, cell: str | None = None, parent=None):
        """Time the enclosed block as a span.

        The parent is the innermost open span of this thread, or
        ``parent`` when a thread starts under a span of another one.
        """
        current, parent_cell = self.current()
        parent = current if current is not None else parent
        cell = cell if cell is not None else parent_cell
        span_id = self._new_id()
        stack = self._stack()
        stack.append((span_id, cell))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, cell, os.getpid())
            )

    def add_span(self, name, start, end, parent, cell) -> str:
        """Record a span measured elsewhere (e.g. from a ``TaskResult``)."""
        span_id = self._new_id()
        self.spans.append((span_id, name, start, end, parent, cell, os.getpid()))
        return span_id

    def aggregate(self, name: str, seconds: float) -> None:
        parent, _cell = self.current()
        entry = self.aggregates[(parent, name)]
        entry[0] += 1
        entry[1] += seconds

    # ------------------------------------------------------------------
    # Forked workers

    def _clear(self) -> None:
        self.spans = []
        self.aggregates = defaultdict(lambda: [0, 0.0])
        self.counters = defaultdict(float)
        self.routes = {}

    def enter_child(self) -> None:
        """Drop what a forked worker inherited from the parent."""
        if os.getpid() != self.owner:
            self._clear()

    def flush_child(self) -> None:
        """Write a forked worker's spans to ``child_dir``."""
        if os.getpid() == self.owner or self.child_dir is None:
            return
        path = self.child_dir / f"{os.getpid()}-{next(self._ids)}.json"
        path.write_text(json.dumps(self._payload()))
        self._clear()

    def _payload(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [
                [parent, name, count, total]
                for (parent, name), (count, total) in self.aggregates.items()
            ],
            "counters": dict(self.counters),
            "routes": self.routes,
        }

    def merge_children(self) -> None:
        if self.child_dir is None:
            return
        for path in sorted(self.child_dir.glob("*.json")):
            payload = json.loads(path.read_text())
            path.unlink()
            self.spans.extend(tuple(span) for span in payload["spans"])
            for parent, name, count, total in payload["aggregates"]:
                entry = self.aggregates[(parent, name)]
                entry[0] += count
                entry[1] += total
            for name, value in payload["counters"].items():
                self.counters[name] += value
            self.routes.update(payload["routes"])

    # ------------------------------------------------------------------
    # Analysis

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name.

        A span's self time is its duration minus the part of it that its
        child spans (and aggregated calls) cover.
        """
        children: dict[str, list[tuple[float, float]]] = defaultdict(list)
        for span_id, _name, start, end, parent, _cell, _pid in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        aggregated: dict[str, float] = defaultdict(float)
        result: dict[str, float] = defaultdict(float)
        for (parent, name), (_count, total) in self.aggregates.items():
            aggregated[parent] += total
            result[name] += total
        for span_id, name, start, end, _parent, _cell, _pid in self.spans:
            covered = _union(
                [
                    (max(s, start), min(e, end))
                    for s, e in children.get(span_id, ())
                    if min(e, end) > max(s, start)
                ]
            )
            result[name] += max(
                0.0, (end - start) - covered - aggregated.get(span_id, 0.0)
            )
        return dict(result)

    def total(self, name: str) -> tuple[int, float]:
        """``(count, seconds)`` over spans and aggregates named ``name``."""
        count, seconds = 0, 0.0
        for _id, span_name, start, end, *_rest in self.spans:
            if span_name == name:
                count += 1
                seconds += end - start
        for (_parent, agg_name), (agg_count, total) in self.aggregates.items():
            if agg_name == name:
                count += agg_count
                seconds += total
        return count, seconds

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = self._payload()
        payload["fields"] = ["id", "name", "start", "end", "parent", "cell", "pid"]
        path.write_text(json.dumps(payload))


def _union(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


# ---------------------------------------------------------------------------
# Wrapping the layers
# ---------------------------------------------------------------------------


def _replay_counters(tracer: Tracer, protocol_name: str, protocol) -> None:
    """Route and useful-work counters, read after a replay."""
    counters = tracer.counters
    kernel = protocol.batched_kernel()
    table = protocol.fastpath()
    route = "columns"
    if kernel is not None and kernel.batched_refs + kernel.fallback_refs:
        route = "kernel"
        counters["kernel.batched"] += kernel.batched_refs
        counters["kernel.fallback"] += kernel.fallback_refs
    elif table is not None and table.hits + table.misses:
        route = "table"
    if table is not None:
        counters["fastpath.hits"] += table.hits
        counters["fastpath.misses"] += table.misses
    tracer.routes[protocol_name] = route
    stats = protocol.system.route_plan_stats()
    if stats is not None:
        counters["routeplan.hits"] += stats["hits"]
        counters["routeplan.misses"] += stats["misses"]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the traced layer functions; returns what :func:`uninstall` needs."""
    execute_spec = executor_module.execute_spec
    run_trace = executor_module.run_trace
    build_compiled = WorkloadSpec.build_compiled
    system_init = System.__init__
    send_payload = Multicaster.send_payload
    saved = [
        (executor_module, "execute_spec", execute_spec),
        (executor_module, "run_trace", run_trace),
        (WorkloadSpec, "build_compiled", build_compiled),
        (System, "__init__", system_init),
        (Multicaster, "send_payload", send_payload),
    ]
    #: The protocol name of the cell being executed (``run_trace`` only
    #: sees the protocol object, whose ``name`` differs from the spec's).
    current_protocol = {}

    def traced_execute_spec(spec):
        tracer.enter_child()
        current_protocol["name"] = spec.protocol
        cell = f"{spec.spec_hash[:12]}{tracer.tag}"
        try:
            with tracer.span("runner.execute", cell=cell):
                return execute_spec(spec)
        finally:
            tracer.flush_child()

    def traced_run_trace(protocol, trace, **kwargs):
        name = current_protocol.get("name", protocol.name)
        with tracer.span(f"sim.replay.{name}"):
            report = run_trace(protocol, trace, **kwargs)
        _replay_counters(tracer, name, protocol)
        return report

    def traced_build_compiled(self):
        with tracer.span("workloads.build"):
            return build_compiled(self)

    def traced_system_init(self, *args, **kwargs):
        with tracer.span("sim.system.build"):
            system_init(self, *args, **kwargs)

    def traced_send_payload(self, source, payload_bits, dests):
        start = time.perf_counter()
        result = send_payload(self, source, payload_bits, dests)
        tracer.aggregate("network.multicast", time.perf_counter() - start)
        return result

    executor_module.execute_spec = traced_execute_spec
    executor_module.run_trace = traced_run_trace
    WorkloadSpec.build_compiled = traced_build_compiled
    System.__init__ = traced_system_init
    Multicaster.send_payload = traced_send_payload
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attribute, original in saved:
        setattr(owner, attribute, original)
