"""The three benchmark workloads, untraced and traced.

Each ``run_<workload>(seed, seconds, trace, work_dir)`` returns an
:class:`Outcome`.  Untraced runs measure the end-to-end metrics; traced
runs first time one untraced pass over the same content, then the same
pass with :mod:`perfbench.tracer` installed, and report the per-layer
metrics and the tracing overhead (traced minus untraced wall time).
See ``perfbench/README.md`` for what each workload is for.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import cells as cellmod
from perfbench import tracer as tracemod
from perfbench.gate import Gate, canonical, pin_key
from perfbench.hostspeed import HostSpeed
from repro.runner import Executor, TieredResultCache
from repro.serve.client import ServeClient
from repro.serve.protocol import encode_frame
from repro.serve.router import RouterConfig, RouterThread
from repro.sim.engine import SimulationReport

ROOT = Path(__file__).resolve().parent.parent

#: Workers, shards and clients: the host's cores, at most four.
NPROC = max(1, min(4, len(os.sched_getaffinity(0))))

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: ``serve_mixed`` runs its request lists in this many chunks, with a
#: host calibration between chunks.
SERVE_CHUNKS = 10

#: Hot-tier entries per shard: below each shard's share of the
#: catalogue, so the Zipf tail is answered from disk.
SERVE_HOT_CAPACITY = 24

LAYERS = (
    "bench",
    "runner.sweep",
    "runner.launch",
    "runner.execute",
    "workloads.build",
    "sim.system.build",
    "sim.replay",
    "network.multicast",
    "report.encode",
    "serve.client",
    "serve.request",
    "runner.cache",
)


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Calibration of an untraced run; its timings get scaled by it.
    host: HostSpeed | None = None
    #: Metrics timed in a phase with its own calibration, already scaled.
    calibrated: set[str] = field(default_factory=set)

    def normalise(self) -> None:
        """Scale every timing to the reference host speed."""
        if self.host is None:
            return
        self.notes.append(
            f"host speed {self.host.speed:.4f} (mean of "
            f"{len(self.host.samples)} calibrations); raw timings:"
        )
        for name, (value, unit) in sorted(self.metrics.items()):
            if name in self.calibrated:
                continue
            scaled = self.host.scale(value, unit)
            if scaled != value:
                self.notes.append(f"  {name:<34} {value:14.4f} {unit}")
            self.metrics[name] = (scaled, unit)


# ---------------------------------------------------------------------------
# Shared measurements
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile by linear interpolation (inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


_SETUP_SNIPPET = (
    "import sys\n"
    "from perfbench import cells\n"
    "specs = getattr(cells, sys.argv[1])(int(sys.argv[2]))\n"
    "[spec.spec_hash for spec in specs]\n"
)


def sim_setup_seconds(builder: str, seed: int, host: HostSpeed) -> float:
    """Median time for a fresh interpreter to import and build the cells.

    This is the start-up a ``repro sweep`` user pays before the first
    cell: interpreter start, package import, spec construction and
    hashing.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    times = []
    for _ in range(SETUP_REPEATS):
        host.sample()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET, builder, str(seed)],
            check=True,
            env=env,
            cwd=ROOT,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _layer_defaults() -> dict[str, tuple[float, str]]:
    """Every per-layer metric at 0: what a workload does not exercise."""
    metrics: dict[str, tuple[float, str]] = {
        "workloads.build_ms": (0.0, "ms"),
        "sim.system.build_ms": (0.0, "ms"),
        "sim.kernel.batched_frac": (0.0, "frac"),
        "protocol.fastpath.hit_frac": (0.0, "frac"),
        "network.routeplan.hit_rate": (0.0, "frac"),
        "network.routeplan.misses": (0.0, "count"),
        "network.multicast_ms": (0.0, "ms"),
        "network.multicast_calls": (0.0, "count"),
        "report.encode_ms": (0.0, "ms"),
        "runner.launch_ms": (0.0, "ms"),
        "runner.cache.get_ms": (0.0, "ms"),
        "runner.cache.put_ms": (0.0, "ms"),
        "runner.cache.hot_hits": (0.0, "count"),
        "runner.cache.disk_hits": (0.0, "count"),
        "runner.cache.misses": (0.0, "count"),
        "serve.req_ms.hot": (0.0, "ms"),
        "serve.req_ms.disk": (0.0, "ms"),
        "serve.req_ms.cold": (0.0, "ms"),
        "serve.daemon.admit_ms": (0.0, "ms"),
        "serve.daemon.queue_ms": (0.0, "ms"),
        "serve.daemon.exec_ms": (0.0, "ms"),
        "serve.router_ms": (0.0, "ms"),
        "serve.repeat_frame_frac": (0.0, "frac"),
    }
    for protocol in cellmod.PROTOCOLS:
        metrics[f"sim.replay_ms.{protocol}"] = (0.0, "ms")
        metrics[f"sim.route.{protocol}"] = (0.0, "code")
    for tier in ("cold", "disk", "hot"):
        metrics[f"serve.requests.{tier}"] = (0.0, "count")
    for layer in LAYERS:
        metrics[f"self_ms.{layer}"] = (0.0, "ms")
    return metrics


def _self_metrics(tracer: tracemod.Tracer, wall: float) -> tuple[dict, list]:
    """``self_ms.<layer>`` per layer, plus a printable breakdown."""
    by_layer: dict[str, float] = {}
    for name, seconds in tracer.self_times().items():
        layer = name
        if name.startswith("bench."):
            layer = "bench"
        elif name.startswith("sim.replay."):
            layer = "sim.replay"
        elif name.startswith("runner.cache."):
            layer = "runner.cache"
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    total = sum(by_layer.values())
    notes = [
        f"self time by layer (sum {total * 1e3:.1f} ms over a "
        f"{wall * 1e3:.1f} ms traced phase):"
    ]
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        notes.append(
            f"  {layer:<20} {seconds * 1e3:10.1f} ms "
            f"{seconds / total if total else 0.0:6.1%}"
        )
    metrics = {
        f"self_ms.{layer}": (seconds * 1e3, "ms")
        for layer, seconds in by_layer.items()
    }
    metrics["trace.self_sum_ms"] = (total * 1e3, "ms")
    return metrics, notes


# ---------------------------------------------------------------------------
# fig8_sweep and scale_churn
# ---------------------------------------------------------------------------


def _sim_end_to_end(rounds, walls: list[float]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of timed rounds; ``walls`` are their wall times.

    A request is one round: the whole sweep a ``repro sweep`` user (or a
    client of the daemon) waits for.
    """
    results = [result for round_ in rounds for result in round_]
    ok = [result for result in results if not result.failed]
    refs = sum(result.report.n_references for result in ok)
    wall = sum(walls)
    metrics = {"refs_per_s": (refs / wall, "1/s")}
    metrics.update(_protocol_rates(ok))
    latencies = [seconds * 1e3 for seconds in walls]
    metrics["req_per_s"] = (len(walls) / wall, "1/s")
    metrics["req_p50_ms"] = (statistics.median(latencies), "ms")
    metrics["req_p99_ms"] = (percentile(latencies, 99), "ms")
    return metrics


def _protocol_rates(results) -> dict[str, tuple[float, str]]:
    """``refs_per_s.<protocol>``: references over summed ``wall_time``."""
    metrics = {}
    for protocol in cellmod.PROTOCOLS:
        mine = [result for result in results if result.spec.protocol == protocol]
        busy = sum(result.wall_time for result in mine)
        metrics[f"refs_per_s.{protocol}"] = (
            _ratio(sum(result.report.n_references for result in mine), busy),
            "1/s",
        )
    return metrics


def _gate_rounds(gate: Gate, rounds, label: str) -> int:
    failed = 0
    for index, round_ in enumerate(rounds):
        for result in round_:
            if result.failed:
                failed += 1
                gate.fail(
                    f"cell {result.spec.spec_hash[:12]} failed: "
                    f"{result.error_class}"
                )
                continue
            gate.record(
                result.spec.spec_hash,
                result.report.to_dict(),
                f"{label} round {index}",
            )
    return failed


def _round(executor: Executor, specs, tracer=None) -> list:
    """One pass over ``specs``.

    A parallel executor gets the whole sweep, as ``repro sweep`` does.
    The in-process executor gets one cell per ``run`` call, as the serve
    daemon does, with a full garbage collection before each cell: a cell
    leaves cyclic garbage (a whole ``System``) and otherwise pays for
    collecting its predecessors' at a point that varies with the seed.
    The collections stay inside the round's wall time.
    """
    if executor.workers:
        gc.collect()
        return executor.run(specs)
    results = []
    for spec in specs:
        if tracer is None:
            gc.collect()
        else:
            with tracer.span("bench.gc"):
                gc.collect()
        results += executor.run([spec])
    return results


def _run_sim(
    workload: str,
    builder: str,
    workers: int,
    seed: int,
    seconds: int,
    trace: bool,
    work_dir: Path,
) -> Outcome:
    specs = getattr(cellmod, builder)(seed)
    gate = Gate()
    gate.check_canary()
    cross_check = (
        gate.check_in_process
        if workers
        else (lambda specs: gate.check_parallel(specs, NPROC))
    )
    executor = Executor(workers=workers, retries=0, on_error="collect")
    if trace:
        outcome = _trace_sim(workload, specs, executor, gate, work_dir)
    else:
        host = HostSpeed()
        setup = sim_setup_seconds(builder, seed, host)
        rounds = []
        walls: list[float] = []
        while sum(walls) < seconds:
            host.sample()
            start = time.perf_counter()
            rounds.append(_round(executor, specs))
            walls.append(time.perf_counter() - start)
        wall = sum(walls)
        failed = _gate_rounds(gate, rounds, "timed")
        metrics = _sim_end_to_end(rounds, walls)
        metrics["setup_s"] = (setup, "s")
        outcome = Outcome(
            metrics=metrics,
            attempted=len(specs) * len(rounds),
            failed=failed,
            notes=[
                f"{len(rounds)} rounds x {len(specs)} cells in {wall:.2f} s "
                f"(workers={workers}); req_p50_ms and req_p99_ms over "
                f"{len(rounds)} round latencies"
            ],
            host=host,
        )
    cross_check(specs)
    gate.check_pinned_totals(
        workload,
        pin_key(workload, seed, seconds, NPROC),
        [(spec, gate.reports[spec.spec_hash]) for spec in specs],
    )
    gate.check_store(work_dir / "state", workload, seed)
    outcome.failures = gate.failures
    outcome.failed += len(gate.failures)
    if not trace:
        outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    outcome.normalise()
    return outcome


def _trace_sim(workload, specs, executor, gate, work_dir) -> Outcome:
    start = time.perf_counter()
    untraced = _round(executor, specs)
    untraced_wall = time.perf_counter() - start
    child_dir = work_dir / f"children-{os.getpid()}"
    child_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracemod.Tracer(child_dir=child_dir)
    tracer.tag = "#traced"
    saved = tracemod.install(tracer)
    try:
        with tracer.span("bench.phase"):
            start = time.perf_counter()
            with tracer.span("runner.sweep") as sweep_id:
                traced = _round(executor, specs, tracer)
            traced_wall = time.perf_counter() - start
    finally:
        tracemod.uninstall(saved)
    tracer.merge_children()
    shutil.rmtree(child_dir, ignore_errors=True)
    launch = _add_launch_spans(tracer, traced, sweep_id)
    failed = _gate_rounds(gate, [untraced], "untraced")
    with tracer.span("bench.gate"):
        for result in traced:
            if result.failed:
                failed += 1
                continue
            with tracer.span("report.encode", cell=result.spec.spec_hash[:12]):
                gate.record(
                    result.spec.spec_hash, result.report.to_dict(), "traced"
                )
    tracer.write(work_dir / "traces" / f"{workload}-{os.getpid()}.json")

    metrics = _layer_defaults()
    metrics.update(_sim_layer_metrics(tracer, launch))
    self_metrics, notes = _self_metrics(tracer, traced_wall)
    metrics.update(self_metrics)
    metrics.update(_overhead_metrics(tracer, traced_wall, untraced_wall))
    return Outcome(
        metrics=metrics,
        attempted=2 * len(specs),
        failed=failed,
        notes=notes,
    )


def _add_launch_spans(tracer, results, sweep_id) -> float:
    """``runner.launch`` spans: ``TaskResult.wall_time`` around each cell.

    The executor times a cell from launch to result; the worker's
    ``runner.execute`` span is the in-process part.  The difference is
    the launch cost (fork, pipe, result decode), recorded as a parent
    span of the execute span that starts ``launch`` seconds earlier.
    """
    executes = {
        span[5]: span for span in tracer.spans if span[1] == "runner.execute"
    }
    reparent = {}
    launch_total = 0.0
    for result in results:
        span = executes.get(f"{result.spec.spec_hash[:12]}{tracer.tag}")
        if span is None or result.failed:
            continue
        span_id, _name, start, end, _parent, cell, _pid = span
        launch = max(0.0, result.wall_time - (end - start))
        launch_total += launch
        reparent[span_id] = tracer.add_span(
            "runner.launch", start - launch, end, sweep_id, cell
        )
    tracer.spans = [
        span[:4] + (reparent.get(span[0], span[4]),) + span[5:]
        for span in tracer.spans
    ]
    return launch_total


def _sim_layer_metrics(tracer, launch: float) -> dict:
    counters = tracer.counters
    metrics = {
        "workloads.build_ms": (tracer.total("workloads.build")[1] * 1e3, "ms"),
        "sim.system.build_ms": (
            tracer.total("sim.system.build")[1] * 1e3,
            "ms",
        ),
        "report.encode_ms": (tracer.total("report.encode")[1] * 1e3, "ms"),
        "runner.launch_ms": (launch * 1e3, "ms"),
    }
    for protocol in cellmod.PROTOCOLS:
        metrics[f"sim.replay_ms.{protocol}"] = (
            tracer.total(f"sim.replay.{protocol}")[1] * 1e3,
            "ms",
        )
        route = tracer.routes.get(protocol, "columns")
        metrics[f"sim.route.{protocol}"] = (
            float(tracemod.ROUTE_CODES[route]),
            "code",
        )
    batched = counters.get("kernel.batched", 0.0)
    fallback = counters.get("kernel.fallback", 0.0)
    hits = counters.get("fastpath.hits", 0.0)
    misses = counters.get("fastpath.misses", 0.0)
    plan_hits = counters.get("routeplan.hits", 0.0)
    plan_misses = counters.get("routeplan.misses", 0.0)
    calls, seconds = tracer.total("network.multicast")
    metrics.update(
        {
            "sim.kernel.batched_frac": (_ratio(batched, batched + fallback), "frac"),
            "protocol.fastpath.hit_frac": (_ratio(hits, hits + misses), "frac"),
            "network.routeplan.hit_rate": (
                _ratio(plan_hits, plan_hits + plan_misses),
                "frac",
            ),
            "network.routeplan.misses": (plan_misses, "count"),
            "network.multicast_ms": (seconds * 1e3, "ms"),
            "network.multicast_calls": (float(calls), "count"),
        }
    )
    return metrics


def _overhead_metrics(tracer, traced_wall, untraced_wall) -> dict:
    return {
        "trace.wall_ms": (traced_wall * 1e3, "ms"),
        "trace.untraced_wall_ms": (untraced_wall * 1e3, "ms"),
        "trace.overhead_ms": ((traced_wall - untraced_wall) * 1e3, "ms"),
        "trace.overhead_frac": (
            (traced_wall - untraced_wall) / untraced_wall,
            "frac",
        ),
        "trace.spans": (float(len(tracer.spans)), "count"),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_fig8_sweep(seed, seconds, trace, work_dir) -> Outcome:
    return _run_sim(
        "fig8_sweep", "fig8_cells", NPROC, seed, seconds, trace, work_dir
    )


def run_scale_churn(seed, seconds, trace, work_dir) -> Outcome:
    return _run_sim(
        "scale_churn", "scale_cells", 0, seed, seconds, trace, work_dir
    )


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


@dataclass
class _Reply:
    spec: object
    start: float
    end: float
    tier: str | None
    report: dict | None
    error: str | None = None


class _Fleet:
    """A router over ``NPROC`` shard daemons with a fresh disk cache."""

    def __init__(self, base: Path) -> None:
        self.socket = str(base / "router.sock")
        config = RouterConfig(
            socket_path=self.socket,
            shards=NPROC,
            hot_capacity=SERVE_HOT_CAPACITY,
            cache_dir=str(base / "cache"),
            max_queue=64,
        )
        start = time.perf_counter()
        self.thread = RouterThread(config).start()
        try:
            with ServeClient(self.socket) as client:
                client.ping()
        except BaseException:
            self.thread.stop()
            raise
        self.setup = time.perf_counter() - start

    def stop(self) -> None:
        self.thread.stop()


def _serve_clients(socket: str, plan, host=None, tracer=None):
    """Run every client's request list; returns ``(replies, wall)``.

    The lists run in ``SERVE_CHUNKS`` chunks.  Clients wait for each
    other at a chunk boundary, where ``host`` (if given) takes a
    calibration sample; ``wall`` sums the chunks' wall times.
    """
    replies: list[list[_Reply]] = [[] for _ in plan.requests]
    clients = [ServeClient(socket, timeout=120.0) for _ in plan.requests]
    root = tracer.current()[0] if tracer is not None else None

    def run_requests(index: int, requests, offset: int) -> None:
        out = replies[index]
        client = clients[index]
        for number, spec in enumerate(requests, offset):
            span = (
                tracer.span("serve.request", cell=f"c{index}-{number}")
                if tracer is not None
                else contextlib.nullcontext()
            )
            with span:
                start = time.perf_counter()
                try:
                    outcome = client.submit(
                        [spec], name="serve_mixed", stream=True
                    )
                except Exception as exc:  # counted as a failed request
                    out.append(
                        _Reply(spec, start, time.perf_counter(), None, None,
                               repr(exc))
                    )
                    continue
                end = time.perf_counter()
            if outcome.errors or not outcome.results:
                out.append(
                    _Reply(spec, start, end, None, None, repr(outcome.errors))
                )
                continue
            frame = outcome.results[0]
            out.append(
                _Reply(spec, start, end, frame["source"], frame["report"])
            )

    def client_main(index: int, requests, offset: int) -> None:
        if tracer is None:
            run_requests(index, requests, offset)
            return
        with tracer.span("serve.client", cell=f"c{index}", parent=root):
            run_requests(index, requests, offset)

    wall = 0.0
    with contextlib.ExitStack() as stack:
        for client in clients:
            stack.enter_context(client)
        for chunk in range(SERVE_CHUNKS):
            if host is not None:
                host.sample()
            threads = []
            for index, requests in enumerate(plan.requests):
                low = len(requests) * chunk // SERVE_CHUNKS
                high = len(requests) * (chunk + 1) // SERVE_CHUNKS
                threads.append(
                    threading.Thread(
                        target=client_main,
                        args=(index, requests[low:high], low),
                    )
                )
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall += time.perf_counter() - start
    return [reply for client in replies for reply in client], wall


TIERS = {"queued": "cold", "hot": "hot", "disk": "disk"}


def _serve_gate(gate: Gate, replies, status) -> dict[str, int]:
    """Digests per reply, plus exact tier bookkeeping."""
    counts = {"cold": 0, "disk": 0, "hot": 0}
    seen = set()
    for reply in replies:
        if reply.report is None:
            gate.fail(f"request for {reply.spec.spec_hash[:12]}: {reply.error}")
            continue
        tier = TIERS.get(reply.tier, reply.tier)
        counts[tier] = counts.get(tier, 0) + 1
        first = reply.spec.spec_hash not in seen
        seen.add(reply.spec.spec_hash)
        if first != (tier == "cold"):
            gate.fail(
                f"cell {reply.spec.spec_hash[:12]}: tier {tier} on "
                f"{'first' if first else 'repeat'} request"
            )
        gate.record(reply.spec.spec_hash, reply.report, f"served {tier}")
    cache = status.get("cache", {})
    if cache.get("disk_hits") != counts["disk"] or cache.get(
        "hot_hits"
    ) != counts["hot"] or cache.get("disk_misses") != counts["cold"]:
        gate.fail(f"router cache counters {cache} disagree with replies {counts}")
    return counts


def _serve_end_to_end(replies, wall) -> dict[str, tuple[float, str]]:
    ok = [reply for reply in replies if reply.report is not None]
    latencies = [(reply.end - reply.start) * 1e3 for reply in ok]
    latencies += [float("inf")] * (len(replies) - len(ok))
    cold = [reply for reply in ok if reply.tier == "queued"]
    metrics = {
        "req_per_s": (len(ok) / wall, "1/s"),
        "req_p50_ms": (statistics.median(latencies), "ms"),
        "req_p99_ms": (percentile(latencies, 99), "ms"),
        "refs_per_s": (
            sum(reply.report["n_references"] for reply in cold) / wall,
            "1/s",
        ),
    }
    return metrics


def run_serve_mixed(seed, seconds, trace, work_dir) -> Outcome:
    plan = cellmod.serve_plan(seed, seconds, NPROC)
    gate = Gate()
    gate.check_canary()
    base = work_dir / f"serve-{os.getpid()}"
    try:
        if trace:
            outcome = _trace_serve(plan, gate, base)
        else:
            outcome = _timed_serve(plan, gate, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    requested = list({spec.spec_hash: spec for client in plan.requests
                      for spec in client}.values())
    if trace:
        gate.check_in_process(requested)
    else:
        outcome.metrics.update(_replay_rates(gate, requested))
        outcome.calibrated.update(
            f"refs_per_s.{protocol}" for protocol in cellmod.PROTOCOLS
        )
    gate.check_pinned_totals(
        "serve_mixed",
        pin_key("serve_mixed", seed, seconds, NPROC),
        [(spec, gate.reports[spec.spec_hash]) for spec in requested],
    )
    gate.check_store(work_dir / "state", "serve_mixed", seed)
    outcome.failures = gate.failures
    outcome.failed += len(gate.failures)
    if not trace:
        outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    outcome.normalise()
    return outcome


#: Chunks of the in-process replay, with a calibration between chunks.
REPLAY_CHUNKS = 8


def _replay_rates(gate: Gate, specs) -> dict[str, tuple[float, str]]:
    """``refs_per_s.<protocol>`` from the gate's in-process replay.

    Inside the shards, the executor's wall time for these small cells is
    mostly scheduling noise, so the cells the run requested are timed
    again, in-process, after the fleet stops.  The replay carries its own
    calibration, because it can fall in another phase of the host than
    the timed requests did.  Like ``scale_churn``, it collects garbage
    before each cell, so no cell pays for its predecessors'.
    """
    host = HostSpeed()
    executor = Executor(workers=0)
    results = []
    for chunk in range(REPLAY_CHUNKS):
        host.sample()
        low = len(specs) * chunk // REPLAY_CHUNKS
        high = len(specs) * (chunk + 1) // REPLAY_CHUNKS
        results += _round(executor, specs[low:high])
    host.sample()
    for result in results:
        gate.record(
            result.spec.spec_hash, result.report.to_dict(), "in-process"
        )
    return {
        name: (host.scale(value, unit), unit)
        for name, (value, unit) in _protocol_rates(results).items()
    }


def _timed_serve(plan, gate, base) -> Outcome:
    host = HostSpeed()
    setups = []
    fleet = None
    for index in range(SETUP_REPEATS):
        if fleet is not None:
            fleet.stop()
        host.sample()
        fleet = _Fleet(base / f"fleet-{index}")
        setups.append(fleet.setup)
    try:
        replies, wall = _serve_clients(fleet.socket, plan, host)
        with ServeClient(fleet.socket) as client:
            status = client.status()
    finally:
        fleet.stop()
    counts = _serve_gate(gate, replies, status)
    metrics = _serve_end_to_end(replies, wall)
    metrics["setup_s"] = (statistics.median(setups), "s")
    failed = sum(1 for reply in replies if reply.report is None)
    return Outcome(
        metrics=metrics,
        attempted=len(replies),
        failed=failed,
        notes=[
            f"{len(replies)} requests ({counts['cold']} cold, "
            f"{counts['disk']} disk, {counts['hot']} hot) from {NPROC} "
            f"closed-loop clients in {wall:.2f} s; req_p99_ms over "
            f"{len(replies)} samples"
        ],
        host=host,
    )


def _trace_serve(plan, gate, base) -> Outcome:
    fleet = _Fleet(base / "untraced")
    try:
        untraced, untraced_wall = _serve_clients(fleet.socket, plan)
    finally:
        fleet.stop()
    tracer = tracemod.Tracer()
    fleet = _Fleet(base / "traced")
    try:
        with tracer.span("bench.phase"):
            replies, traced_wall = _serve_clients(
                fleet.socket, plan, tracer=tracer
            )
        with ServeClient(fleet.socket) as client:
            status = client.status()
            registry = client.metrics()["metrics"]
    finally:
        fleet.stop()
    for reply in untraced:
        if reply.report is not None:
            gate.record(reply.spec.spec_hash, reply.report, "served untraced")
    with tracer.span("bench.gate"):
        counts = _serve_gate(gate, replies, status)
        encode_ms = _encode_distinct(tracer, replies)
    cache_ms = _replay_cache(tracer, plan, replies, base / "replay-cache")
    tracer.write(base.parent / "traces" / f"serve_mixed-{os.getpid()}.json")

    metrics = _layer_defaults()
    metrics.update(_serve_layer_metrics(replies, status, registry, plan))
    metrics["report.encode_ms"] = (encode_ms, "ms")
    metrics.update(cache_ms)
    for tier, count in counts.items():
        metrics[f"serve.requests.{tier}"] = (float(count), "count")
    self_metrics, notes = _self_metrics(tracer, traced_wall)
    metrics.update(self_metrics)
    metrics.update(_overhead_metrics(tracer, traced_wall, untraced_wall))
    failed = sum(1 for reply in replies + untraced if reply.report is None)
    return Outcome(
        metrics=metrics,
        attempted=len(replies) + len(untraced),
        failed=failed,
        notes=notes,
    )


def _encode_distinct(tracer, replies) -> float:
    """``SimulationReport.to_dict`` + canonical JSON, once per cell."""
    total = 0.0
    done = set()
    for reply in replies:
        spec_hash = reply.spec.spec_hash
        if reply.report is None or spec_hash in done:
            continue
        done.add(spec_hash)
        report = SimulationReport.from_dict(reply.report)
        with tracer.span("report.encode", cell=spec_hash[:12]):
            start = time.perf_counter()
            canonical(report.to_dict())
            total += time.perf_counter() - start
    return total * 1e3


def _replay_cache(tracer, plan, replies, root: Path) -> dict:
    """Time ``TieredResultCache`` get/put on each shard's request order.

    The shard caches live in other processes, so the benchmark replays
    the same per-shard sequence against a local cache of the same shape:
    a ``get`` per request and a ``put`` per miss, as the daemon does.
    """
    reports = {
        reply.spec.spec_hash: SimulationReport.from_dict(reply.report)
        for reply in replies
        if reply.report is not None
    }
    get_s = put_s = 0.0
    with tracer.span("bench.cache_replay"):
        for index, requests in enumerate(plan.requests):
            cache = TieredResultCache(
                root / f"shard-{index}", capacity=SERVE_HOT_CAPACITY
            )
            for spec in requests:
                start = time.perf_counter()
                with tracer.span("runner.cache.get"):
                    found = cache.get(spec)
                get_s += time.perf_counter() - start
                if found is None and spec.spec_hash in reports:
                    start = time.perf_counter()
                    with tracer.span("runner.cache.put"):
                        cache.put(spec, reports[spec.spec_hash])
                    put_s += time.perf_counter() - start
    shutil.rmtree(root, ignore_errors=True)
    return {
        "runner.cache.get_ms": (get_s * 1e3, "ms"),
        "runner.cache.put_ms": (put_s * 1e3, "ms"),
    }


def _histogram_mean(registry: dict, name: str) -> float:
    hist = registry.get("histograms", {}).get(name)
    if not hist or not hist["total"]:
        return 0.0
    return hist["sum"] / hist["total"]


def _serve_layer_metrics(replies, status, registry, plan) -> dict:
    by_tier: dict[str, list[float]] = {"hot": [], "disk": [], "cold": []}
    for reply in replies:
        if reply.report is not None:
            by_tier[TIERS[reply.tier]].append((reply.end - reply.start) * 1e3)
    admit = _histogram_mean(registry, "latency.submit_to_admit_ms")
    hot_ms = statistics.fmean(by_tier["hot"]) if by_tier["hot"] else 0.0
    frames = set()
    repeats = 0
    for client in plan.requests:
        for spec in client:
            raw = encode_frame(
                {
                    "op": "submit",
                    "name": "serve_mixed",
                    "stream": True,
                    "cells": [spec.to_dict()],
                }
            )
            repeats += raw in frames
            frames.add(raw)
    cache = status.get("cache", {})
    metrics = {
        f"serve.req_ms.{tier}": (
            statistics.fmean(values) if values else 0.0,
            "ms",
        )
        for tier, values in by_tier.items()
    }
    metrics.update(
        {
            "serve.daemon.admit_ms": (admit, "ms"),
            "serve.daemon.queue_ms": (
                _histogram_mean(registry, "latency.admit_to_start_ms"),
                "ms",
            ),
            "serve.daemon.exec_ms": (
                _histogram_mean(registry, "latency.start_to_finish_ms"),
                "ms",
            ),
            "serve.router_ms": (hot_ms - admit, "ms"),
            "serve.repeat_frame_frac": (
                _ratio(repeats, plan.n_requests),
                "frac",
            ),
            "runner.cache.hot_hits": (float(cache.get("hot_hits", 0)), "count"),
            "runner.cache.disk_hits": (
                float(cache.get("disk_hits", 0)),
                "count",
            ),
            "runner.cache.misses": (float(cache.get("disk_misses", 0)), "count"),
        }
    )
    return metrics


RUNNERS = {
    "fig8_sweep": run_fig8_sweep,
    "scale_churn": run_scale_churn,
    "serve_mixed": run_serve_mixed,
}
