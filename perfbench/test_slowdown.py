"""Injected-slowdown self-test: the benchmark catches a 30% slower layer.

Each case wraps one public layer function from outside so that every
call takes 30% longer: the wrapper spins for 0.3x the call's own
duration.  Plain and slowed runs of a workload's cells alternate in one
process (see :func:`paired_changes`).  On the workload where the layer
dominates, the case's metric must be caught by the pairwise rule of the
benchmark's method: the slowed side loses at least nine pairs in ten,
and its median worsening exceeds the quartile distance of the
worsenings that unslowed pairs show.  On the
other workload the metric must stay inside its ``BENCHMARK.json``
bound.

A bound cannot serve as the catch criterion: a 30% slower layer can
worsen a metric by at most 1 - 1/1.3 = 0.23, and host noise forces the
bounds to 0.25.

Run from the root of a source checkout (takes about five minutes)::

    PYTHONPATH=src:. python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from perfbench import cells, workloads
from repro.runner import Executor, WorkloadSpec
from repro.sim.system import System

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SLOWDOWN = 0.3
PAIRS = 10
#: Times each cell runs on each side of a pair.
REPEATS = 3
SEED = 1


def bound(metric: str) -> float:
    for entry in json.loads(BENCHMARK.read_text())["end_to_end"]:
        if entry["name"] == metric:
            return entry["bound"]
    raise KeyError(metric)


@contextmanager
def slowed(owner, attribute: str):
    """Make every call of ``owner.attribute`` take 30% longer."""
    original = getattr(owner, attribute)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        until = time.perf_counter() + SLOWDOWN * (time.perf_counter() - start)
        while time.perf_counter() < until:
            pass
        return result

    setattr(owner, attribute, wrapper)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


SIM = {
    "fig8_sweep": (cells.fig8_cells, workloads.NPROC),
    "scale_churn": (cells.scale_cells, 0),
}


def paired_changes(workload: str, metric: str, owner, attribute: str):
    """Worsening of ``metric`` per pair: ``1 - slowed / plain``.

    With ``owner=None`` nothing is slowed, which measures the pairs'
    own noise.

    ``metric`` is a ``refs_per_s.<protocol>`` rate, which depends only on
    that protocol's cells.  A pair runs each of those cells ``REPEATS``
    times per side, plain and slowed back to back (which goes first
    alternates between pairs), through the workload's executor.  So the
    two sides are timed within a second of each other, and host drift
    hits both alike.  The rate of
    each side is computed by the benchmark's own metric code.
    """
    builder, workers = SIM[workload]
    protocol = metric.split(".", 1)[1]
    specs = [spec for spec in builder(SEED) if spec.protocol == protocol]
    executor = Executor(workers=workers, retries=0, on_error="collect")
    changes = []
    for pair in range(PAIRS):
        sides = {"base": [], "slow": []}
        order = ("base", "slow") if pair % 2 == 0 else ("slow", "base")
        for _ in range(REPEATS):
            for spec in specs:
                for side in order:
                    context = (
                        slowed(owner, attribute)
                        if side == "slow" and owner is not None
                        else contextlib.nullcontext()
                    )
                    with context:
                        sides[side] += workloads._round(executor, [spec])
        rates = {
            side: workloads._sim_end_to_end([results], [1.0])[metric][0]
            for side, results in sides.items()
        }
        changes.append(1.0 - rates["slow"] / rates["base"])
    return changes


def quartile_distance(values: list[float]) -> float:
    low, _median, high = statistics.quantiles(values, n=4)
    return high - low


CASES = [
    # (layer, owner, attribute, metric, dominated workload, other workload)
    (
        "workloads.build",
        WorkloadSpec,
        "build_compiled",
        "refs_per_s.distributed-write",
        "fig8_sweep",
        "scale_churn",
    ),
    (
        "sim.system.build",
        System,
        "__init__",
        "refs_per_s.global-read",
        "scale_churn",
        "fig8_sweep",
    ),
]


@pytest.mark.parametrize(
    "layer, owner, attribute, metric, dominated, other",
    CASES,
    ids=[case[0] for case in CASES],
)
def test_injected_slowdown_is_caught_only_where_layer_dominates(
    layer, owner, attribute, metric, dominated, other
):
    changes = paired_changes(dominated, metric, owner, attribute)
    noise = quartile_distance(paired_changes(dominated, metric, None, ""))
    worse = statistics.median(changes)
    losses = sum(change > 0 for change in changes)
    assert losses >= 0.9 * len(changes), (
        f"{layer} +30%: slowed side of {metric} on {dominated} lost only "
        f"{losses} of {len(changes)} pairs"
    )
    assert worse > noise, (
        f"{layer} +30%: {metric} on {dominated} worsened by {worse:.3f}, "
        f"within the unslowed pairs' own spread {noise:.3f}"
    )
    spared = statistics.median(
        paired_changes(other, metric, owner, attribute)
    )
    assert spared < bound(metric), (
        f"{layer} +30%: {metric} on {other} worsened by {spared:.3f}, "
        f"beyond its bound {bound(metric)}"
    )
