"""Host-speed calibration: divide out the host's drift from every timing.

On a shared virtual machine the same pure-Python work takes anywhere
from 1x to 1.7x as long, in phases that last from a fraction of a
second to minutes.  Averaging within a run removes the short phases but
not the long ones.  Those long phases would make runs of one commit
disagree by more than any useful regression bound.

So every run interleaves a fixed calibration loop with its timed work:
before each round of cells, and between chunks of serve requests.  The
loop is benchmark code that never calls into the program, so no change
to the program can move it.  ``speed`` is ``REFERENCE_SECONDS`` over the
run's mean calibration time.  It is 1.0 on the reference host (a
2-core x86_64 VM) in its fast phase, and it falls when the host slows
down.  Each reported timing is scaled to the reference speed: a rate is
divided by ``speed``, and a duration multiplied by it.  The raw values
and ``speed`` are printed beside the JSON result.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Median calibration time on the reference host in its fast phase.
REFERENCE_SECONDS = 0.125


class _Node:
    __slots__ = ("key", "owner", "count")

    def __init__(self, key: int, owner: int) -> None:
        self.key = key
        self.owner = owner
        self.count = 0


def _work() -> int:
    """Dict probes, slotted attribute updates, tuples and small calls."""
    table: dict[int, _Node] = {}
    log: list[tuple[int, int]] = []
    total = 0
    for step in range(400_000):
        key = (step * 2654435761) & 1023
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(key, step & 63)
        node.count += 1
        if node.count & 7 == 0:
            log.append((key, node.owner))
            node.owner = step & 63
        total += len(log) ^ node.owner
    return total


class HostSpeed:
    """Calibration samples taken during one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _work()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    @property
    def speed(self) -> float:
        """Reference time over the mean sample.

        The mean, not the median: the host flips between a fast and a
        slow phase, and the share of time spent in each is what slows
        the timed work down.
        """
        return REFERENCE_SECONDS / statistics.fmean(self.samples)

    def scale(self, value: float, unit: str) -> float:
        """``value`` at the reference speed (rates and durations only)."""
        if unit == "1/s":
            return value / self.speed
        if unit in ("s", "ms"):
            return value * self.speed
        return value
