"""Regenerate ``pins.json``, the exact simulated results the gate checks.

Run from the root of a source checkout::

    PYTHONPATH=src:. python3 -m perfbench.pins

Pins hold each protocol's total network bits and references for the
canary cells and for every workload at the reference seed and the
held-out seed.  Regenerate them only when a change is meant to alter
simulated results, and say so in the change.
"""

from __future__ import annotations

import json

from perfbench import cells
from perfbench.gate import PINS_PATH, canary_cells, pin_key, protocol_totals
from repro.runner import Executor

#: The seed the benchmark is tuned on, and one it is not.
REFERENCE_SEED = 1
HELD_OUT_SEED = 7919

#: ``serve_mixed`` pins assume this many clients and this run length.
SERVE_CLIENTS = 2
SERVE_SECONDS = 20


def _totals(specs) -> dict:
    results = Executor(workers=0).run(specs)
    return protocol_totals(
        [(result.spec, result.report.to_dict()) for result in results]
    )


def compute() -> dict:
    pins = {"canary": _totals(canary_cells())}
    for seed in (REFERENCE_SEED, HELD_OUT_SEED):
        plan = cells.serve_plan(seed, SERVE_SECONDS, SERVE_CLIENTS)
        requested = {
            spec.spec_hash: spec for client in plan.requests for spec in client
        }
        for workload, specs in (
            ("fig8_sweep", cells.fig8_cells(seed)),
            ("scale_churn", cells.scale_cells(seed)),
            ("serve_mixed", list(requested.values())),
        ):
            key = pin_key(workload, seed, SERVE_SECONDS, SERVE_CLIENTS)
            pins.setdefault(workload, {})[key] = _totals(specs)
    return pins


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
