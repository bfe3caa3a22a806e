"""Run one benchmark workload end to end and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fig8_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` reports the per-layer metrics from a traced pass (spans are
written to ``.perfbench/traces/``).  Every run passes the correctness
gate (:mod:`perfbench.gate`).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(``{name: {"value": ..., "unit": ...}}``).  The exit code is 0 only when
the gate passed; a checkout without the program's sources (``src/repro``)
exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig8_sweep", "scale_churn", "serve_mixed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
            "run from the root of a source checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import RUNNERS

    work_dir = ROOT / ".perfbench"
    outcome = RUNNERS[args.workload](
        args.seed, args.seconds, bool(args.trace), work_dir
    )

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in outcome.notes:
        print(note)
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"  {name:<34} {value:14.4f} {unit}")
    failed_frac = outcome.failed / max(1, outcome.attempted)
    print(
        f"  {'failed_frac':<34} {failed_frac:14.4f} frac "
        f"({outcome.failed} of {outcome.attempted})"
    )
    for failure in outcome.failures:
        print(f"GATE FAILURE: {failure}")
    correct = not outcome.failures and outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(outcome.metrics.items())
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
