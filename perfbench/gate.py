"""The correctness gate every benchmark run passes through.

Simulated results are exact checks, never metrics.  A cell's identity is
its canonical report digest: SHA-256 over ``SimulationReport.to_dict()``
encoded as canonical JSON (sorted keys, no whitespace).  The gate

* requires every reply for one cell -- from ``Executor(workers=nproc)``,
  from the in-process executor, from the serve fleet, from every round
  of the run -- to carry the same digest;
* compares the digests with those an earlier run of the same workload
  and seed left in the checkout's state directory;
* replays a pinned canary (six protocols on one fixed Markov trace) and
  compares each protocol's network bits and reference count with the
  exact values in ``pins.json``, plus the per-protocol totals of a
  workload when its seed is pinned there too;
* replays the canary again with the network's route-plan memo switched
  off, which must not change a single report (the equivalence that
  ``repro perf --equivalence-only`` checks).

Every mismatch is a failure: it is counted in the run's ``failed`` and
makes the run exit non-zero.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from perfbench.cells import PROTOCOLS
from repro.analysis.compare import default_factories
from repro.runner import Executor, ExperimentSpec, WorkloadSpec
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig

PINS_PATH = Path(__file__).with_name("pins.json")


def canonical(report_dict: dict) -> bytes:
    """The canonical JSON encoding of a serialised report."""
    return json.dumps(
        report_dict, sort_keys=True, separators=(",", ":")
    ).encode("ascii")


def digest(report_dict: dict) -> str:
    return hashlib.sha256(canonical(report_dict)).hexdigest()


def pin_key(workload: str, seed: int, seconds: int, clients: int) -> str:
    """The ``pins.json`` key of a workload's inputs."""
    if workload == "serve_mixed":
        return f"seed={seed} seconds={seconds} clients={clients}"
    return f"seed={seed}"


def canary_cells() -> list[ExperimentSpec]:
    """One fixed small cell per protocol (independent of ``--seed``)."""
    workload = WorkloadSpec(
        kind="markov",
        n_nodes=64,
        n_references=2_000,
        write_fraction=0.3,
        seed=1989,
        tasks=tuple(range(0, 64, 4)),
    )
    config = SystemConfig(n_nodes=64)
    return [
        ExperimentSpec(protocol=protocol, workload=workload, config=config)
        for protocol in PROTOCOLS
    ]


def protocol_totals(
    pairs: list[tuple[ExperimentSpec, dict]]
) -> dict[str, list[int]]:
    """``{protocol: [network bits, references]}`` summed over cells."""
    totals: dict[str, list[int]] = {}
    for spec, report in pairs:
        entry = totals.setdefault(spec.protocol, [0, 0])
        entry[0] += report["network_total_bits"]
        entry[1] += report["n_references"]
    return dict(sorted(totals.items()))


def _replay_without_plans(spec: ExperimentSpec):
    """``execute_spec`` with the network's route-plan cache switched off."""
    system = System(spec.config)
    system.network.route_plans = None
    protocol = default_factories()[spec.protocol](system)
    return run_trace(protocol, spec.workload.build_compiled(), verify=False)


class Gate:
    """Collects digests per cell and every mismatch found."""

    def __init__(self) -> None:
        self.digests: dict[str, str] = {}
        #: The first report seen per cell (for the pinned totals).
        self.reports: dict[str, dict] = {}
        self.failures: list[str] = []

    def record(self, spec_hash: str, report_dict: dict, source: str) -> str:
        value = digest(report_dict)
        self.reports.setdefault(spec_hash, report_dict)
        self.expect(spec_hash, value, source)
        return value

    def expect(self, spec_hash: str, value: str, source: str) -> None:
        known = self.digests.setdefault(spec_hash, value)
        if known != value:
            self.failures.append(
                f"cell {spec_hash[:12]}: {source} digest {value[:12]} "
                f"differs from {known[:12]}"
            )

    def fail(self, message: str) -> None:
        self.failures.append(message)

    # ------------------------------------------------------------------

    def check_in_process(self, specs: list[ExperimentSpec]) -> list:
        """Re-run ``specs`` on the in-process executor and compare.

        Returns the executor's results, whose wall times callers may use.
        """
        results = Executor(workers=0).run(specs)
        for result in results:
            self.record(
                result.spec.spec_hash, result.report.to_dict(), "in-process"
            )
        return results

    def check_parallel(
        self, specs: list[ExperimentSpec], workers: int
    ) -> None:
        """Re-run ``specs`` on ``Executor(workers=...)`` and compare."""
        for result in Executor(workers=workers).run(specs):
            self.record(
                result.spec.spec_hash,
                result.report.to_dict(),
                f"workers={workers}",
            )

    def check_canary(self) -> None:
        """The pinned canary, replayed with and without route-plan memos."""
        pins = json.loads(PINS_PATH.read_text())
        results = Executor(workers=0).run(canary_cells())
        got = protocol_totals(
            [(result.spec, result.report.to_dict()) for result in results]
        )
        if got != pins["canary"]:
            self.fail(f"canary totals {got} differ from pins {pins['canary']}")
        for result in results:
            cold = _replay_without_plans(result.spec).to_dict()
            if digest(cold) != digest(result.report.to_dict()):
                self.fail(
                    f"canary {result.spec.protocol}: replay without "
                    "route-plan memos differs from the memoised replay"
                )

    def check_pinned_totals(
        self,
        workload: str,
        key: str,
        pairs: list[tuple[ExperimentSpec, dict]],
    ) -> None:
        """Exact per-protocol bits and references when ``key`` is pinned.

        ``key`` names the inputs: the seed, plus the run length and
        client count for ``serve_mixed`` (see :func:`pin_key`).
        """
        pinned = json.loads(PINS_PATH.read_text()).get(workload, {})
        expected = pinned.get(key)
        if expected is None:
            return
        got = protocol_totals(pairs)
        if got != expected:
            self.fail(
                f"{workload} {key}: per-protocol totals {got} "
                f"differ from pins {expected}"
            )

    def check_store(self, state_dir: Path, workload: str, seed: int) -> None:
        """Compare with, then extend, the digests of earlier runs."""
        path = state_dir / f"digests-{workload}-{seed}.json"
        earlier = json.loads(path.read_text()) if path.exists() else {}
        for spec_hash, value in earlier.items():
            if spec_hash in self.digests:
                self.expect(spec_hash, value, "earlier run")
        merged = {**earlier, **self.digests}
        state_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(merged, sort_keys=True))
        os.replace(tmp, path)
