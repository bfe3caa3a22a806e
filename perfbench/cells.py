"""Seeded experiment cells for the three benchmark workloads.

Every cell is a plain :class:`~repro.runner.ExperimentSpec`; the program
under test only ever sees these generated specs.  All randomness comes
from ``random.Random("<workload>:<seed>")``, so one seed always yields
the same cells and the same request order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analysis.compare import default_factories
from repro.runner import ExperimentSpec, WorkloadSpec
from repro.serve.router import shard_for
from repro.sim.system import SystemConfig

#: The six protocols of the paper's comparison, in factory order.
PROTOCOLS = tuple(default_factories())

#: Tasks per cell (the flagship shape's sharing degree).
TASKS = 16

# fig8_sweep: the paper's six-protocol comparison at the flagship shape.
FIG8_NODES = 64
FIG8_REFERENCES = 20_000
FIG8_WRITE_FRACTIONS = (0.05, 0.3, 0.6)

# scale_churn: shared-structure traces at large N (rotating writers).
SCALE_NODES = (64, 256, 1024)
#: References per cell.  The directory and no-cache protocols replay
#: 10-40x slower per reference at N=1024, so their cells are shorter to
#: keep the workload about System construction and the kernel's
#: fallbacks rather than about those three protocols alone.
SCALE_REFERENCES = {
    "two-mode": 5_000,
    "distributed-write": 5_000,
    "global-read": 5_000,
    "full-map": 1_000,
    "write-once": 1_000,
    "no-cache": 1_000,
}
SCALE_WRITE_FRACTION = 0.3
SCALE_BLOCKS = 8

# serve_mixed: a catalogue of small cells behind a sharded router.
SERVE_NODES = 64
#: References per cell.  The two-mode/DW/GR cells are longer: at 1k refs
#: they run in 5-15 ms, and the executor's wall time for them was mostly
#: scheduling noise (their ``refs_per_s`` spread by 0.2-0.27 across seeds).
SERVE_REFERENCES = {
    "two-mode": 4_000,
    "distributed-write": 4_000,
    "global-read": 4_000,
    "full-map": 1_000,
    "write-once": 1_000,
    "no-cache": 1_000,
}
SERVE_WRITE_FRACTIONS = (0.05, 0.3, 0.6)
#: Requests and catalogue cells per second of ``--seconds``, calibrated
#: so the timed phase lasts about ``--seconds`` on a 2-core x86_64 host.
#: Both counts are fixed before the run starts, so the cold/disk/hot
#: split is a pure function of the seed and the run length.  About one
#: request in 50 is a first (cold) request, enough to set the p99.
SERVE_REQUESTS_PER_SECOND = 600
SERVE_CELLS_PER_SECOND = 12
#: Zipf exponent of cell popularity.
SERVE_ZIPF = 1.0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _tasks(n_nodes: int) -> tuple[int, ...]:
    """Tasks spread evenly over the machine.

    Task placement is part of a workload's shape, not of its seed: it
    changes every protocol's cost per reference severalfold, so the seed
    only varies the reference streams.
    """
    return tuple(range(0, n_nodes, n_nodes // TASKS))


def fig8_cells(seed: int) -> list[ExperimentSpec]:
    """Six protocols x three write fractions on Markov traces, N=64."""
    rng = _rng("fig8_sweep", seed)
    config = SystemConfig(n_nodes=FIG8_NODES)
    cells = []
    for write_fraction in FIG8_WRITE_FRACTIONS:
        workload = WorkloadSpec(
            kind="markov",
            n_nodes=FIG8_NODES,
            n_references=FIG8_REFERENCES,
            write_fraction=write_fraction,
            seed=rng.randrange(2**31),
            tasks=_tasks(FIG8_NODES),
        )
        cells += [
            ExperimentSpec(protocol=protocol, workload=workload, config=config)
            for protocol in PROTOCOLS
        ]
    return cells


def scale_cells(seed: int) -> list[ExperimentSpec]:
    """Six protocols on shared-structure traces at N = 64, 256, 1024."""
    rng = _rng("scale_churn", seed)
    cells = []
    for n_nodes in SCALE_NODES:
        seed_n = rng.randrange(2**31)
        config = SystemConfig(n_nodes=n_nodes)
        cells += [
            ExperimentSpec(
                protocol=protocol,
                workload=WorkloadSpec(
                    kind="shared-structure",
                    n_nodes=n_nodes,
                    n_references=SCALE_REFERENCES[protocol],
                    write_fraction=SCALE_WRITE_FRACTION,
                    seed=seed_n,
                    tasks=_tasks(n_nodes),
                    n_blocks=SCALE_BLOCKS,
                ),
                config=config,
            )
            for protocol in PROTOCOLS
        ]
    return cells


@dataclass(frozen=True)
class ServePlan:
    """The serve_mixed inputs: one request list per client.

    Client ``i`` only asks for cells that shard ``i`` owns, so each
    shard's cache sees exactly one deterministic request sequence and
    the cold/disk/hot split repeats exactly for a seed.
    """

    catalogue: tuple[ExperimentSpec, ...]
    requests: tuple[tuple[ExperimentSpec, ...], ...]

    @property
    def n_requests(self) -> int:
        return sum(len(client) for client in self.requests)


def serve_plan(seed: int, seconds: int, clients: int) -> ServePlan:
    """A Zipf-popular request mix over a seeded catalogue of small cells."""
    rng = _rng("serve_mixed", seed)
    n_requests = SERVE_REQUESTS_PER_SECOND * seconds
    n_cells = SERVE_CELLS_PER_SECOND * seconds
    config = SystemConfig(n_nodes=SERVE_NODES)
    protocols = [PROTOCOLS[index % len(PROTOCOLS)] for index in range(n_cells)]
    catalogue = tuple(
        ExperimentSpec(
            protocol=protocol,
            workload=WorkloadSpec(
                kind="markov",
                n_nodes=SERVE_NODES,
                n_references=SERVE_REFERENCES[protocol],
                write_fraction=rng.choice(SERVE_WRITE_FRACTIONS),
                seed=rng.randrange(2**31),
                tasks=_tasks(SERVE_NODES),
            ),
            config=config,
        )
        for protocol in protocols
    )
    owned: list[list[ExperimentSpec]] = [[] for _ in range(clients)]
    for spec in catalogue:
        owned[shard_for(spec.spec_hash, clients)].append(spec)
    requests = []
    for cells in owned:
        if not cells:
            requests.append(())
            continue
        rng.shuffle(cells)
        weights = [1.0 / (rank + 1) ** SERVE_ZIPF for rank in range(len(cells))]
        requests.append(
            tuple(rng.choices(cells, weights, k=n_requests // clients))
        )
    return ServePlan(catalogue=catalogue, requests=tuple(requests))
