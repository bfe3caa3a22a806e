"""Fully parameterised random traces for stress and property testing.

:func:`random_trace` draws every dimension -- which node references, which
block, read or write, with what temporal locality -- from a seeded RNG, so
the property-based tests can explore protocol state space far beyond the
structured workloads while staying reproducible.

Like the Markov generators it writes straight into the columns of a
:class:`~repro.sim.ctrace.CompiledTrace`, drawing each uniform integer
exactly as :meth:`random.Random.randrange` would (see
:mod:`repro.workloads.markov`).
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import ConfigurationError
from repro.sim.ctrace import CompiledTrace
from repro.sim.trace import Trace
from repro.types import NodeId
from repro.workloads.markov import _check_block_size, _filled


def random_trace(
    n_nodes: int,
    n_references: int,
    *,
    n_blocks: int = 8,
    block_size_words: int = 4,
    write_fraction: float = 0.3,
    locality: float = 0.5,
    nodes: Sequence[NodeId] | None = None,
    seed: int = 0,
    compiled: bool = False,
) -> Trace | CompiledTrace:
    """A seeded random reference stream.

    ``locality`` is the probability that a reference repeats the issuing
    node's previous block (temporal locality knob); otherwise a block is
    drawn uniformly.  Any node may write any block -- deliberately harsher
    than the paper's single-writer model, to exercise ownership transfer.

    Per reference the RNG draws the node, then ``random() < locality``
    only when that node has a previous block, then the block unless it
    was reused, then the offset, then ``random()`` for the operation.
    """
    _check_block_size(block_size_words)
    if n_references < 0:
        raise ConfigurationError(
            f"n_references must be non-negative, got {n_references}"
        )
    if n_blocks <= 0:
        raise ConfigurationError(f"n_blocks must be positive, got {n_blocks}")
    if not 0.0 <= write_fraction <= 1.0:
        raise ConfigurationError(
            f"write_fraction must be in [0, 1], got {write_fraction}"
        )
    if not 0.0 <= locality <= 1.0:
        raise ConfigurationError(
            f"locality must be in [0, 1], got {locality}"
        )
    chosen_nodes = list(range(n_nodes)) if nodes is None else list(nodes)
    for node in chosen_nodes:
        if not 0 <= node < n_nodes:
            raise ConfigurationError(f"node {node} outside 0..{n_nodes - 1}")
    if not chosen_nodes:
        raise ConfigurationError("need at least one referencing node")

    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    uniform = rng.random
    n_chosen = len(chosen_nodes)
    node_bits = n_chosen.bit_length()
    block_bits = n_blocks.bit_length()
    offset_bits = block_size_words.bit_length()
    # Each node's previous block, -1 before its first reference.
    last_block = [-1] * n_nodes
    nodes, ops, blocks, offsets, values = (
        _filled(0, n_references) for _ in range(5)
    )
    next_value = 1
    for i in range(n_references):
        index = getrandbits(node_bits)
        while index >= n_chosen:
            index = getrandbits(node_bits)
        node = chosen_nodes[index]
        nodes[i] = node
        block = last_block[node]
        if block < 0 or not uniform() < locality:
            block = getrandbits(block_bits)
            while block >= n_blocks:
                block = getrandbits(block_bits)
            last_block[node] = block
        blocks[i] = block
        offset = getrandbits(offset_bits)
        while offset >= block_size_words:
            offset = getrandbits(offset_bits)
        offsets[i] = offset
        if uniform() < write_fraction:
            ops[i] = 1
            values[i] = next_value
            next_value += 1
    trace = CompiledTrace(
        nodes,
        ops,
        blocks,
        offsets,
        values,
        n_nodes,
        block_size_words,
        validate=False,
    )
    return trace if compiled else trace.to_trace()
