"""The §4 reference model as a trace generator.

"Consider a parallel application where ``n`` tasks access a shared
read-write data structure.  For each block in the data structure we assume
that exactly one task modifies it and all other tasks access it.  The
fraction of writes to the block is ``w``."

:func:`markov_block_trace` realises that model for one block;
:func:`shared_structure_trace` for a whole structure of blocks, each with
its own writer.  Values written are sequence numbers so the verifying
simulator can detect any stale read.

Both generators write straight into the five columns of a
:class:`~repro.sim.ctrace.CompiledTrace`; ``compiled=False`` converts that
one stream with :meth:`~repro.sim.ctrace.CompiledTrace.to_trace`.  Every
uniform integer is drawn as :meth:`random.Random.randrange` draws it
(``k = n.bit_length()`` bits from ``getrandbits``, redrawn while the
result is ``>= n``), inlined so a reference costs no Python call beyond
the RNG itself; the seeded stream is the one ``randrange`` gives, pinned
by ``tests/workloads/test_stream_golden.py``.
"""

from __future__ import annotations

import random
from array import array
from typing import Sequence

from repro.errors import ConfigurationError
from repro.sim.ctrace import CompiledTrace
from repro.sim.trace import Trace
from repro.types import NodeId


def _check_tasks(tasks: Sequence[NodeId], n_nodes: int) -> None:
    if not tasks:
        raise ConfigurationError("need at least one task")
    for task in tasks:
        if not 0 <= task < n_nodes:
            raise ConfigurationError(
                f"task {task} outside 0..{n_nodes - 1}"
            )
    if len(set(tasks)) != len(tasks):
        raise ConfigurationError(f"duplicate tasks in {list(tasks)}")


def _check_block_size(block_size_words: int) -> None:
    # Offsets are drawn uniformly below the block size: a size under 1
    # leaves nothing to draw from, and since no draw is ever below it the
    # inlined rejection loop would spin forever.
    if block_size_words < 1:
        raise ConfigurationError(
            f"block_size_words must be at least 1, got {block_size_words}"
        )


def _filled(value: int, length: int) -> array:
    """A column of ``length`` copies of ``value``, to be overwritten.

    The seeded generators preallocate every column and assign by index,
    which costs less per reference than a bound ``append`` call.  Their
    columns are valid by construction (tasks checked, offsets and indices
    drawn below their bounds), so they skip ``CompiledTrace.validate``
    unless a caller-supplied first block is negative -- that one it
    reports, by reference index, as it always did.
    """
    return array("q", (value,)) * length


def markov_block_trace(
    n_nodes: int,
    tasks: Sequence[NodeId],
    write_fraction: float,
    n_references: int,
    *,
    block: int = 0,
    block_size_words: int = 4,
    writer: NodeId | None = None,
    seed: int = 0,
    compiled: bool = False,
) -> Trace | CompiledTrace:
    """References of ``tasks`` to one shared block, one writing task.

    Each reference is a write with probability ``write_fraction`` (issued
    by ``writer``, default the first task) and otherwise a read by a
    uniformly random task.  Offsets are uniform over the block.

    Per reference the RNG draws the offset, then ``random()``, then (on a
    read only) the reader.  ``compiled=True`` returns the columnar
    :class:`~repro.sim.ctrace.CompiledTrace`, otherwise its
    :class:`~repro.sim.trace.Trace` conversion.
    """
    _check_block_size(block_size_words)
    _check_tasks(tasks, n_nodes)
    if not 0.0 <= write_fraction <= 1.0:
        raise ConfigurationError(
            f"write fraction must be in [0, 1], got {write_fraction}"
        )
    if n_references < 0:
        raise ConfigurationError(
            f"n_references must be non-negative, got {n_references}"
        )
    chosen_writer = tasks[0] if writer is None else writer
    if chosen_writer not in tasks:
        raise ConfigurationError(
            f"writer {chosen_writer} is not one of the tasks {list(tasks)}"
        )
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    uniform = rng.random
    offset_bits = block_size_words.bit_length()
    n_tasks = len(tasks)
    task_bits = n_tasks.bit_length()
    nodes = _filled(chosen_writer, n_references)
    ops = _filled(0, n_references)
    offsets = _filled(0, n_references)
    values = _filled(0, n_references)
    next_value = 1
    for i in range(n_references):
        offset = getrandbits(offset_bits)
        while offset >= block_size_words:
            offset = getrandbits(offset_bits)
        offsets[i] = offset
        if uniform() < write_fraction:
            ops[i] = 1
            values[i] = next_value
            next_value += 1
        else:
            index = getrandbits(task_bits)
            while index >= n_tasks:
                index = getrandbits(task_bits)
            nodes[i] = tasks[index]
    trace = CompiledTrace(
        nodes,
        ops,
        _filled(block, n_references),
        offsets,
        values,
        n_nodes,
        block_size_words,
        validate=block < 0,
    )
    return trace if compiled else trace.to_trace()


def shared_structure_trace(
    n_nodes: int,
    tasks: Sequence[NodeId],
    write_fraction: float,
    n_references: int,
    *,
    n_blocks: int = 8,
    first_block: int = 0,
    block_size_words: int = 4,
    seed: int = 0,
    compiled: bool = False,
) -> Trace | CompiledTrace:
    """References to a structure of ``n_blocks`` blocks, writers rotating.

    Block ``first_block + i`` is written (only) by ``tasks[i % len(tasks)]``
    and read by everyone -- the paper's whole-structure model, where
    ownership never needs to change once established.

    Per reference the RNG draws the block index, the offset, then
    ``random()``, then (on a read only) the reader.
    """
    _check_block_size(block_size_words)
    _check_tasks(tasks, n_nodes)
    if n_blocks <= 0:
        raise ConfigurationError(
            f"n_blocks must be positive, got {n_blocks}"
        )
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    uniform = rng.random
    block_bits = n_blocks.bit_length()
    offset_bits = block_size_words.bit_length()
    n_tasks = len(tasks)
    task_bits = n_tasks.bit_length()
    nodes, ops, blocks, offsets, values = (
        _filled(0, n_references) for _ in range(5)
    )
    next_value = 1
    for i in range(n_references):
        index = getrandbits(block_bits)
        while index >= n_blocks:
            index = getrandbits(block_bits)
        blocks[i] = first_block + index
        offset = getrandbits(offset_bits)
        while offset >= block_size_words:
            offset = getrandbits(offset_bits)
        offsets[i] = offset
        if uniform() < write_fraction:
            nodes[i] = tasks[index % n_tasks]
            ops[i] = 1
            values[i] = next_value
            next_value += 1
        else:
            reader = getrandbits(task_bits)
            while reader >= n_tasks:
                reader = getrandbits(task_bits)
            nodes[i] = tasks[reader]
    trace = CompiledTrace(
        nodes,
        ops,
        blocks,
        offsets,
        values,
        n_nodes,
        block_size_words,
        validate=first_block < 0,
    )
    return trace if compiled else trace.to_trace()
