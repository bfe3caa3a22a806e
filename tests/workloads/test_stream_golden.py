"""The seeded generators' reference streams, pinned against drift.

Every content hash, pinned bit total and exhibit in the repository is a
function of the streams :func:`markov_block_trace`,
:func:`shared_structure_trace` and :func:`random_trace` draw from their
seeded RNG.  The generators inline ``random.Random.randrange`` as a
``getrandbits`` rejection loop, so two guards hold the stream fixed:

* SHA-256 digests of the five columns for fixed cases, recorded from the
  ``randrange``-based generators and checked in both output forms;
* a hypothesis property comparing each generator with a test-local
  oracle -- the ``randrange`` plus builder-call loop, draw for draw -- on
  whatever interpreter runs the suite.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.ctrace import CompiledTrace, CompiledTraceBuilder
from repro.workloads.markov import markov_block_trace, shared_structure_trace
from repro.workloads.synthetic import random_trace

# name -> (generator, positional args, keyword args, column digest)
GOLDEN = {
    "markov-one-task-word-blocks": (
        markov_block_trace,
        (8, [3], 0.3, 200),
        dict(block_size_words=1, seed=5),
        "e184f093758b9c9655a9524290d0275efddbe5e28b417991e757c5bb005f1aab",
    ),
    "markov-3-tasks-w0": (
        markov_block_trace,
        (8, [0, 2, 5], 0.0, 300),
        dict(seed=1),
        "ce6ace66738e1dad9180d4059ff55c41c320b87f1a60862c32f52b26ef19ea3f",
    ),
    "markov-5-tasks-w1": (
        markov_block_trace,
        (16, [1, 4, 9, 12, 15], 1.0, 300),
        dict(block_size_words=17, seed=2),
        "dc45382dea571a191b2f2b28f221103be791440abfb34c8678812b5a2c94367b",
    ),
    "markov-17-tasks-writer": (
        markov_block_trace,
        (40, list(range(0, 34, 2)), 0.5, 2000),
        dict(block=7, block_size_words=8, writer=6, seed=7919),
        "9f87ff2f39b4efdc2e5cceeeb59414dfe99c7d228702338cb56a09541de8b166",
    ),
    "markov-empty": (
        markov_block_trace,
        (4, [0, 1], 0.5, 0),
        dict(seed=3),
        "cab85be8bd0a5143d8722054604343b8cb9c1cf943b88638bcbb5bfb286bca80",
    ),
    "shared-one-block": (
        shared_structure_trace,
        (8, [0, 1, 2], 0.4, 400),
        dict(n_blocks=1, seed=11),
        "59efd2bd889d11f0ca84cce658a0b6e5a9ff83046d915e370c4c747a7af60002",
    ),
    "shared-5-blocks-17-tasks": (
        shared_structure_trace,
        (64, list(range(17)), 0.25, 600),
        dict(n_blocks=5, block_size_words=1, first_block=3, seed=13),
        "2cc8a3efa0d1390fffb22aba3c97461aeefc7880e1b38e56fc54fcb14c3c147d",
    ),
    "shared-17-blocks-5-tasks-w1": (
        shared_structure_trace,
        (8, [0, 2, 3, 5, 7], 1.0, 500),
        dict(n_blocks=17, block_size_words=3, seed=17),
        "01d4ccc33f856be46ae1d0b735dfdcea9a65c776ab29a2daa818390d4dffbd7e",
    ),
    "random-locality0": (
        random_trace,
        (8, 500),
        dict(n_blocks=3, block_size_words=5, locality=0.0, seed=19),
        "2e8e6154e01a95292657b6319f3de1c052fff68e630e16d59e3bf16e7e6d9a6b",
    ),
    "random-locality1-5-nodes-w0": (
        random_trace,
        (16, 500),
        dict(
            nodes=[1, 3, 5, 7, 11], write_fraction=0.0, locality=1.0, seed=23
        ),
        "6ba7e8a6ac0cd221c02adc64fc523027d7d15d41272daf29742998007d5c5228",
    ),
    "random-one-block-17-nodes-w1": (
        random_trace,
        (17, 400),
        dict(n_blocks=1, block_size_words=1, write_fraction=1.0, seed=29),
        "4576b746ba6514bf6f5bb4bb3f9ba66df3b69aef50cca2135a4e351c0b6f0e94",
    ),
    "random-empty": (
        random_trace,
        (4, 0),
        dict(seed=31),
        "cab85be8bd0a5143d8722054604343b8cb9c1cf943b88638bcbb5bfb286bca80",
    ),
}


def column_digest(trace) -> str:
    """SHA-256 over the five columns, independent of byte order."""
    columns = trace if isinstance(trace, CompiledTrace) else trace.compile()
    digest = hashlib.sha256()
    for name in ("nodes", "ops", "blocks", "offsets", "values"):
        digest.update(name.encode())
        digest.update(",".join(map(str, getattr(columns, name))).encode())
        digest.update(b";")
    return digest.hexdigest()


@pytest.mark.parametrize("compiled", [True, False], ids=["columns", "list"])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stream_matches_its_recorded_digest(case, compiled):
    generator, args, kwargs, expected = GOLDEN[case]
    trace = generator(*args, compiled=compiled, **kwargs)
    assert isinstance(trace, CompiledTrace) is compiled
    assert column_digest(trace) == expected


# ----------------------------------------------------------------------
# Oracles: the randrange-based generator bodies, draw for draw
# ----------------------------------------------------------------------


def oracle_markov(
    n_nodes, tasks, write_fraction, n_references, *,
    block, block_size_words, writer, seed,
):
    chosen_writer = tasks[0] if writer is None else writer
    rng = random.Random(seed)
    builder = CompiledTraceBuilder(n_nodes, block_size_words)
    next_value = 1
    for _ in range(n_references):
        offset = rng.randrange(block_size_words)
        if rng.random() < write_fraction:
            builder.write(chosen_writer, block, offset, next_value)
            next_value += 1
        else:
            reader = tasks[rng.randrange(len(tasks))]
            builder.read(reader, block, offset)
    return builder.build()


def oracle_shared_structure(
    n_nodes, tasks, write_fraction, n_references, *,
    n_blocks, first_block, block_size_words, seed,
):
    rng = random.Random(seed)
    builder = CompiledTraceBuilder(n_nodes, block_size_words)
    next_value = 1
    for _ in range(n_references):
        index = rng.randrange(n_blocks)
        block = first_block + index
        offset = rng.randrange(block_size_words)
        if rng.random() < write_fraction:
            writer = tasks[index % len(tasks)]
            builder.write(writer, block, offset, next_value)
            next_value += 1
        else:
            reader = tasks[rng.randrange(len(tasks))]
            builder.read(reader, block, offset)
    return builder.build()


def oracle_random(
    n_nodes, n_references, *,
    n_blocks, block_size_words, write_fraction, locality, nodes, seed,
):
    chosen_nodes = list(range(n_nodes)) if nodes is None else list(nodes)
    rng = random.Random(seed)
    last_block = {}
    builder = CompiledTraceBuilder(n_nodes, block_size_words)
    next_value = 1
    for _ in range(n_references):
        node = chosen_nodes[rng.randrange(len(chosen_nodes))]
        if node in last_block and rng.random() < locality:
            block = last_block[node]
        else:
            block = rng.randrange(n_blocks)
        last_block[node] = block
        offset = rng.randrange(block_size_words)
        if rng.random() < write_fraction:
            builder.write(node, block, offset, next_value)
            next_value += 1
        else:
            builder.read(node, block, offset)
    return builder.build()


# Sizes straddle powers of two, where the rejection loop redraws most.
sizes = st.one_of(
    st.sampled_from([1, 2, 3, 4, 5, 7, 8, 16, 17, 64]),
    st.integers(1, 1100),
)
fractions = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
seeds = st.integers(0, 2**64)


@st.composite
def task_sets(draw):
    n_nodes = draw(st.integers(1, 80))
    tasks = draw(
        st.lists(
            st.integers(0, n_nodes - 1), min_size=1, max_size=20, unique=True
        )
    )
    return n_nodes, tasks


def assert_same_stream(generator_output, oracle_output, compiled):
    if compiled:
        assert generator_output == oracle_output
    else:
        assert generator_output.references == oracle_output.to_trace().references


@settings(max_examples=60, deadline=None)
@given(
    geometry=task_sets(),
    write_fraction=fractions,
    n_references=st.integers(0, 300),
    block=st.integers(0, 1000),
    block_size_words=sizes,
    writer_choice=st.integers(0, 19) | st.none(),
    seed=seeds,
    compiled=st.booleans(),
)
def test_markov_matches_randrange_oracle(
    geometry, write_fraction, n_references, block, block_size_words,
    writer_choice, seed, compiled,
):
    n_nodes, tasks = geometry
    writer = None if writer_choice is None else tasks[writer_choice % len(tasks)]
    kwargs = dict(
        block=block, block_size_words=block_size_words, writer=writer,
        seed=seed,
    )
    assert_same_stream(
        markov_block_trace(
            n_nodes, tasks, write_fraction, n_references,
            compiled=compiled, **kwargs,
        ),
        oracle_markov(n_nodes, tasks, write_fraction, n_references, **kwargs),
        compiled,
    )


@settings(max_examples=60, deadline=None)
@given(
    geometry=task_sets(),
    write_fraction=fractions,
    n_references=st.integers(0, 300),
    n_blocks=sizes,
    first_block=st.integers(0, 1000),
    block_size_words=sizes,
    seed=seeds,
    compiled=st.booleans(),
)
def test_shared_structure_matches_randrange_oracle(
    geometry, write_fraction, n_references, n_blocks, first_block,
    block_size_words, seed, compiled,
):
    n_nodes, tasks = geometry
    kwargs = dict(
        n_blocks=n_blocks, first_block=first_block,
        block_size_words=block_size_words, seed=seed,
    )
    assert_same_stream(
        shared_structure_trace(
            n_nodes, tasks, write_fraction, n_references,
            compiled=compiled, **kwargs,
        ),
        oracle_shared_structure(
            n_nodes, tasks, write_fraction, n_references, **kwargs
        ),
        compiled,
    )


@settings(max_examples=60, deadline=None)
@given(
    geometry=task_sets(),
    restrict=st.booleans(),
    n_references=st.integers(0, 300),
    n_blocks=sizes,
    block_size_words=sizes,
    write_fraction=fractions,
    locality=fractions,
    seed=seeds,
    compiled=st.booleans(),
)
def test_random_matches_randrange_oracle(
    geometry, restrict, n_references, n_blocks, block_size_words,
    write_fraction, locality, seed, compiled,
):
    n_nodes, tasks = geometry
    kwargs = dict(
        n_blocks=n_blocks, block_size_words=block_size_words,
        write_fraction=write_fraction, locality=locality,
        nodes=tasks if restrict else None, seed=seed,
    )
    assert_same_stream(
        random_trace(n_nodes, n_references, compiled=compiled, **kwargs),
        oracle_random(n_nodes, n_references, **kwargs),
        compiled,
    )
