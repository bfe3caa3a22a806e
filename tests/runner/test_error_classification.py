"""Executor error classification, deterministic backoff, collect mode.

Permanent error classes (bad config, coherence violations, malformed
traces) are a pure function of the spec and must fail fast -- no retry
budget burned.  Transient classes retry with an exponential backoff that
is a pure function of the attempt number, and every attempt's error
class lands in the journal.
"""

import multiprocessing

import pytest

from repro.errors import CoherenceError, ExecutionError
from repro.runner import Executor, RunJournal
from repro.runner.executor import PERMANENT_ERROR_CLASSES
from repro.workloads.markov import markov_block_trace

from tests.runner.test_executor import make_cell

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="failure-injection task functions need the fork start method",
)


def raise_coherence(spec):
    raise CoherenceError("block 0 (node 1, mode GLOBAL_READ): forged")


def build_zero_word_blocks(spec):
    workload = spec.workload
    return markov_block_trace(
        workload.n_nodes,
        list(workload.tasks),
        workload.write_fraction,
        workload.n_references,
        block_size_words=0,
        seed=workload.seed,
    )


def raise_transient(spec):
    raise OSError("connection reset by peer")


class TestClassification:
    def test_permanent_classes_cover_the_deterministic_failures(self):
        assert "CoherenceError" in PERMANENT_ERROR_CLASSES
        assert "ConfigurationError" in PERMANENT_ERROR_CLASSES
        assert "FaultInjectionError" in PERMANENT_ERROR_CLASSES

    def test_permanent_error_fails_fast_despite_retry_budget(self):
        journal = RunJournal()
        executor = Executor(
            workers=0, retries=5, journal=journal, task_fn=raise_coherence
        )
        with pytest.raises(ExecutionError, match="CoherenceError"):
            executor.run([make_cell()])
        # No retry events: one attempt, one failure.
        assert journal.counts()["retried"] == 0
        failures = [
            event for event in journal.events
            if event["event"] == "task_failed"
        ]
        assert failures[0]["error_class"] == "CoherenceError"
        assert failures[0]["attempts"] == 1

    def test_bad_block_size_fails_after_one_attempt(self):
        # A generator handed a block size below 1 raises the permanent
        # ConfigurationError, not a retryable bare ValueError.
        journal = RunJournal()
        executor = Executor(
            workers=0,
            retries=1,
            journal=journal,
            task_fn=build_zero_word_blocks,
        )
        with pytest.raises(ExecutionError, match="ConfigurationError"):
            executor.run([make_cell()])
        assert journal.counts()["retried"] == 0
        failures = [
            event for event in journal.events
            if event["event"] == "task_failed"
        ]
        assert failures[0]["error_class"] == "ConfigurationError"
        assert failures[0]["attempts"] == 1

    def test_transient_error_uses_the_retry_budget(self):
        journal = RunJournal()
        executor = Executor(
            workers=0, retries=2, journal=journal, task_fn=raise_transient
        )
        with pytest.raises(ExecutionError, match="OSError"):
            executor.run([make_cell()])
        assert journal.counts()["retried"] == 2

    @fork_only
    def test_parallel_path_classifies_too(self):
        journal = RunJournal()
        executor = Executor(
            workers=2, retries=5, journal=journal, task_fn=raise_coherence
        )
        with pytest.raises(ExecutionError, match="CoherenceError"):
            executor.run([make_cell()])
        assert journal.counts()["retried"] == 0


class TestBackoff:
    def test_schedule_is_a_pure_function_of_the_attempt(self):
        executor = Executor(backoff=0.1)
        assert executor._backoff_for(1) == pytest.approx(0.1)
        assert executor._backoff_for(2) == pytest.approx(0.2)
        assert executor._backoff_for(3) == pytest.approx(0.4)

    def test_zero_backoff_stays_zero(self):
        executor = Executor()
        assert executor._backoff_for(5) == 0.0

    def test_negative_backoff_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="backoff"):
            Executor(backoff=-1.0)

    def test_backoff_recorded_per_retry_in_the_journal(self):
        attempts = []

        def flaky(spec):
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            from repro.runner import execute_spec

            return execute_spec(spec)

        journal = RunJournal()
        executor = Executor(
            workers=0,
            retries=3,
            backoff=0.01,
            journal=journal,
            task_fn=flaky,
        )
        results = executor.run([make_cell()])
        assert results[0].report is not None
        retries = [
            event for event in journal.events
            if event["event"] == "task_retry"
        ]
        assert [event["backoff"] for event in retries] == [
            pytest.approx(0.01),
            pytest.approx(0.02),
        ]
        assert all(
            event["error_class"] == "OSError" for event in retries
        )


class TestCollectMode:
    def test_collected_failure_keeps_the_run_going(self):
        calls = []

        def selective(spec):
            calls.append(spec)
            if spec.workload.seed == 4:
                raise CoherenceError("block 1 (node 0, mode none): forged")
            from repro.runner import execute_spec

            return execute_spec(spec)

        cells = [make_cell(seed=s) for s in (3, 4, 5)]
        executor = Executor(
            workers=0, on_error="collect", task_fn=selective
        )
        results = executor.run(cells)
        assert len(results) == 3
        assert results[0].report is not None
        assert results[1].failed
        assert results[1].error_class == "CoherenceError"
        assert results[2].report is not None

    def test_invalid_on_error_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="on_error"):
            Executor(on_error="ignore")
