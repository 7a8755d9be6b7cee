"""WorkerPool: lifecycle, ordering, fallback, exception propagation."""

import multiprocessing
import random

import pytest

from repro.crypto import generate_keypair_raw
from repro.parallel import KeygenJob, WorkerPool, keygen_batch
from repro.telemetry import MetricsRegistry


# Batch functions must live at module scope so the fork/spawn pickler can
# ship them to workers by reference.

def _double_batch(jobs):
    return [job * 2 for job in jobs]


def _boom_batch(jobs):
    raise RuntimeError("poisoned job")


def _short_batch(jobs):
    return list(jobs)[:-1]


class TestConstruction:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="worker count"):
            WorkerPool(-1, metrics=MetricsRegistry())

    def test_zero_chunk_rejected(self):
        with pytest.raises(ValueError, match="chunk size"):
            WorkerPool(2, chunk_jobs=0, metrics=MetricsRegistry())

    def test_use_outside_with_block_rejected(self):
        pool = WorkerPool(0, metrics=MetricsRegistry())
        with pytest.raises(RuntimeError, match="with"):
            pool.map_batches(_double_batch, [1, 2])

    def test_closed_pool_rejects_reuse(self):
        pool = WorkerPool(0, metrics=MetricsRegistry())
        with pool:
            pool.map_batches(_double_batch, [1])
        with pytest.raises(RuntimeError, match="with"):
            pool.map_batches(_double_batch, [1])


class TestOrderingAndFallback:
    def test_empty_jobs(self):
        with WorkerPool(2, metrics=MetricsRegistry()) as pool:
            assert pool.map_batches(_double_batch, []) == []

    @pytest.mark.parametrize("workers", [0, 1, 2, 4])
    def test_results_in_submission_order(self, workers):
        jobs = list(range(100))
        with WorkerPool(workers, chunk_jobs=7,
                        metrics=MetricsRegistry()) as pool:
            assert pool.map_batches(_double_batch, jobs) == [
                job * 2 for job in jobs
            ]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_keygen_batch_same_at_any_worker_count(self, workers):
        jobs = [KeygenJob(bits=512, stream_seed=seed) for seed in range(5)]
        expected = [
            generate_keypair_raw(512, random.Random(job.stream_seed))
            for job in jobs
        ]
        with WorkerPool(workers, chunk_jobs=2,
                        metrics=MetricsRegistry()) as pool:
            assert pool.map_batches(keygen_batch, jobs) == expected

    def test_unavailable_start_method_degrades_to_serial(self):
        registry = MetricsRegistry()
        with WorkerPool(2, start_method="no-such-method",
                        metrics=registry) as pool:
            assert not pool.is_parallel
            assert pool.map_batches(_double_batch, [1, 2, 3]) == [2, 4, 6]
        batches = registry.get("repro_parallel_batches_total")
        assert batches.value(mode="serial") == 1.0
        assert batches.value(mode="pooled") == 0.0

    def test_workers_zero_never_forks(self):
        with WorkerPool(0, metrics=MetricsRegistry()) as pool:
            assert not pool.is_parallel
            assert pool.map_batches(_double_batch, [5]) == [10]


class TestExceptionPropagation:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_poisoned_job_raises_in_parent(self, workers):
        with WorkerPool(workers, metrics=MetricsRegistry()) as pool:
            with pytest.raises(RuntimeError, match="poisoned job"):
                pool.map_batches(_boom_batch, [1, 2, 3])

    def test_length_mismatch_fails_loudly(self):
        with WorkerPool(0, metrics=MetricsRegistry()) as pool:
            with pytest.raises(RuntimeError, match="results"):
                pool.map_batches(_short_batch, [1, 2, 3])

    def test_pool_closes_after_worker_exception(self):
        registry = MetricsRegistry()
        pool = WorkerPool(1, metrics=registry)
        with pytest.raises(RuntimeError, match="poisoned job"):
            with pool:
                pool.map_batches(_boom_batch, [1])
        assert registry.get("repro_parallel_pool_workers").value() == 0.0
        assert not pool.is_parallel


class TestTelemetry:
    def test_pool_size_gauge_tracks_lifecycle(self):
        registry = MetricsRegistry()
        pool = WorkerPool(2, metrics=registry)
        gauge = registry.get("repro_parallel_pool_workers")
        assert gauge.value() == 0.0
        with pool:
            assert gauge.value() == (2.0 if pool.is_parallel else 0.0)
        assert gauge.value() == 0.0

    def test_batch_latency_histogram_recorded(self):
        registry = MetricsRegistry()
        with WorkerPool(0, metrics=registry) as pool:
            pool.map_batches(_double_batch, [1, 2])
        histogram = registry.get("repro_parallel_batch_seconds")
        assert histogram is not None

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_pooled_mode_counted(self):
        registry = MetricsRegistry()
        with WorkerPool(1, start_method="fork", metrics=registry) as pool:
            assert pool.is_parallel
            pool.map_batches(_double_batch, [1, 2])
        assert registry.get(
            "repro_parallel_batches_total"
        ).value(mode="pooled") == 1.0
