"""Keygen prefill: determinism, worker metric isolation — and the
retired verification pool's spellings staying retired."""

import multiprocessing

import pytest

from repro.crypto.keys import KeyFactory
from repro.jurisdiction.regions import RIR
from repro.modelgen import DeploymentConfig, build_deployment, expected_keypairs
from repro.parallel import (
    KeygenJob,
    WorkerPool,
    keygen_batch,
    prefill_keys,
    registry_probe,
)
from repro.repository import Fetcher
from repro.rp import PathValidator, RelyingParty
from repro.telemetry import MetricsRegistry

_CONFIG = DeploymentConfig(
    rirs=(RIR.ARIN, RIR.RIPE), isps_per_rir=2, customers_per_isp=1,
    suballocation_depth=2, seed=33,
)


class TestRelyingPartyDeterminism:
    def test_negative_workers_rejected(self):
        """Validation is never pooled: any worker count is a TypeError."""
        world = build_deployment(_CONFIG)
        fetcher = Fetcher(world.registry, world.clock,
                          metrics=MetricsRegistry())
        for workers in (-1, 1):
            with pytest.raises(TypeError, match="workers"):
                RelyingParty(world.trust_anchors, fetcher, workers=workers)


class TestEngineContract:
    def test_validator_rejects_both_providers(self):
        """The incremental state is the only reuse state a validator takes."""
        world = build_deployment(_CONFIG)
        with pytest.raises(TypeError, match="parallel"):
            PathValidator(
                world.trust_anchors, metrics=MetricsRegistry(),
                parallel=object(),
            )


class TestPrefill:
    def test_parallel_build_byte_identical_to_serial(self):
        config = DeploymentConfig(
            rirs=(RIR.APNIC,), isps_per_rir=2, customers_per_isp=1,
            suballocation_depth=1, seed=61,
        )
        KeyFactory.clear_cache()
        try:
            serial = build_deployment(config)
            serial_certs = [
                ca.certificate.hash_hex for ca in serial.authorities()
            ]
            KeyFactory.clear_cache()
            parallel = build_deployment(config, workers=2)
            assert [
                ca.certificate.hash_hex for ca in parallel.authorities()
            ] == serial_certs
            assert parallel.as_country == serial.as_country
        finally:
            KeyFactory.clear_cache()

    def test_prefill_skips_cached_indices(self):
        factory = KeyFactory(seed=97)
        factory.next_keypair()  # index 0 now cached process-wide
        fresh = KeyFactory(seed=97)
        with WorkerPool(0, metrics=MetricsRegistry()) as pool:
            generated = prefill_keys(fresh, 3, pool)
        assert generated == 2
        with WorkerPool(0, metrics=MetricsRegistry()) as pool:
            assert prefill_keys(KeyFactory(seed=97), 3, pool) == 0

    def test_expected_keypairs_matches_build(self):
        KeyFactory.clear_cache()
        try:
            world = build_deployment(_CONFIG)
            assert world.key_factory.issued == expected_keypairs(_CONFIG)
        finally:
            KeyFactory.clear_cache()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method to observe inherited registry state",
)
class TestWorkerMetricIsolation:
    def test_raw_batches_never_touch_worker_registry_state(self):
        jobs = [KeygenJob(bits=512, stream_seed=seed) for seed in (5, 6, 7)]
        from repro.telemetry import default_registry

        def parent_keygen_total():
            return default_registry().get("repro_crypto_keygen_total").value()

        with WorkerPool(1, start_method="fork",
                        metrics=MetricsRegistry()) as pool:
            assert pool.is_parallel
            before = pool.map_batches(registry_probe, [0])[0]
            parent_before = parent_keygen_total()
            keys = pool.map_batches(keygen_batch, jobs)
            after = pool.map_batches(registry_probe, [0])[0]
        assert len({key.public.modulus for key in keys}) == 3
        # The worker ran only uninstrumented raw functions: its inherited
        # module-global counters are exactly as they were at fork time.
        assert after == before
        # And nothing leaked back into the parent registry either.
        assert parent_keygen_total() == parent_before
