"""The functions that run inside pool worker processes.

Everything here is a module-level pure function over one *chunk* of jobs
(picklable by reference under every start method), and none of it touches
the telemetry registry: a worker's counter increments would either be
invisible to the parent (``spawn``) or double-book against a stale
``fork``-inherited copy of the registry, so workers compute and return,
and the parent credits the aggregate through
:func:`repro.crypto.rsa.record_keygens`.  ``tests/parallel`` asserts the
isolation by snapshotting a worker's registry before and after a batch.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from ..crypto.rsa import RsaPrivateKey, generate_keypair_raw
from .jobs import KeygenJob

__all__ = ["keygen_batch", "registry_probe"]

# The crypto counters whose isolation the probe reports on.
_PROBED_COUNTERS = (
    "repro_crypto_verify_total",
    "repro_crypto_keygen_total",
    "repro_crypto_sign_total",
)


def keygen_batch(jobs: Sequence[KeygenJob]) -> list[RsaPrivateKey]:
    """Keypairs for one chunk of keygen jobs, in submission order."""
    return [
        generate_keypair_raw(job.bits, random.Random(job.stream_seed))
        for job in jobs
    ]


def registry_probe(jobs: Iterable[object]) -> list[dict[str, float]]:
    """This process's crypto-counter totals, one snapshot per job.

    A test instrument, dispatched through the same pool as real batches:
    two probes bracketing a pile of keygen work must return equal
    snapshots, proving the worker functions never increment the (possibly
    fork-inherited) registry copy living in the worker process.
    """
    from ..telemetry import default_registry

    registry = default_registry()
    snapshot: dict[str, float] = {}
    for name in _PROBED_COUNTERS:
        counter = registry.get(name)
        if counter is None:
            snapshot[name] = 0.0
        elif counter.labelnames:
            snapshot[name] = sum(
                child.value for _labels, child in counter.samples()
            )
        else:
            snapshot[name] = counter.value()
    return [dict(snapshot) for _ in jobs]
