"""Keypair prefill: fan a key factory's sequence out across the pool.

:func:`prefill_keys` serves :func:`repro.modelgen.build_deployment`.  A
:class:`~repro.crypto.KeyFactory` derives an independent RNG stream per
key index, so the next *n* keys of a factory's sequence are *n*
independent jobs; the pool generates them in any order and the factory
adopts each at its index, leaving the build byte-identical to the serial
one.  A keygen job is a ~10 ms prime search — large next to the cost of
pickling it, which is what makes it worth a process pool at all.
"""

from __future__ import annotations

from ..crypto.keys import KeyFactory
from ..crypto.rsa import record_keygens
from .jobs import KeygenJob
from .pool import WorkerPool
from .worker import keygen_batch

__all__ = ["prefill_keys"]


def prefill_keys(factory: KeyFactory, count: int, pool: WorkerPool) -> int:
    """Generate the next *count* keys of *factory*'s sequence via *pool*.

    Only indices absent from the factory's process-wide cache become
    jobs; each job carries its index's independent stream seed, so the
    generated keys are bit-identical to what serial
    :meth:`~repro.crypto.KeyFactory.next_keypair` calls would produce.
    Returns the number of keypairs actually generated.
    """
    missing = factory.missing_indices(count)
    if not missing:
        return 0
    jobs = [
        KeygenJob(bits=factory.bits, stream_seed=factory.stream_seed(index))
        for index in missing
    ]
    keys = pool.map_batches(keygen_batch, jobs)
    for index, private in zip(missing, keys):
        factory.adopt(index, private)
    record_keygens(len(missing))
    pool.metrics.counter(
        "repro_parallel_jobs_total",
        help="jobs dispatched to the worker pool, by kind",
        labelnames=("kind",),
    ).inc(len(missing), kind="keygen")
    return len(missing)
