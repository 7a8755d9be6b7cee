"""Deterministic process-pool parallelism for keypair generation.

Building a model RPKI (:func:`repro.modelgen.build_deployment`) spends
most of its time in keypair generation — an embarrassingly parallel pile
of pure ~10 ms prime searches.  This package schedules them across a
``multiprocessing`` pool without giving up a single deterministic
property:

- :class:`WorkerPool` — a context-managed pool (never module-level; the
  telemetry lint enforces it) with chunked submission, strictly ordered
  result reassembly, in-parent exception propagation, and a serial
  in-process fallback for ``workers=0`` or platforms without a usable
  start method.
- :func:`prefill_keys` — fans a :class:`~repro.crypto.KeyFactory`'s
  independent per-index RNG streams out across the pool; builds stay
  byte-identical to serial ones.

Workers only ever run the uninstrumented ``*_raw`` crypto entry points;
the parent credits their work to its registry afterwards
(:func:`repro.crypto.rsa.record_keygens`), so telemetry stays
single-process truthful.  Signature verification is deliberately *not*
pooled: one verification is a ~20 µs modular exponentiation, smaller
than the cost of pickling its job (docs/performance.md has the
measurement that retired the verification pool).
"""

from .jobs import KeygenJob
from .pool import DEFAULT_CHUNK_JOBS, WorkerPool
from .prefill import prefill_keys
from .worker import keygen_batch, registry_probe

__all__ = [
    "DEFAULT_CHUNK_JOBS",
    "KeygenJob",
    "WorkerPool",
    "keygen_batch",
    "prefill_keys",
    "registry_probe",
]
