"""Pickle-safe job descriptions for the process-pool scheduling layer.

A job carries *only* plain integers — no key objects with methods bound
to parent-process state — so the cost of shipping one to a worker is a
small pickle, and nothing about the parent's registries, caches, or
clocks leaks across the process boundary.  A job is a pure description:
executing the same job twice (or in two different processes) yields the
same answer, which is what lets :mod:`repro.parallel.pool` reassemble
results in submission order and guarantee output identical to the serial
path.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KeygenJob"]


@dataclass(frozen=True)
class KeygenJob:
    """One keypair of a :class:`~repro.crypto.KeyFactory` sequence.

    ``stream_seed`` is the factory's per-index RNG seed
    (:meth:`~repro.crypto.KeyFactory.stream_seed`), so each job is
    independent of every other — the property that makes keygen fan-out
    order-free and therefore reproducible at any worker count.
    """

    bits: int
    stream_seed: int
