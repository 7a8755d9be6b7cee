"""Fault injection for RPKI object delivery.

Side Effect 6 turns on information going missing "for a variety of
reasons: the renewal of an expiring ROA could be delayed (accidentally or
maliciously); the filesystem or server storing the ROA could become
corrupted; etc."  This module is that variety of reasons, made explicit
and deterministic:

- targeted one-shot faults ("corrupt the next fetch of this file"), the
  trigger of the Section 6 transient-to-persistent scenario;
- seeded background fault rates, for the monitor's churn-vs-attack
  detectability experiments; and
- *timing* faults (:data:`FaultKind.DELAY`, :data:`FaultKind.STALL`,
  :data:`FaultKind.FLAKY`) that model the Stalloris-style availability
  attacks the resilience layer defends against: a publication point that
  answers slowly, hangs past any deadline, or fails the attempts a
  scheduled fault matches; and
- the *amplified* timing fault (:data:`FaultKind.AMPLIFY`): one
  misbehaving authority makes its entire delegation subtree slow at
  once.  Faults match by URI *prefix*, so a single AMPLIFY scheduled on
  an authority's base URI hits every delegated publication point under
  it — the Stalloris delegation-tree amplification, where the attacker
  multiplies a per-point slowdown by the number of children it mints
  (see ``DeploymentConfig(amplification_points=N)`` in
  :mod:`repro.modelgen`).  With ``delay_seconds > 0`` every matched
  point costs that many simulated seconds per attempt; with the default
  ``0`` every matched point stalls past any deadline, like STALL.

Schedule a fault with ``count=PERSISTENT`` to keep it firing forever —
how a deliberately stalling authority is modeled, as opposed to the
transient default of ``count=1``.

Beyond the availability and byte-level kinds, the *Byzantine* family
models a misbehaving authority (the paper's core threat) that serves
well-formed but semantically adversarial content:

- :data:`FaultKind.SPLIT_VIEW` — equivocation: different fetchers of the
  same URI see different (sub)sets of the published objects, selected by
  the fetcher's identity;
- :data:`FaultKind.MANIFEST_REPLAY` — a stale-but-signed past state of
  the whole point (old manifest *and* matching old files), hiding newer
  ROAs or resurrecting whacked ones;
- :data:`FaultKind.STALE_CRL` — only the CRL is served from a past
  state, suppressing fresh revocations;
- :data:`FaultKind.KEY_SWAP` — two objects served under each other's
  file names (valid signatures, wrong slots — manifest hashes catch it);
- :data:`FaultKind.OVERSIZED` — a file replaced by a deeply nested
  encoding far beyond the decoder's container-depth cap, the CURE-style
  crash vector the relying party's containment layer must quarantine.

Replay kinds draw on the publication point's checkpoint history (see
:meth:`repro.rpki.publication.InMemoryPublicationPoint.checkpoints`);
without history they degrade to a no-op rather than inventing content.
"""

from __future__ import annotations

import enum
import hashlib
import random
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from ..rpki.ca import CRL_FILE, MANIFEST_FILE

__all__ = [
    "PERSISTENT",
    "BYZANTINE_KINDS",
    "FaultKind",
    "Fault",
    "FaultInjector",
    "nested_bomb",
]

# Sentinel count for schedule(): the fault never exhausts (a deliberately
# misbehaving authority rather than a transient error).
PERSISTENT = -1

# Entries the applied log keeps: the newest this many, older ones fall
# off the front (counted in ``applied_dropped``).
APPLIED_LIMIT = 256


class FaultKind(enum.Enum):
    """What goes wrong with one fetched file (or one whole fetch)."""

    DROP = "drop"          # file silently absent from the fetch
    CORRUPT = "corrupt"    # random bytes flipped
    TRUNCATE = "truncate"  # tail cut off
    UNREACHABLE = "unreachable"  # the whole publication point fetch fails
    DELAY = "delay"        # the fetch succeeds but costs simulated seconds
    STALL = "stall"        # the fetch hangs past any deadline (Stalloris)
    FLAKY = "flaky"        # each matched attempt fails (retry can recover)
    AMPLIFY = "amplify"    # a whole delegation subtree turns slow at once
    # Byzantine authority kinds: well-formed, semantically adversarial.
    SPLIT_VIEW = "split-view"            # per-identity equivocation
    MANIFEST_REPLAY = "manifest-replay"  # stale-but-signed past state
    STALE_CRL = "stale-crl"              # only the CRL served from the past
    KEY_SWAP = "key-swap"                # two objects under swapped names
    OVERSIZED = "oversized"              # deeply nested decoder bomb


# Kinds that apply to a whole publication-point attempt, not to one file.
POINT_KINDS = frozenset({
    FaultKind.UNREACHABLE, FaultKind.DELAY, FaultKind.STALL, FaultKind.FLAKY,
    FaultKind.AMPLIFY,
})

# The timing kinds point_delay() consumes.  AMPLIFY is DELAY/STALL over a
# whole subtree: scheduled against an authority's base URI it matches every
# delegated point under that prefix, stalling (delay_seconds == 0) or
# delaying (delay_seconds > 0) each one.
_TIMING_KINDS = (FaultKind.DELAY, FaultKind.STALL, FaultKind.AMPLIFY)

# Kinds that rewrite the *content* of a whole assembled fetch (after the
# attempt survived the timing/availability kinds, before per-file kinds).
BYZANTINE_KINDS = frozenset({
    FaultKind.SPLIT_VIEW, FaultKind.MANIFEST_REPLAY, FaultKind.STALE_CRL,
    FaultKind.KEY_SWAP,
})

_LEN = struct.Struct(">I")

# How deep nested_bomb() nests its lists.
BOMB_DEPTH = 4000


def nested_bomb() -> bytes:
    """CTLV bytes of a list nested ``BOMB_DEPTH`` levels deep (~5 B/level).

    Structurally valid framing, so nothing rejects it for free — the
    decoder in :mod:`repro.crypto.encoding` starts walking and bails with
    a deterministic :class:`~repro.crypto.errors.EncodingError` at its
    explicit container-depth cap (``MAX_NESTING``, 64), long before 4000
    levels; historically this same payload blew Python's recursion limit.
    Either way the parse fails and containment must quarantine it.  This
    is the oversized/deeply-nested payload class of attack that CURE
    found crashing production relying parties.
    """
    data = b"N" + _LEN.pack(0)
    for _ in range(BOMB_DEPTH):
        data = b"L" + _LEN.pack(len(data)) + data
    return data


@dataclass
class Fault:
    """A scheduled fault: applies to *remaining* further matching fetches.

    ``remaining < 0`` (see :data:`PERSISTENT`) never exhausts.
    *delay_seconds* is the cost of a :data:`FaultKind.DELAY`.
    """

    kind: FaultKind
    uri_prefix: str          # matches any file URI starting with this
    remaining: int = 1       # one-shot by default (a *transient* error)
    file_name: str | None = None  # restrict to one file, else whole point
    delay_seconds: int = 0

    def matches(self, point_uri: str, file_name: str | None) -> bool:
        if self.remaining == 0:
            return False
        if not point_uri.startswith(self.uri_prefix):
            return False
        if self.file_name is not None and file_name != self.file_name:
            return False
        return True

    def consume(self) -> None:
        """Use up one occurrence (persistent faults never run out)."""
        if self.remaining > 0:
            self.remaining -= 1


@dataclass
class FaultInjector:
    """Deterministic fault source consulted by the fetcher.

    *background_rate* applies :class:`FaultKind.DROP` independently to
    each fetched file with the given probability, from a seeded stream —
    the "error-prone Internet" baseline.  Scheduled faults are exact, so
    the whole fault sequence is a pure function of the seed and the fetch
    order (``tests/repository/test_faults.py`` pins this).  The applied
    log keeps the newest :data:`APPLIED_LIMIT` entries.
    """

    seed: int = 0
    background_rate: float = 0.0
    _faults: list[Fault] = field(default_factory=list)
    _rng: random.Random = field(init=False)
    applied: "deque[tuple[str, str, FaultKind]]" = field(init=False)
    applied_dropped: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.background_rate <= 1.0:
            raise ValueError(f"bad background rate {self.background_rate}")
        self._rng = random.Random(self.seed)
        self.applied = deque(maxlen=APPLIED_LIMIT)

    def _record(self, point_uri: str, file_name: str, kind: FaultKind) -> None:
        """Append to the bounded applied log, counting what falls off."""
        if len(self.applied) == self.applied.maxlen:
            self.applied_dropped += 1
        self.applied.append((point_uri, file_name, kind))

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self,
        kind: FaultKind,
        point_uri: str,
        *,
        file_name: str | None = None,
        count: int = 1,
        delay_seconds: int = 0,
    ) -> Fault:
        """Schedule *count* occurrences of *kind* against a point or file.

        ``count=PERSISTENT`` never exhausts.  *delay_seconds* only makes
        sense for :data:`FaultKind.DELAY` and :data:`FaultKind.AMPLIFY`
        (where ``0`` means the whole subtree stalls).
        """
        if kind in (FaultKind.DELAY, FaultKind.AMPLIFY) and delay_seconds < 0:
            raise ValueError(f"bad delay {delay_seconds}")
        if kind in POINT_KINDS | BYZANTINE_KINDS and file_name is not None:
            raise ValueError(f"{kind.value} faults apply to whole points")
        fault = Fault(kind=kind, uri_prefix=point_uri, remaining=count,
                      file_name=file_name, delay_seconds=delay_seconds)
        self._faults.append(fault)
        return fault

    def clear(self) -> None:
        """Cancel all scheduled faults (background rate unaffected)."""
        self._faults.clear()

    # -- application (called by the fetcher) ------------------------------------

    def touches(self, point_uri: str) -> bool:
        """Could this plan act on a fetch of *point_uri* right now?

        True under a background rate, or when any scheduled fault of any
        kind — timing, availability, Byzantine or per-file — still
        matches the point.  Consumes nothing; a fetch it is False for
        sees exactly the point's contents.
        """
        if self.background_rate:
            return True
        return any(
            fault.remaining and point_uri.startswith(fault.uri_prefix)
            for fault in self._faults
        )

    def point_delay(self, point_uri: str) -> int | None:
        """Consume a timing fault due for this point, for one attempt.

        Returns the extra simulated seconds the attempt costs (``0`` when
        no timing fault is due), or ``None`` for a :data:`FaultKind.STALL`
        — the attempt hangs past *any* deadline the fetcher sets.  An
        :data:`FaultKind.AMPLIFY` behaves like a subtree-wide STALL
        (``delay_seconds == 0``) or DELAY (``> 0``): because faults match
        by URI prefix, one AMPLIFY on an authority's base URI makes every
        delegated point under it slow for the price of one entry.
        """
        for fault in self._faults:
            if fault.kind not in _TIMING_KINDS:
                continue
            if fault.matches(point_uri, None):
                fault.consume()
                self._record(point_uri, "", fault.kind)
                if fault.kind is FaultKind.STALL:
                    return None
                if fault.kind is FaultKind.AMPLIFY:
                    return fault.delay_seconds or None
                return fault.delay_seconds
        return 0

    def attempt_fails(self, point_uri: str) -> bool:
        """Consume a FLAKY fault for one attempt, which then fails."""
        for fault in self._faults:
            if fault.kind is FaultKind.FLAKY and fault.matches(point_uri, None):
                fault.consume()
                self._record(point_uri, "", fault.kind)
                return True
        return False

    def point_unreachable(self, point_uri: str) -> bool:
        """Consume an UNREACHABLE fault for this point, if one is due."""
        for fault in self._faults:
            if fault.kind is FaultKind.UNREACHABLE and fault.matches(point_uri, None):
                fault.consume()
                self._record(point_uri, "", fault.kind)
                return True
        return False

    def filter_file(
        self, point_uri: str, file_name: str, data: bytes
    ) -> bytes | None:
        """Pass one fetched file through the fault plan.

        Returns the (possibly damaged) bytes, or None if the file is
        dropped from the fetch entirely.
        """
        for fault in self._faults:
            if fault.kind in POINT_KINDS or fault.kind in BYZANTINE_KINDS:
                continue
            if fault.matches(point_uri, file_name):
                fault.consume()
                self._record(point_uri, file_name, fault.kind)
                return self._apply(fault.kind, data)
        if self.background_rate and self._rng.random() < self.background_rate:
            self._record(point_uri, file_name, FaultKind.DROP)
            return None
        return data

    def _apply(self, kind: FaultKind, data: bytes) -> bytes | None:
        if kind is FaultKind.DROP:
            return None
        if kind is FaultKind.CORRUPT:
            if not data:
                return b"\x00"
            damaged = bytearray(data)
            for _ in range(max(1, len(damaged) // 64)):
                index = self._rng.randrange(len(damaged))
                damaged[index] ^= 0xFF
            return bytes(damaged)
        if kind is FaultKind.TRUNCATE:
            return data[: len(data) // 2]
        if kind is FaultKind.OVERSIZED:
            return nested_bomb()
        raise AssertionError(f"unhandled fault kind {kind}")

    # -- Byzantine application (whole assembled fetch) -----------------------

    def filter_point(
        self,
        point_uri: str,
        files: dict[str, bytes],
        *,
        identity: str = "",
        history: Sequence[dict[str, bytes]] = (),
    ) -> dict[str, bytes]:
        """Rewrite one assembled fetch through the Byzantine fault plan.

        *identity* is the fetcher's identity string (SPLIT_VIEW serves
        different subsets to different identities); *history* the point's
        checkpoints, oldest first, for the replay kinds.  Applied after
        the timing/availability kinds and before the per-file kinds, so a
        replayed state can itself be corrupted downstream.
        """
        for fault in self._faults:
            if fault.kind not in BYZANTINE_KINDS:
                continue
            if fault.matches(point_uri, None):
                fault.consume()
                self._record(point_uri, "", fault.kind)
                files = self._apply_byzantine(
                    fault.kind, point_uri, files,
                    identity=identity, history=history,
                )
        return files

    def _apply_byzantine(
        self,
        kind: FaultKind,
        point_uri: str,
        files: dict[str, bytes],
        *,
        identity: str,
        history: Sequence[dict[str, bytes]],
    ) -> dict[str, bytes]:
        if kind is FaultKind.SPLIT_VIEW:
            # Equivocation: keep every other plain object, with the kept
            # parity derived from (identity, point) — stable per fetcher,
            # different across fetchers.  CRL and manifest always served,
            # so the view looks healthy until cross-checked.
            seed = hashlib.sha256(f"{identity}|{point_uri}".encode()).digest()
            parity = seed[0] % 2
            objects = sorted(
                name for name in files if name not in (CRL_FILE, MANIFEST_FILE)
            )
            dropped = {
                name for index, name in enumerate(objects)
                if index % 2 != parity
            }
            return {k: v for k, v in files.items() if k not in dropped}
        if kind is FaultKind.MANIFEST_REPLAY:
            # Serve the newest past state that differs from the current
            # one: stale-but-signed manifest plus its matching files —
            # internally consistent, semantically outdated.
            past = self._stale_state(files, history)
            return dict(past) if past is not None else files
        if kind is FaultKind.STALE_CRL:
            past = self._stale_state(files, history)
            if past is None:
                return files
            old_crl = past.get(CRL_FILE)
            if old_crl is None or old_crl == files.get(CRL_FILE):
                return files
            served = dict(files)
            served[CRL_FILE] = old_crl
            return served
        if kind is FaultKind.KEY_SWAP:
            objects = sorted(
                name for name in files if name not in (CRL_FILE, MANIFEST_FILE)
            )
            if len(objects) < 2:
                return files
            served = dict(files)
            first, second = objects[0], objects[1]
            served[first], served[second] = served[second], served[first]
            return served
        raise AssertionError(f"unhandled byzantine kind {kind}")

    @staticmethod
    def _stale_state(
        current: dict[str, bytes], history: Sequence[dict[str, bytes]]
    ) -> dict[str, bytes] | None:
        """The newest checkpoint differing from *current*, if any."""
        for past in reversed(list(history)):
            if past != current:
                return past
        return None
