"""The relying party's local cache of fetched RPKI objects.

Route validity is computed from "a local cache of the complete set of
valid ROAs" (RFC 6483, quoted in the paper's Section 2).  The cache is
therefore the exact place where *missing* information becomes *wrong*
routing decisions: whatever did not make it here — whacked, expired,
corrupted in transit, or unreachable — simply does not exist as far as
origin validation is concerned.

A policy knob controls what a failed refresh does to previously cached
data.  ``keep_stale=True`` (the default, matching deployed relying-party
software) retains the last good copy; ``False`` models an RP that drops
state it cannot re-validate — the brittle end of the paper's tradeoff.

The *grace window* (``stale_grace``) bounds how long a kept-stale copy
keeps being served: within the window a point is classified
:data:`CacheFreshness.STALE` and still feeds the validator (the fallback
that defeats a short outage); beyond it the point is
:data:`CacheFreshness.EXPIRED` and is withheld — the observable moment a
Stalloris-style sustained stall finally downgrades routes to *unknown*.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..crypto import sha256_hex
from ..telemetry import MetricsRegistry, default_registry
from .fetch import FetchResult, FetchStatus

__all__ = ["CacheFreshness", "CachedPoint", "LocalCache", "point_digest"]


def point_digest(files: dict[str, bytes]) -> str:
    """Content digest of one publication point's file set.

    Hashes file names and bytes in sorted order, so the digest is equal
    exactly when the served content is byte-for-byte equal — the
    content-address the incremental validator keys its per-point reuse
    on (see :mod:`repro.rp.incremental`).
    """
    parts: list[bytes] = []
    for name in sorted(files):
        data = files[name]
        parts.append(name.encode("utf-8"))
        parts.append(len(data).to_bytes(8, "big"))
        parts.append(data)
    return sha256_hex(b"\x00".join(parts))


class CacheFreshness(enum.Enum):
    """How trustworthy the cache's copy of one point currently is."""

    FRESH = "fresh"      # the newest fetch attempt succeeded
    STALE = "stale"      # newest attempt failed; last good copy within grace
    EXPIRED = "expired"  # last good copy older than the grace window
    NEVER = "never"      # no successful fetch yet — nothing to serve


@dataclass
class CachedPoint:
    """The cache's view of one publication point."""

    uri: str
    files: dict[str, bytes] = field(default_factory=dict)
    last_attempt: int = -1
    last_success: int = -1
    last_status: FetchStatus = FetchStatus.OK
    # Content digest of ``files``, maintained by LocalCache.update() so
    # consumers (the incremental validator) never re-hash unchanged points.
    content_digest: str = ""
    # The point's (session, revision) ``files`` is the faithful copy of;
    # None when unknown or when a fault may have rewritten the bytes.
    serial: tuple[int, int] | None = None

    @property
    def stale(self) -> bool:
        """True if the newest attempt did not succeed."""
        return self.last_attempt != self.last_success

    def freshness(self, now: int, grace: int | None = None) -> CacheFreshness:
        """Classify this entry at *now* under a grace window (None = ∞)."""
        if self.last_success < 0:
            return CacheFreshness.NEVER
        if not self.stale:
            return CacheFreshness.FRESH
        if grace is None or now - self.last_success <= grace:
            return CacheFreshness.STALE
        return CacheFreshness.EXPIRED


class LocalCache:
    """Per-relying-party storage of fetched publication points.

    *stale_grace* is the grace window in simulated seconds: how long
    after its last successful fetch a stale point keeps being served
    (:meth:`serve`, :meth:`snapshot`).  ``None`` (the
    default) serves stale copies forever, the pre-grace behavior.
    """

    def __init__(
        self,
        *,
        keep_stale: bool = True,
        stale_grace: int | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if stale_grace is not None and stale_grace < 0:
            raise ValueError(f"bad grace window {stale_grace}")
        self.keep_stale = keep_stale
        self.stale_grace = stale_grace
        self._points: dict[str, CachedPoint] = {}
        # The URIs whose served copy may differ from what :meth:`read`
        # last handed out: a new digest, a copy that became servable or
        # stopped being servable.  A stale copy stays here, as what it
        # serves moves with the clock.
        self.changed: set[str] = set()
        # Freshness per URI as of the entry's last change, in URI order
        # while ``_sorted``; only the stale entries' (``_stale``) moves
        # with the clock.
        self._freshness: dict[str, CacheFreshness] = {}
        self._stale: set[str] = set()
        self._sorted = True
        self.metrics = metrics if metrics is not None else default_registry()
        updates = self.metrics.counter(
            "repro_cache_updates_total",
            help="fetch results folded into the cache, by effect",
            labelnames=("effect",),
        )
        self._m_hit, self._m_stale_keep, self._m_evict = (
            updates.bind(effect=e) for e in ("hit", "stale_keep", "evict"))
        self._unchanged = updates.tally(effect="unchanged")
        self._m_points = self.metrics.gauge(
            "repro_cache_points", help="publication points currently cached"
        ).bind()
        self._m_stale_serves = self.metrics.counter(
            "repro_cache_stale_serves_total",
            help="stale points served to the validator within the grace "
                 "window (once per point read; a refresh reads each stale "
                 "point it walks once)",
        )
        self._m_expired = self.metrics.counter(
            "repro_cache_expired_drops_total",
            help="points withheld from the validator: grace window exceeded "
                 "(once per point read)",
        )

    def update(self, result: FetchResult) -> CachedPoint:
        """Fold one fetch result into the cache.

        A not-modified result (``result.unchanged``) only stamps the
        entry: its files are current.  Otherwise a successful result's
        file dict is adopted as the entry's own, unless equal to it.
        """
        uri = result.uri
        entry = self._points.get(uri)
        if entry is None:
            entry = self._points[uri] = CachedPoint(uri=uri)
            self._sorted = False
            self._m_points.set(len(self._points))
        was_stale = entry.last_attempt != entry.last_success
        digest = entry.content_digest
        entry.last_attempt = result.fetched_at
        entry.last_status = result.status
        if result.unchanged:
            entry.last_success = result.fetched_at
            self._unchanged[0] += 1
        elif result.ok:
            if result.files != entry.files or not entry.content_digest:
                entry.files = result.files
                entry.content_digest = point_digest(entry.files)
            entry.serial = result.serial
            entry.last_success = result.fetched_at
            self._m_hit.inc()
        elif self.keep_stale:
            # Failed refresh, last good copy kept — the paper's deployed-RP
            # default, and the state Stalloris-style attacks try to force.
            self._m_stale_keep.inc()
        else:
            entry.files = {}
            entry.content_digest = ""
            entry.serial = None
            self._m_evict.inc()
        stale = entry.last_attempt != entry.last_success
        if was_stale or stale or entry.content_digest != digest:
            self.changed.add(uri)
            self._freshness[uri] = entry.freshness(
                result.fetched_at, self.stale_grace)
            if stale:
                self._stale.add(uri)
            else:
                self._stale.discard(uri)
        return entry

    def point(self, uri: str) -> CachedPoint | None:
        return self._points.get(uri)

    def points(self) -> list[CachedPoint]:
        return [self._points[uri] for uri in sorted(self._points)]

    def classify(self, now: int) -> dict[str, CacheFreshness]:
        """Freshness of every cached point at *now*, sorted by URI.

        Kept as the cache is updated: only a stale entry's freshness is
        worked out again here, as only it moves with *now*.
        """
        freshness = self._freshness
        if not self._sorted:
            freshness = self._freshness = dict(sorted(freshness.items()))
            self._sorted = True
        for uri in self._stale:
            freshness[uri] = self._points[uri].freshness(now, self.stale_grace)
        return dict(freshness)

    def _servable(
        self, entry: CachedPoint, now: int | None, *, count: bool = True
    ) -> bool:
        """The one serving rule: may a validator read *entry* at *now*?

        Points that have *never* been fetched successfully are not
        servable — to the validator they are missing, not empty, which
        matters for the paper's missing-information analysis.  When
        *now* is given the grace window is enforced: stale-but-in-grace
        points are served, expired points withheld, and (with *count*)
        each decision bumps its counter once.  ``now=None`` keeps the
        legacy serve-everything behavior.
        """
        if entry.last_success < 0:
            return False
        if now is None:
            return True
        freshness = entry.freshness(now, self.stale_grace)
        if freshness is CacheFreshness.EXPIRED:
            if count:
                self._m_expired.inc()
            return False
        if freshness is CacheFreshness.STALE and count:
            self._m_stale_serves.inc()
        return True

    def serve(self, uri: str, now: int | None = None) -> CachedPoint | None:
        """The cached copy of *uri* a validator may read at *now*, if any.

        A refresh reads each publication point it walks through here,
        once, so the stale-serve and expired-drop counters count points
        per refresh.  The returned entry's ``files`` dict is the cache's
        own — read it, do not mutate it.
        """
        entry = self._points.get(uri)
        if entry is None or not self._servable(entry, now):
            return None
        return entry

    def read(
        self,
        uris: Iterable[str],
        now: int,
        files: dict[str, dict[str, bytes]],
        digests: dict[str, str],
    ) -> list[str]:
        """Bring a reader's view of *uris* up to date at *now*.

        *files* and *digests* are the view: per URI the file dict and
        content digest :meth:`serve` handed out when it was last read,
        and nothing for a URI that was not servable.  Each URI is served
        once (counters included) and taken off :attr:`changed` unless
        its copy is stale.  Returns the URIs whose view entry moved.
        """
        moved = []
        for uri in uris:
            entry = self.serve(uri, now)
            if entry is None:
                if uri in digests:
                    del files[uri], digests[uri]
                    moved.append(uri)
            else:
                files[uri] = entry.files
                if digests.get(uri) != entry.content_digest:
                    digests[uri] = entry.content_digest
                    moved.append(uri)
            if uri not in self._stale:
                self.changed.discard(uri)
        return moved

    def snapshot(self, now: int | None = None) -> dict[str, dict[str, bytes]]:
        """Everything servable at *now*, without copying a file dict.

        Same serving rule and counters as :meth:`serve`, once per cached
        point; the values are the cache's own file dicts: read them, do
        not mutate them or hold them across cache updates.
        """
        return {
            uri: entry.files
            for uri, entry in self._points.items()
            if self._servable(entry, now)
        }

    def digests(self, now: int | None = None) -> dict[str, str]:
        """Content digest of every point :meth:`snapshot` would serve.

        Mirrors the serving rules without touching the stale/expired
        counters, which belong to the actual serve.  The digests are
        maintained incrementally by :meth:`update`, so this is O(points),
        not O(bytes).
        """
        return {
            uri: entry.content_digest
            for uri, entry in self._points.items()
            if self._servable(entry, now, count=False)
        }

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, uri: str) -> bool:
        return uri in self._points
