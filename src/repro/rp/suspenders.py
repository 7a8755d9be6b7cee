"""A Suspenders-style fail-safe against unauthorized whacking.

The paper points to "Suspenders: A Fail-safe Mechanism for the RPKI"
(Kent & Mandelberg, IETF draft, its reference [25]) as a concurrent step
toward hardening the RPKI against the very manipulations Sections 3-4
describe.  The idea, reproduced here in relying-party form:

    A relying party remembers the ROAs it has previously validated.  When
    a ROA *disappears* without corroboration — no CRL entry for its EE
    certificate, no natural expiry — the disappearance is treated as a
    potential manipulation and the old ROA's payload is kept in force for
    a configurable grace period.

This directly blunts every stealthy whack in the taxonomy (deletion,
overwrite-shrink, make-before-break): the victim's routes stay valid for
the grace window, buying time for the out-of-band dispute the paper says
targets otherwise lack.  Transparent revocations (CRL-backed) and natural
expiries still take effect immediately — the fail-safe defers only to
*evidence*.

The cost is the flip side the paper predicts for any such mechanism: a
legitimate-but-sloppy removal (no CRL entry) also lingers for the grace
period, so the fail-safe trades attack robustness against responsiveness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..repository.uri import RsyncUri
from ..rpki.ca import CRL_FILE
from ..rpki.crl import Crl
from ..rpki.errors import ObjectFormatError
from ..rpki.parse import parse_object
from .origin import validate
from .relying_party import RefreshReport, RelyingParty
from .states import Route, RouteValidity
from .vrp import VRP, VrpSet

__all__ = ["RetainedVrp", "SuspendersRelyingParty"]


@dataclass
class RetainedVrp:
    """One VRP kept alive past its ROA's disappearance."""

    vrp: VRP
    retained_since: int
    expires_at: int          # min(roa.not_after, retained_since + grace)
    home_point: str
    ee_serial: int           # for late CRL corroboration checks
    reason: str              # why the disappearance looked uncorroborated

    def active(self, now: int) -> bool:
        return now <= self.expires_at


class SuspendersRelyingParty:
    """Wraps a :class:`RelyingParty` with the retain-on-whack fail-safe.

    Use exactly like a relying party: :meth:`refresh` then
    :meth:`classify`.  The effective VRP set is the natural validation
    output plus any retained VRPs still inside their grace window.
    """

    def __init__(self, rp: RelyingParty, clock, *, grace_seconds: int):
        if grace_seconds <= 0:
            raise ValueError(f"grace period must be positive: {grace_seconds}")
        self.rp = rp
        self.grace_seconds = grace_seconds
        self._clock = clock
        self._retained: dict[VRP, RetainedVrp] = {}
        # The previous run's evidence: vrp -> (ee_serial, not_after, point).
        self._provenance: dict[VRP, tuple[int, int, str]] = {}

    # -- refresh cycle -------------------------------------------------------

    def refresh(self) -> RefreshReport:
        report = self.rp.refresh()
        now = self._clock.now
        natural = report.run.vrps

        # Which previously known VRPs vanished this cycle, unexpired?
        vanished = {
            vrp: evidence for vrp, evidence in self._provenance.items()
            if vrp not in natural and vrp not in self._retained
            and evidence[1] >= now  # natural expiry: honored immediately
        }
        revoked_by_point = self._verified_revocations(
            {point for _, _, point in vanished.values()}
            | {entry.home_point for entry in self._retained.values()},
            report.run.validated_cas, now,
        )

        for vrp, (ee_serial, not_after, point) in vanished.items():
            if ee_serial in revoked_by_point[point]:
                continue  # transparent revocation: honored immediately
            self._retained[vrp] = RetainedVrp(
                vrp=vrp,
                retained_since=now,
                expires_at=min(not_after, now + self.grace_seconds),
                home_point=point,
                ee_serial=ee_serial,
                reason="disappeared without CRL corroboration",
            )

        # Prune: reappeared naturally, since-corroborated, or grace over.
        for vrp in list(self._retained):
            entry = self._retained[vrp]
            if vrp in natural or not entry.active(now):
                del self._retained[vrp]
            elif entry.ee_serial in revoked_by_point[entry.home_point]:
                del self._retained[vrp]  # authority followed up properly

        # Update provenance from the evidence this run's ROAs left.
        self._provenance = {
            vrp: (roa.ee_serial, roa.not_after, point)
            for point, evidence in report.run.roas
            for roa in evidence
            for vrp in roa.vrps
        }
        return report

    def _verified_revocations(
        self, points: set[str], validated_cas, now: int
    ) -> dict[str, frozenset[int]]:
        """Per point in *points*, the serials its cached CRL revokes.

        A CRL corroborates a disappearance only if it verifies under the
        key of a CA this run validated for that point: whoever can delete
        a ROA from a publication point can drop any bytes named
        ``ca.crl`` beside the hole, and the validator rejects those same
        bytes (``crl-bad-signature``).
        """
        revoked: dict[str, frozenset[int]] = dict.fromkeys(points, frozenset())
        if not points:
            return revoked
        keys: dict[str, list] = {}
        for ca in validated_cas:
            for uri in ca.all_publication_uris:
                keys.setdefault(str(RsyncUri.parse(uri)), []).append(
                    ca.subject_key
                )
        for point in points:
            entry = self.rp.cache.serve(point, now)
            data = None if entry is None else entry.files.get(CRL_FILE)
            if data is None:
                continue
            try:
                crl = parse_object(data)
            except ObjectFormatError:
                continue
            if isinstance(crl, Crl) and any(
                crl.verify_signature(key) for key in keys.get(point, ())
            ):
                revoked[point] = crl.revoked_serials
        return revoked

    # -- classification surface -------------------------------------------------

    @property
    def retained(self) -> list[RetainedVrp]:
        """Currently active retentions (the fail-safe's working set)."""
        now = self._clock.now
        return [r for r in self._retained.values() if r.active(now)]

    @property
    def vrps(self) -> VrpSet:
        """Natural VRPs plus retained ones still in grace."""
        now = self._clock.now
        effective = VrpSet(self.rp.vrps)
        for entry in self._retained.values():
            if entry.active(now):
                effective.add(entry.vrp)
        return effective

    def classify(self, route: Route) -> RouteValidity:
        return validate(route.prefix, route.origin, self.vrps).state

    def classify_parts(self, prefix_text: str, origin: int) -> RouteValidity:
        return self.classify(Route.parse(prefix_text, origin))
