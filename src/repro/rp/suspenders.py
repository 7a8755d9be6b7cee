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
    Retention is judged on the relying party's own clock, the one its
    validity checks run on.
    """

    def __init__(self, rp: RelyingParty, *, grace_seconds: int):
        if grace_seconds <= 0:
            raise ValueError(f"grace period must be positive: {grace_seconds}")
        self.rp = rp
        self.grace_seconds = grace_seconds
        self._clock = rp.clock
        self._retained: dict[VRP, RetainedVrp] = {}
        # The previous run's evidence: vrp -> (ee_serial, not_after, point).
        self._provenance: dict[VRP, tuple[int, int, str]] = {}

    # -- refresh cycle -------------------------------------------------------

    def refresh(self) -> RefreshReport:
        report = self.rp.refresh()
        now = self._clock.now
        natural = report.run.vrps
        # The CRL the validator judged each point against, verified under
        # the key of a CA this run validated: whoever can delete a ROA
        # can drop any bytes named ``ca.crl`` beside the hole, and those
        # never get here (``crl-bad-signature``).
        crls = report.run.crls

        def revoked(point: str, ee_serial: int) -> bool:
            crl = crls.get(point)
            return crl is not None and crl.is_revoked(ee_serial)

        # Which previously known VRPs vanished this cycle, unexpired?
        vanished = {
            vrp: evidence for vrp, evidence in self._provenance.items()
            if vrp not in natural and vrp not in self._retained
            and evidence[1] >= now  # natural expiry: honored immediately
        }

        for vrp, (ee_serial, not_after, point) in vanished.items():
            if revoked(point, ee_serial):
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
            elif revoked(entry.home_point, entry.ee_serial):
                del self._retained[vrp]  # authority followed up properly

        # Update provenance from the rows this run's ROAs left.
        self._provenance = {
            vrp: (row.ee_serial, row.not_after, point)
            for point, rows in report.run.roas
            for _, row in rows
            for vrp in row.vrps
        }
        return report

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
