"""Background RPKI churn: the noise a monitor must see through.

"Distinguishing between abusive behavior and normal RPKI churn could be
difficult" (paper, Section 3).  This module generates the churn side:
renewals, new customer ROAs, and retirements.  Retirements are usually
done properly (transparent revocation) but — with probability
``sloppy_delete_prob`` — an operator just deletes the file, which is
indistinguishable *locally* from a stealthy whack and is exactly what
makes the detection problem statistical rather than syntactic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..resources import Prefix, ResourceSet
from ..rpki import CertificateAuthority, IssuanceError

__all__ = ["ChurnConfig", "ChurnEvent", "ChurnEngine"]

# Length of the prefix a benign new ROA authorizes.
NEW_ROA_LENGTH = 24


@dataclass(frozen=True)
class ChurnConfig:
    """Per-tick probabilities of each benign operation (per authority)."""

    renew_rate: float = 0.3
    new_roa_rate: float = 0.15
    retire_rate: float = 0.1
    sloppy_delete_prob: float = 0.25   # retirements done without a CRL entry


@dataclass(frozen=True)
class ChurnEvent:
    """One benign operation the churn engine performed."""

    authority: str
    action: str      # "renew" | "new-roa" | "retire" | "sloppy-retire"
    subject: str

    def __str__(self) -> str:
        return f"{self.authority}: {self.action} {self.subject}"


class ChurnEngine:
    """Drives benign operations across a set of authorities."""

    def __init__(
        self,
        authorities: list[CertificateAuthority],
        *,
        config: ChurnConfig | None = None,
        seed: int = 0,
        protected: set[str] | None = None,
    ):
        self.authorities = list(authorities)
        self.config = config or ChurnConfig()
        self._rng = random.Random(seed)
        self.events: list[ChurnEvent] = []
        # ROA payloads (Roa.describe() strings) churn must never retire —
        # experiments use this to keep their attack targets alive.
        self.protected = set(protected or ())

    def tick(self) -> list[ChurnEvent]:
        """One epoch of background churn; returns what happened."""
        events: list[ChurnEvent] = []
        for authority in self.authorities:
            renewed = self._maybe_renew(authority)
            events.extend(renewed)
            events.extend(self._maybe_issue(authority))
            # An operator does not renew a ROA and retire it within the
            # same epoch; skip retirement of anything just renewed (a
            # renew-then-retire inside one observation interval would
            # orphan the old EE serial and look like a stealthy whack).
            just_renewed = {e.subject for e in renewed}
            events.extend(
                self._maybe_retire(authority, skip=just_renewed | self.protected)
            )
        self.events.extend(events)
        return events

    # -- operations ------------------------------------------------------------

    def _maybe_renew(self, authority: CertificateAuthority) -> list[ChurnEvent]:
        roas = list(authority.issued_roas)
        if not roas or self._rng.random() >= self.config.renew_rate:
            return []
        name = self._rng.choice(sorted(roas))
        try:
            roa = authority.renew_roa(name)
        except IssuanceError:
            # The authority's certificate no longer covers this ROA — its
            # space was reclaimed or whacked out from under it.  Renewal
            # fails exactly as it would for a real evicted tenant.
            return []
        return [ChurnEvent(authority.handle, "renew", roa.describe())]

    def _maybe_issue(self, authority: CertificateAuthority) -> list[ChurnEvent]:
        if self._rng.random() >= self.config.new_roa_rate:
            return []
        prefix = self._free_prefix(authority)
        if prefix is None:
            return []
        asn = self._rng.randrange(64512, 65535)  # a private-use customer AS
        _, roa = authority.issue_roa(asn, str(prefix))
        return [ChurnEvent(authority.handle, "new-roa", roa.describe())]

    def _maybe_retire(
        self,
        authority: CertificateAuthority,
        skip: set[str] = frozenset(),
    ) -> list[ChurnEvent]:
        roas = sorted(
            name for name in authority.issued_roas
            if authority.roa_named(name).describe() not in skip
        )
        if not roas or self._rng.random() >= self.config.retire_rate:
            return []
        name = self._rng.choice(roas)
        roa = authority.roa_named(name)
        if self._rng.random() < self.config.sloppy_delete_prob:
            authority.delete_object(name)
            return [ChurnEvent(authority.handle, "sloppy-retire", roa.describe())]
        authority.revoke_roa(name)
        return [ChurnEvent(authority.handle, "retire", roa.describe())]

    # -- helpers ----------------------------------------------------------------

    def _free_prefix(self, authority: CertificateAuthority) -> Prefix | None:
        """A prefix of the configured length inside the authority's space
        overlapping none of its current products (children RCs or ROAs)."""
        occupied = ResourceSet.empty()
        for cert in authority.issued_certs.values():
            occupied = occupied.union(cert.ip_resources)
        for roa in authority.issued_roas.values():
            occupied = occupied.union(
                ResourceSet.from_prefixes(rp.prefix for rp in roa.prefixes)
            )
        free = authority.resources.subtract(occupied)
        candidates = [
            p for p in free.prefixes()
            if p.length <= NEW_ROA_LENGTH
        ]
        if not candidates:
            return None
        block = self._rng.choice(candidates)
        subs = list(block.subprefixes(NEW_ROA_LENGTH))
        return self._rng.choice(subs[: min(len(subs), 64)])
