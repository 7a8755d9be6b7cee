"""Side Effect 1: unilateral reclamation of IP address space.

"RPKI design gives a landlord unilateral power to evict a tenant...  The
RPKI's hierarchical nature also means that the holder of the reclaimed
space has little recourse available, since its space may only be reissued
by authorities holding supersets of the reclaimed space" (paper,
Section 3).

:func:`reclaim_space` performs the eviction through the CA engine (it is
just revocation plus reallocation — that is the point: no new mechanism is
needed), and :func:`reissuance_candidates` computes the victim's recourse
set: exactly the ancestors on the allocation chain, in stark contrast with
the web PKI where any CA could re-certify anyone.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..resources import Prefix, ResourceSet
from ..rpki import CertificateAuthority, cert_file_name
from .errors import ScenarioError
from .whack import DamagedObject, collateral_of_revocation, subtree_roas

__all__ = ["ReclamationReport", "reclaim_space", "reissuance_candidates"]


@dataclass
class ReclamationReport:
    """The accounting of one unilateral reclamation."""

    landlord: str
    tenant: str
    reclaimed: ResourceSet
    whacked_roas: list[DamagedObject]
    recourse: list[str]   # handles of authorities that could reissue

    def describe(self) -> str:
        lines = [
            f"{self.landlord} reclaimed {self.reclaimed} from {self.tenant}",
            f"  ROAs whacked : {len(self.whacked_roas)}",
        ]
        lines.extend(f"    - {d}" for d in self.whacked_roas)
        if self.recourse:
            lines.append(
                "  reissuance possible only by: " + ", ".join(self.recourse)
            )
        else:
            lines.append("  no authority can reissue this space")
        return "\n".join(lines)


def reclaim_space(
    landlord: CertificateAuthority,
    tenant: CertificateAuthority,
    *,
    roots: list[CertificateAuthority] | None = None,
) -> ReclamationReport:
    """Evict *tenant*: revoke its RC, taking back its whole allocation.

    Returns the report of everything whacked and who could make the
    tenant whole again.  (Partial reclamation — taking back a subset —
    is ``landlord.overwrite_child_cert`` with the shrunken set; this
    function models the full eviction the paper leads with.)
    """
    if tenant.parent is not landlord:
        raise ScenarioError(
            f"{landlord.handle} is not the direct parent of {tenant.handle}"
        )
    reclaimed = tenant.certificate.ip_resources
    # Account the damage before pulling the trigger.
    whacked = [
        DamagedObject("roa", holder.handle, roa.describe())
        for holder, _name, roa in subtree_roas(tenant)
    ]
    whacked += [
        d for d in collateral_of_revocation(tenant, target=None)
        if d.kind == "rc"
    ]
    landlord.revoke_cert(tenant.certificate)
    recourse = (
        [ca.handle for ca in reissuance_candidates(roots, reclaimed)]
        if roots is not None
        else [landlord.handle]
    )
    return ReclamationReport(
        landlord=landlord.handle,
        tenant=tenant.handle,
        reclaimed=reclaimed,
        whacked_roas=[d for d in whacked if d.kind == "roa"],
        recourse=recourse,
    )


def reissuance_candidates(
    roots: list[CertificateAuthority],
    space: ResourceSet | Prefix,
) -> list[CertificateAuthority]:
    """Every authority whose current resources cover *space*.

    This is the victim's entire recourse set: in the RPKI, only holders
    of supersets of the reclaimed space can reissue it.  The list is the
    ancestor chain (plus any unrelated holder of a superset, which the
    strict hierarchy makes impossible in practice).
    """
    if isinstance(space, Prefix):
        space = ResourceSet.parse(str(space))
    candidates: list[CertificateAuthority] = []

    def still_certified(authority: CertificateAuthority) -> bool:
        """An evicted authority holds no power: its RC must still be
        published by its parent to count."""
        parent = authority.parent
        if parent is None:
            return True
        return cert_file_name(authority.certificate) in parent.issued_certs

    def visit(authority: CertificateAuthority) -> None:
        if not still_certified(authority):
            return  # the whole subtree lost its standing
        if authority.resources.covers(space):
            candidates.append(authority)
        for child in authority.children():
            visit(child)

    for root in roots:
        visit(root)
    return candidates
