"""ROA whacking: the paper's attack taxonomy, planned and executed.

"We say that an RPKI manipulator *whacks* a target ROA, regardless whether
this is accomplished by a known method above or by a new method below"
(paper, Section 3).  The methods:

==========================  ======================================================
method                      paper reference
==========================  ======================================================
``REVOKE_CHILD_CERT``       Section 3.1 opening — the blunt instrument: revoke the
                            RC above the target, whacking its whole subtree.
``DELETE_OWN_ROA``          Side Effect 2 — the manipulator issued the ROA itself
                            and simply deletes (or transparently revokes) it.
``OVERWRITE_SHRINK``        Side Effect 3 — remove, from the RC chain above the
                            target, a hole of address space inside the target
                            ROA; if the hole overlaps nothing else, zero
                            collateral and zero reissues.
``MAKE_BEFORE_BREAK``       Figure 3 — when every candidate hole damages other
                            descendants, first reissue the damaged objects as
                            the manipulator's own, then shrink.
==========================  ======================================================

For targets deeper than grandchildren (Side Effect 4), ``OVERWRITE_SHRINK``
/ ``MAKE_BEFORE_BREAK`` generalize: shrinking the manipulator's direct
child RC damages the intermediate RC chain down to the target's issuer, and
every damaged certificate (and sibling ROA) must be suspiciously reissued —
"this whacking requires more suspiciously-reissued objects, and could be
easier to detect."

:func:`plan_whack` chooses the cheapest strategy and returns a
:class:`WhackPlan` with the full damage accounting *before* anything is
touched; :func:`execute_whack` applies it to the CA engines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..resources import Prefix
from ..rpki import CertificateAuthority, ResourceCertificate, Roa, cert_file_name
from ..rpki.roa import RoaPrefix
from .errors import WhackError

__all__ = [
    "WhackMethod",
    "DamagedObject",
    "WhackPlan",
    "plan_whack",
    "execute_whack",
    "find_hole",
    "collateral_of_revocation",
    "subtree_roas",
]

# How far below the target prefix's own length we search for a clean hole.
_MAX_HOLE_EXTRA_BITS = 8
# BGP practice bounds granularity at /24 for IPv4 (paper, Section 7) — but
# a *hole* need not be routable, so we allow down to /30 before giving up.
_MAX_HOLE_LENGTH_V4 = 30


class WhackMethod(enum.Enum):
    REVOKE_CHILD_CERT = "revoke-child-cert"
    DELETE_OWN_ROA = "delete-own-roa"
    OVERWRITE_SHRINK = "overwrite-shrink"
    MAKE_BEFORE_BREAK = "make-before-break"


@dataclass(frozen=True)
class DamagedObject:
    """One object invalidated as a consequence of a whack step."""

    kind: str            # "roa" or "rc"
    holder: str          # handle of the authority whose object it is
    description: str     # human-readable identity

    def __str__(self) -> str:
        return f"{self.kind} {self.description} (held by {self.holder})"


@dataclass
class WhackPlan:
    """A fully costed plan to whack one target ROA.

    ``collateral`` is what stays broken; ``reissued`` is what the
    manipulator must suspiciously republish as its own to avoid breaking
    it ("make-before-break").  A stealthy plan has empty collateral; a
    quiet one also has no reissues.
    """

    manipulator: CertificateAuthority
    target: Roa
    target_holder: CertificateAuthority
    method: WhackMethod
    hole: Prefix | None = None
    shrink_child: CertificateAuthority | None = None
    collateral: list[DamagedObject] = field(default_factory=list)
    reissued: list[DamagedObject] = field(default_factory=list)
    # Damaged intermediate RCs needing replacement (deep whacking).
    damaged_certs: list[ResourceCertificate] = field(default_factory=list)
    damaged_roas: list[tuple[CertificateAuthority, str, Roa]] = field(
        default_factory=list
    )

    @property
    def suspicious_reissue_count(self) -> int:
        return len(self.reissued)

    @property
    def collateral_count(self) -> int:
        return len(self.collateral)

    def describe(self) -> str:
        lines = [
            f"whack {self.target.describe()} held by "
            f"{self.target_holder.handle!r}",
            f"  manipulator : {self.manipulator.handle}",
            f"  method      : {self.method.value}",
        ]
        if self.hole is not None:
            lines.append(f"  hole        : {self.hole}")
        if self.reissued:
            lines.append(f"  reissued    : {len(self.reissued)} object(s)")
            lines.extend(f"    - {d}" for d in self.reissued)
        if self.collateral:
            lines.append(f"  collateral  : {len(self.collateral)} object(s)")
            lines.extend(f"    - {d}" for d in self.collateral)
        else:
            lines.append("  collateral  : none")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# analysis helpers
# ---------------------------------------------------------------------------


def subtree_roas(
    authority: CertificateAuthority,
) -> list[tuple[CertificateAuthority, str, Roa]]:
    """Every ROA issued in *authority*'s subtree, (holder, name, roa)."""
    return [(holder, name, roa) for holder in authority.subtree()
            for name, roa in holder.issued_roas.items()]


def collateral_of_revocation(
    child: CertificateAuthority, target: Roa | None
) -> list[DamagedObject]:
    """What revoking *child*'s RC whacks, beyond the target itself.

    For Figure 2: revoking Continental Broadband to kill the /20 target
    "would whack four additional ROAs as collateral damage."  With
    ``target=None`` everything in the subtree counts (pure reclamation).
    """
    damaged = []
    for holder, _name, roa in subtree_roas(child):
        if target is not None and roa == target:
            continue
        damaged.append(DamagedObject("roa", holder.handle, roa.describe()))
    for grandchild in child.children():
        damaged.append(DamagedObject(
            "rc", grandchild.handle,
            f"RC {grandchild.certificate.ip_resources}",
        ))
    return damaged


def _authority_chain(
    manipulator: CertificateAuthority, holder: CertificateAuthority
) -> list[CertificateAuthority]:
    """The path [manipulator, ..., holder]; raises if not an ancestor."""
    chain = [holder]
    current = holder
    while current is not manipulator:
        parent = current.parent
        if parent is None:
            raise WhackError(
                f"{manipulator.handle} is not an ancestor of {holder.handle}"
            )
        chain.append(parent)
        current = parent
    chain.reverse()
    return chain


def _subtree_objects(
    authority: CertificateAuthority,
) -> list[tuple[str, CertificateAuthority, object]]:
    """All (kind, holder, object) pairs in the subtree rooted at a child RC.

    Includes the authority's own RC, every descendant RC, and every ROA.
    """
    out: list[tuple[str, CertificateAuthority, object]] = []
    for holder in authority.subtree():
        out.append(("rc", holder, holder.certificate))
        out += [("roa", holder, roa) for roa in holder.issued_roas.values()]
    return out


def _overlaps_hole(kind: str, obj, hole: Prefix) -> bool:
    if kind == "rc":
        return obj.ip_resources.overlaps(hole)
    return any(rp.prefix.overlaps(hole) for rp in obj.prefixes)


def find_hole(
    shrink_child: CertificateAuthority,
    target: Roa,
) -> tuple[Prefix, list[tuple[str, CertificateAuthority, object]]]:
    """Choose the hole to punch and report what it damages.

    Scans subprefixes of the target's prefix, shortest (one hole the size
    of the whole ROA) to longest, and returns the candidate that damages
    the fewest other objects in the subtree under *shrink_child* (the
    manipulator's direct child whose RC will be overwritten).  The target
    itself is never counted as damage.
    """
    target_prefixes = [rp.prefix for rp in target.prefixes]
    objects = [
        (kind, holder, obj)
        for kind, holder, obj in _subtree_objects(shrink_child)
        if not (kind == "roa" and obj == target)
    ]

    best: tuple[Prefix, list] | None = None
    for base in target_prefixes:
        max_length = min(
            base.length + _MAX_HOLE_EXTRA_BITS,
            _MAX_HOLE_LENGTH_V4 if base.afi.bits == 32 else base.afi.bits,
        )
        # Longest candidates first: the smallest hole that cleanly whacks
        # the target removes the least address space from the child.
        for length in range(max_length, base.length - 1, -1):
            for candidate in base.subprefixes(length):
                damage = [
                    (kind, holder, obj)
                    for kind, holder, obj in objects
                    if _overlaps_hole(kind, obj, candidate)
                ]
                # The shrink target's own RC is overwritten deliberately,
                # not damaged.
                damage = [
                    d for d in damage
                    if not (d[0] == "rc" and d[1] is shrink_child)
                ]
                if not damage:
                    return candidate, damage
                if best is None or len(damage) < len(best[1]):
                    best = (candidate, damage)
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


def plan_whack(
    manipulator: CertificateAuthority,
    target: Roa,
    target_holder: CertificateAuthority,
) -> WhackPlan:
    """Plan the cheapest whack of *target* available to *manipulator*.

    Damage the hole cannot avoid is reissued (make-before-break), never
    left as collateral; the blunt alternative is revocation, measured by
    :func:`repro.experiments.revocation_collateral`.
    """
    if target_holder is manipulator:
        return WhackPlan(
            manipulator=manipulator,
            target=target,
            target_holder=target_holder,
            method=WhackMethod.DELETE_OWN_ROA,
        )

    chain = _authority_chain(manipulator, target_holder)
    shrink_child = chain[1]  # the manipulator's direct child on the path
    hole, damage = find_hole(shrink_child, target)

    damaged_certs = [obj for kind, _h, obj in damage if kind == "rc"]
    damaged_roas_raw = [(h, obj) for kind, h, obj in damage if kind == "roa"]
    damaged_roas: list[tuple[CertificateAuthority, str, Roa]] = []
    for holder, roa in damaged_roas_raw:
        for name, candidate in holder.issued_roas.items():
            if candidate == roa:
                damaged_roas.append((holder, name, roa))
                break

    method = (
        WhackMethod.OVERWRITE_SHRINK if not damage
        else WhackMethod.MAKE_BEFORE_BREAK
    )
    plan = WhackPlan(
        manipulator=manipulator,
        target=target,
        target_holder=target_holder,
        method=method,
        hole=hole,
        shrink_child=shrink_child,
        damaged_certs=damaged_certs,
        damaged_roas=damaged_roas,
    )

    described_certs = [
        DamagedObject("rc", cert.subject, f"RC {cert.ip_resources}")
        for cert in damaged_certs
    ]
    described_roas = [
        DamagedObject("roa", holder.handle, roa.describe())
        for holder, _n, roa in damaged_roas
    ]
    if method is WhackMethod.MAKE_BEFORE_BREAK:
        plan.reissued = described_certs + described_roas
    return plan


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def execute_whack(plan: WhackPlan) -> None:
    """Apply a plan to the CA engines: make (reissue) before break (shrink).

    After execution a relying party refresh will classify the target ROA's
    route per Section 4 — invalid if some covering ROA survives, unknown
    otherwise.
    """
    manipulator = plan.manipulator

    if plan.method is WhackMethod.DELETE_OWN_ROA:
        for name, roa in manipulator.issued_roas.items():
            if roa == plan.target:
                manipulator.delete_object(name)
                return
        raise WhackError("target ROA no longer issued by the manipulator")

    if plan.method is WhackMethod.REVOKE_CHILD_CERT:
        assert plan.shrink_child is not None
        manipulator.revoke_cert(plan.shrink_child.certificate)
        return

    assert plan.hole is not None and plan.shrink_child is not None

    # -- make: republish everything the hole would damage --------------------
    if plan.reissued:
        for holder, _name, roa in plan.damaged_roas:
            prefixes = [
                RoaPrefix(rp.prefix, rp.max_length) for rp in roa.prefixes
            ]
            manipulator.issue_roa(roa.asn, prefixes)
        for cert in plan.damaged_certs:
            # Re-certify the intermediate authority directly under the
            # manipulator, minus the hole, reusing its existing key so its
            # own products keep validating.
            shrunk = cert.ip_resources.subtract(plan.hole)
            replacement = manipulator._issue_rc(  # noqa: SLF001 - rogue issuance
                subject=cert.subject,
                subject_public_key=cert.subject_key,
                ip_resources=shrunk,
                as_resources=cert.as_resources,
                sia=cert.sia,
                validity=365 * 24 * 3600,
            )
            engine = plan.shrink_child.find_descendant(cert.subject)
            if engine is not None:
                engine.certificate = replacement

    # -- break: overwrite the direct child's RC without the hole ---------------
    new_resources = plan.shrink_child.certificate.ip_resources.subtract(plan.hole)
    manipulator.overwrite_child_cert(plan.shrink_child.key_id, new_resources)

    # The old intermediate RCs under the shrunken chain now overclaim and
    # would be rejected anyway; withdraw them so the replacement chain
    # (published by the manipulator) is what relying parties build on.
    for cert in plan.damaged_certs:
        issuer = _find_issuer(plan.shrink_child, cert)
        if issuer is not None:
            issuer.delete_object(cert_file_name(cert))


def _find_issuer(
    root: CertificateAuthority, cert: ResourceCertificate
) -> CertificateAuthority | None:
    """The authority in root's subtree that published *cert*."""
    name = cert_file_name(cert)
    return next(
        (ca for ca in root.subtree() if name in ca.issued_certs), None)
