"""Section 7's granularity observation, quantified.

"We note that these manipulations are more coarse-grained than domain
name seizures, because current BGP practices limit their granularity to a
/24 IPv4 prefix, i.e., 256 IPv4 addresses."

A domain seizure takes one name offline.  Whacking the ROA that protects
one *address* necessarily degrades the routing security of every address
sharing the target's ROA prefixes — and if the manipulator then wants the
target actually unreachable (through a covering ROA + drop-invalid), the
smallest independently routable unit is a /24.  This module computes, for
a target address inside a given VRP set, the *blast radius*: the set of
addresses whose routing security is disturbed along with the target.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..resources import Afi, Prefix, ResourceSet, parse_address
from ..rp import VRP, VrpSet

__all__ = ["MIN_ROUTABLE_V4", "BlastRadius", "whack_blast_radius"]

# "The smallest IPv4 prefix length which is globally routable in BGP is a
# /24" (paper, Section 2).
MIN_ROUTABLE_V4 = 24


@dataclass(frozen=True)
class BlastRadius:
    """Collateral scope of whacking the protection of one target address."""

    target: Prefix                      # the /32 (or /128) being targeted
    whacked_vrps: tuple[VRP, ...]       # every VRP that must die
    disturbed_addresses: int            # addresses losing ROA protection
    minimum_unreachable: int            # addresses in the smallest routable
                                        # unit containing the target

    @property
    def dns_seizure_equivalent(self) -> int:
        """How many "single names" (addresses) a domain seizure of the
        same target would affect: exactly one."""
        return 1

    def describe(self) -> str:
        vrp_text = ", ".join(str(v) for v in self.whacked_vrps) or "none"
        return (
            f"target {self.target}: whack {vrp_text}; "
            f"{self.disturbed_addresses} addresses lose protection; "
            f">= {self.minimum_unreachable} addresses in the smallest "
            "routable unit"
        )


def whack_blast_radius(target_address: str, vrps: VrpSet) -> BlastRadius:
    """Compute the collateral of de-protecting one address.

    Every VRP whose prefix covers the target must be whacked (any one of
    them keeps a covering/matching ROA alive); the disturbed address count
    is the size of the union of their prefixes.  The minimum unreachable
    unit is the routable floor — a /24 for IPv4, a /48 for IPv6 — because
    that is the finest hole a manipulator can usefully punch: the victim
    can re-issue ROAs for all of its remaining (still-certified) space,
    but nothing finer than the floor is globally routable, so at least
    one floor-sized block goes down with the target.
    """
    afi, value = parse_address(target_address)
    target = Prefix(afi, value, afi.bits)

    whacked = tuple(sorted(vrps.covering(target)))
    disturbed = ResourceSet.from_prefixes(v.prefix for v in whacked)

    floor_length = MIN_ROUTABLE_V4 if afi is Afi.IPV4 else 48
    minimum_unreachable = 1 << (afi.bits - floor_length)

    return BlastRadius(
        target=target,
        whacked_vrps=whacked,
        disturbed_addresses=disturbed.size,
        minimum_unreachable=minimum_unreachable,
    )
