"""BGP origin attacks: prefix and subprefix hijacks.

"The most devastating attacks on interdomain routing with BGP; namely,
prefix and subprefix hijacks, where an AS originates routes for IP
prefixes that it is not authorized to originate" (paper, Section 1).
These are the attacks the RPKI exists to stop — the *original* threat
model, against which Table 6 weighs the flipped one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..resources import ASN, Prefix
from .propagation import Origination

__all__ = ["Hijack", "subprefix_hijack"]


@dataclass(frozen=True)
class Hijack:
    """A hijack scenario: the victim's origination plus the attacker's."""

    victim: Origination
    attack: Origination

    @property
    def originations(self) -> list[Origination]:
        return [self.victim, self.attack]

    @property
    def attacker(self) -> ASN:
        return self.attack.origin

    def describe(self) -> str:
        return (
            f"{self.attack.origin} hijacks {self.attack.prefix} "
            f"from {self.victim.origin} ({self.victim.prefix})"
        )


def subprefix_hijack(
    victim_prefix: str | Prefix,
    victim: ASN | int,
    attacker: ASN | int,
) -> Hijack:
    """The attacker originates a subprefix of the victim's prefix.

    Without RPKI filtering this wins *everywhere*: longest-prefix-match
    forwarding prefers the more specific route at every hop.  The
    attacker announces the low half (one bit longer).
    """
    prefix = (
        victim_prefix if isinstance(victim_prefix, Prefix)
        else Prefix.parse(victim_prefix)
    )
    return Hijack(
        victim=Origination(prefix, ASN(int(victim))),
        attack=Origination(prefix.children()[0], ASN(int(attacker))),
    )
