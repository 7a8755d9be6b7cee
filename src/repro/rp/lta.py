"""Local trust-anchor overrides (the paper's reference [7]).

"RPKI Local Trust Anchor Use Cases" (Bush, IETF draft) describes relying
parties that locally override the global RPKI: pinning bindings they know
to be right, and distrusting bindings they believe to be the product of
manipulation.  This is the relying party's unilateral answer to the
paper's flipped threat model — if an authority above you can whack your
ROA, *your own routers* can be configured to keep believing it.

The model here is deliberately small and composable: a
:class:`LocalOverrides` value amends a validated VRP set — pins add
VRPs and :class:`PrefixFilter` filters remove every VRP they match —
and :func:`classify_with_overrides` applies the whole thing to one
route, reading only the VRPs that cover it.  Both halves round-trip
through the SLURM file (RFC 8416) of :meth:`LocalOverrides.to_dict`.
Overrides are local policy: they protect (or endanger) only the relying
party that configures them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..resources import ASN, Prefix
from .origin import validate
from .states import Route, RouteValidity
from .vrp import VRP, VrpSet

__all__ = ["LocalOverrides", "PrefixFilter", "classify_with_overrides"]


class PrefixFilter(NamedTuple):
    """One RFC 8416 prefix filter: a prefix, an origin ASN, or both.

    It drops every VRP whose prefix is the filter's or more specific and
    whose origin is the filter's (section 3.3.1); a field it leaves out
    (``None``) matches every VRP, whatever its maxLength.
    """

    prefix: Prefix | None
    asn: ASN | None

    @classmethod
    def parse(cls, prefix: str | None, asn: int | None) -> "PrefixFilter":
        """The filter of an entry's ``prefix`` text and ``asn`` number."""
        if prefix is None and asn is None:
            raise ValueError("a prefix filter names a prefix, an ASN or both")
        return cls(
            None if prefix is None else Prefix.parse(prefix),
            None if asn is None else ASN(asn),
        )

    def drops(self, vrp: VRP) -> bool:
        return (self.asn is None or vrp.asn == self.asn) and (
            self.prefix is None or self.prefix.covers(vrp.prefix)
        )

    def to_dict(self) -> dict:
        """The RFC 8416 entry: the fields the filter names, no others."""
        entry: dict = {}
        if self.prefix is not None:
            entry["prefix"] = str(self.prefix)
        if self.asn is not None:
            entry["asn"] = int(self.asn)
        return entry


@dataclass
class LocalOverrides:
    """An operator's local amendments to the validated ROA set.

    - ``pinned``: VRPs always present, whatever the RPKI currently says —
      the anti-whacking pin.
    - ``filtered``: :class:`PrefixFilter` filters, each removing every
      VRP it matches — local distrust of bindings believed to be
      manipulated (e.g. a hijacker's suspicious new ROAs).
    """

    pinned: list[VRP] = field(default_factory=list)
    filtered: list[PrefixFilter] = field(default_factory=list)

    # -- fluent construction ------------------------------------------------

    def pin(self, prefix_text: str, asn: int) -> "LocalOverrides":
        """Pin a VRP (paper notation: ``pin("63.174.16.0/20-24", 17054)``)."""
        self.pinned.append(VRP.parse(prefix_text, asn))
        return self

    def filter(
        self, prefix_text: str | None = None, asn: int | None = None
    ) -> "LocalOverrides":
        """Locally drop every VRP at or under *prefix_text* whose origin
        is *asn*; either may be left out, not both."""
        self.filtered.append(PrefixFilter.parse(prefix_text, asn))
        return self

    @property
    def is_empty(self) -> bool:
        return not (self.pinned or self.filtered)

    # -- SLURM-style serialization ---------------------------------------------

    def to_dict(self) -> dict:
        """A SLURM-shaped plain-data form (cf. RFC 8416, which later
        standardized exactly this kind of local filter/assertion file:
        ``prefixFilters`` drop VRPs, ``prefixAssertions`` add them)."""
        return {
            "slurmVersion": 1,
            "validationOutputFilters": {
                "prefixFilters": [f.to_dict() for f in self.filtered],
            },
            "locallyAddedAssertions": {
                "prefixAssertions": [
                    {"prefix": str(v.prefix), "asn": int(v.asn),
                     "maxPrefixLength": v.max_length}
                    for v in self.pinned
                ],
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LocalOverrides":
        """Rebuild from :meth:`to_dict` output."""
        overrides = cls()
        filters = data.get("validationOutputFilters", {})
        for item in filters.get("prefixFilters", []):
            # RFC 8416 section 3.3.1: a prefix, an ASN or both; no
            # maxPrefixLength.
            overrides.filtered.append(PrefixFilter.parse(
                item.get("prefix"), item.get("asn")
            ))
        assertions = data.get("locallyAddedAssertions", {})
        for item in assertions.get("prefixAssertions", []):
            prefix = Prefix.parse(item["prefix"])
            overrides.pinned.append(VRP(
                prefix,
                # Optional (RFC 8416 section 3.4.1): absent, the bound is
                # the prefix's own length.
                item.get("maxPrefixLength", prefix.length),
                ASN(item["asn"]),
            ))
        return overrides


def classify_with_overrides(
    route: Route, vrps: VrpSet, overrides: LocalOverrides
) -> RouteValidity:
    """RFC 6811 classification under local overrides.

    Classification runs against the pinned-and-filtered VRP set — built
    from the VRPs that cover the route alone (the others cannot change
    its state): the table's, less those a filter drops, and the pins'.
    A route costs its covering VRPs and the pins, not the table.
    """
    prefix, filters = route.prefix, overrides.filtered
    covering = VrpSet(
        vrp for vrp in vrps.covering(prefix)
        if not any(f.drops(vrp) for f in filters)
    )
    covering.extend(VrpSet(overrides.pinned).covering(prefix))
    return validate(prefix, route.origin, covering).state
