"""RIRs and their service regions.

"RIRs can whack ROAs for ASes in non-member countries, even though they
are accountable only to their member countries" (paper, Section 3.2).
Deciding whether a certification crosses an RIR's jurisdiction requires
knowing which countries each RIR answers to; this module encodes the five
registries and a representative subset of their ISO 3166 service regions
(the full lists run to hundreds of entries; the subset covers every
country the paper's Table 4 mentions plus the majors).
"""

from __future__ import annotations

import enum

__all__ = ["RIR", "region_of", "in_jurisdiction"]


class RIR(enum.Enum):
    """The five Regional Internet Registries."""

    ARIN = "ARIN"          # North America
    RIPE = "RIPE NCC"      # Europe, Middle East, Central Asia
    APNIC = "APNIC"        # Asia-Pacific
    LACNIC = "LACNIC"      # Latin America, Caribbean
    AFRINIC = "AFRINIC"    # Africa


_REGIONS: dict[RIR, frozenset[str]] = {
    RIR.ARIN: frozenset({
        "US", "CA", "AG", "BS", "BB", "BM", "DM", "GD", "JM", "KN",
        "KY", "LC", "PR", "VC", "VI",
    }),
    RIR.RIPE: frozenset({
        "GB", "FR", "DE", "NL", "SE", "NO", "FI", "DK", "IT", "ES",
        "PT", "CH", "AT", "BE", "IE", "PL", "CZ", "RU", "UA", "TR",
        "GR", "RO", "HU", "IL", "SA", "AE", "YE", "IR", "IQ", "JO",
        "LB", "SY", "KZ", "UZ", "EU",
    }),
    RIR.APNIC: frozenset({
        "CN", "JP", "KR", "IN", "AU", "NZ", "SG", "HK", "TW", "TH",
        "VN", "PH", "MY", "ID", "PK", "BD", "LK", "KH", "GU", "AS",
        "MH", "FJ", "PG", "NP",
    }),
    RIR.LACNIC: frozenset({
        "BR", "AR", "CL", "CO", "PE", "VE", "EC", "BO", "UY", "PY",
        "MX", "GT", "HN", "NI", "CR", "PA", "SV", "DO", "CU", "HT",
        "AN", "TT", "AW",
    }),
    RIR.AFRINIC: frozenset({
        "ZA", "NG", "EG", "KE", "GH", "TZ", "UG", "DZ", "MA", "TN",
        "ET", "ZW", "ZM", "MZ", "AO", "CM", "CI", "SN",
    }),
}


def region_of(rir: RIR) -> frozenset[str]:
    """The ISO country codes in an RIR's service region."""
    return _REGIONS[rir]


def in_jurisdiction(rir: RIR, country: str) -> bool:
    """True if *country* is within the RIR's service region.

    Unknown country codes are treated as outside every region — which is
    the conservative answer for a jurisdiction audit.
    """
    return country.upper() in _REGIONS[rir]
