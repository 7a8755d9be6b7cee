"""Table 4: cross-border certification, seeded with the paper's own rows.

The paper built Table 4 from "BGP data, information about IP address
allocations, and AS-to-country mappings provided by the RIRs" because
production RPKI deployment was too small (footnote 4).  We encode the
paper's nine published rows verbatim as ground truth
(:data:`TABLE4_ROWS`), and :func:`cross_border_audit` recomputes the same
analysis over any model RPKI annotated with an AS-to-country mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..resources import ASN
from ..rpki import CertificateAuthority
from .regions import RIR, in_jurisdiction

__all__ = ["Table4Row", "TABLE4_ROWS", "CrossBorderFinding", "cross_border_audit"]


@dataclass(frozen=True)
class Table4Row:
    """One row of the paper's Table 4."""

    holder: str
    rc_prefix: str
    parent_rir: RIR
    countries: tuple[str, ...]   # countries covered, outside the parent RIR

    def __str__(self) -> str:
        return f"{self.holder:<12} {self.rc_prefix:<18} {','.join(self.countries)}"


# The nine rows the paper prints, with the parent RIR each RC chains to
# (ARIN for the North-American transit providers; APNIC for Servcorp's
# 61/8 space; RIPE for Resilans' 192.71/16).
TABLE4_ROWS: tuple[Table4Row, ...] = (
    Table4Row("Level3", "8.0.0.0/8", RIR.ARIN,
              ("RU", "FR", "NL", "CN", "TW", "JP", "GU", "AU", "GB", "MX")),
    Table4Row("Cogent", "38.0.0.0/8", RIR.ARIN,
              ("GU", "GT", "HK", "GB", "IN", "PH", "MX")),
    Table4Row("Verizon", "65.192.0.0/11", RIR.ARIN,
              ("CO", "IT", "AN", "AS", "GB", "EU", "SG")),
    Table4Row("Sprint", "208.0.0.0/11", RIR.ARIN,
              ("AS", "BO", "CO", "ES", "EC")),
    Table4Row("Sprint", "63.160.0.0/12", RIR.ARIN,
              ("FR", "CO", "YE", "AN", "HN")),
    Table4Row("Tata Comm.", "64.86.0.0/16", RIR.ARIN,
              ("GU", "CO", "MH", "HN", "PH", "ZW")),
    Table4Row("Columbus", "63.245.0.0/17", RIR.ARIN,
              ("NI", "GT", "CO", "AN", "HN", "MX")),
    Table4Row("Servcorp", "61.28.192.0/19", RIR.APNIC,
              ("FR", "AE", "CA", "US", "GB")),
    Table4Row("Resilans", "192.71.0.0/16", RIR.RIPE,
              ("US", "IN")),
)


@dataclass(frozen=True)
class CrossBorderFinding:
    """One RC that covers ASes outside its parent RIR's jurisdiction."""

    holder: str
    rc_prefixes: str
    parent_rir: RIR
    all_countries: tuple[str, ...]
    outside_countries: tuple[str, ...]

    @property
    def crosses_border(self) -> bool:
        return bool(self.outside_countries)

    def __str__(self) -> str:
        return (
            f"{self.holder:<22} {self.rc_prefixes:<22} "
            f"{','.join(self.outside_countries)}"
        )


def cross_border_audit(
    roots: list[tuple[CertificateAuthority, RIR]],
    as_country: dict[ASN, str],
) -> list[CrossBorderFinding]:
    """Recompute Table 4 over a model RPKI.

    For every non-root authority, collect the countries of the origin
    ASes named in ROAs anywhere in its subtree, and report those outside
    the jurisdiction of the RIR at the top of its chain.  Findings are
    sorted by descending count of out-of-region countries (the paper
    lists its most salient examples).
    """
    findings: list[CrossBorderFinding] = []
    for root, rir in roots:
        for child in root.children():
            for authority in child.subtree():
                countries = {
                    country.upper()
                    for holder in authority.subtree()
                    for roa in holder.issued_roas.values()
                    if (country := as_country.get(roa.asn))
                }
                outside = sorted(
                    c for c in countries if not in_jurisdiction(rir, c)
                )
                findings.append(CrossBorderFinding(
                    holder=authority.handle,
                    rc_prefixes=str(authority.resources),
                    parent_rir=rir,
                    all_countries=tuple(sorted(countries)),
                    outside_countries=tuple(outside),
                ))

    findings.sort(key=lambda f: (-len(f.outside_countries), f.holder))
    return findings


def render_table4(findings: list[CrossBorderFinding], *, limit: int = 10) -> str:
    """The paper's table shape: holder, RC, out-of-jurisdiction countries."""
    lines = [f"{'Holder':<22} {'RC':<22} Countries"]
    count = 0
    for finding in findings:
        if not finding.crosses_border:
            continue
        lines.append(str(finding))
        count += 1
        if count >= limit:
            break
    return "\n".join(lines)
