"""Synthetic full-deployment RPKI generation.

Production deployment at the time of the paper was "about 1200-1400 ROAs,
less than 1% of projected deployment" (footnote 4), so the paper's
measurements run over a *model* of the allocation hierarchy.  This module
generates such models at any scale, deterministically from a seed:

- five RIR trust anchors with realistic address blocks,
- ISPs (LIR-level authorities) holding allocations inside their RIR's
  space, each with a publication point, customer suballocations and ROAs,
- country tags for every AS, drawn from the RIR's service region with a
  cross-border rate of :data:`CROSS_BORDER_RATE` (the Section 3.2
  phenomenon).

:func:`build_deployment` scales from tens to thousands of ROAs in its
hierarchical shape; the ``flat`` generator family (``config.flat``, the
:data:`INTERNET_SCALES` presets) reaches 10⁴–10⁵ ROAs by minting many
sibling publication points in O(n) — allocations computed arithmetically
(no generator scans), one deferred publication sync per authority, and
one shared EE keypair per authority instead of one per ROA.  The scale
benchmark sweeps both; :func:`build_table4_world` instead seeds the
model with the paper's nine published Table 4 rows so the audit
reproduces them exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from ..crypto import KeyFactory
from ..jurisdiction.regions import RIR, region_of
from ..jurisdiction.table4 import TABLE4_ROWS
from ..repository import HostLocator, RepositoryRegistry
from ..resources import ASN, Prefix, ResourceSet, format_address
from ..rpki import CertificateAuthority
from ..rpki.roa import RoaPrefix
from ..simtime import Clock

__all__ = ["DeploymentConfig", "DeploymentWorld", "HIERARCHICAL_SCALES",
           "INTERNET_SCALES", "build_deployment", "build_table4_world",
           "resolve_scale"]

# The share of ASes tagged with a country outside their RIR's service
# region: the paper's 15 %.
CROSS_BORDER_RATE = 0.15

# Representative /8 blocks per RIR (a subset of the real IANA allocations).
_RIR_BLOCKS: dict[RIR, tuple[str, ...]] = {
    RIR.ARIN: ("8.0.0.0/8", "38.0.0.0/8", "63.0.0.0/8", "64.0.0.0/8",
               "65.0.0.0/8", "208.0.0.0/8"),
    RIR.RIPE: ("31.0.0.0/8", "62.0.0.0/8", "192.0.0.0/8", "212.0.0.0/8"),
    RIR.APNIC: ("1.0.0.0/8", "61.0.0.0/8", "110.0.0.0/8", "202.0.0.0/8"),
    RIR.LACNIC: ("177.0.0.0/8", "186.0.0.0/8", "190.0.0.0/8", "200.0.0.0/8"),
    RIR.AFRINIC: ("41.0.0.0/8", "102.0.0.0/8", "105.0.0.0/8", "197.0.0.0/8"),
}


@dataclass(frozen=True)
class DeploymentConfig:
    """Knobs of the synthetic deployment.

    ``suballocation_depth`` adds that many levels of sub-CA below every
    customer — each level re-certifies the customer's allocation to the
    customer's own AS and publishes its own ROAs, modelling the deep
    provider-customer delegation chains of RFC 6480 Section 2.2.  The
    default 0 leaves generated worlds byte-identical to earlier
    revisions (the chain consumes no extra jurisdiction-RNG draws, so
    country tags are unchanged for any depth).

    ``amplification_points`` builds the Stalloris delegation-tree
    amplifier: one extra authority under the first RIR (handle
    ``<rir>-amp``, its own host) delegating to that many child CAs, each
    publishing one ROA at its own publication point under the amplifier's
    host.  A single timing fault on the amplifier's URI prefix (see
    :data:`~repro.repository.faults.FaultKind.AMPLIFY`) then makes every
    one of those points slow at once — N attempt-deadlines of relying-
    party time for one authority's worth of misbehavior.  The amplifier
    is generated *after* the regular hierarchy and draws nothing from
    the jurisdiction RNG, so ``amplification_points=0`` worlds stay
    byte-identical to earlier revisions.  Hierarchical generator only.

    ``flat`` switches to the Internet-scale generator: per RIR,
    ``isps_per_rir`` sibling ISP authorities each publishing
    ``roas_per_isp`` ROAs at its own publication point, no customer
    tiers (``customers_per_isp``/``roas_per_customer``/
    ``suballocation_depth`` are ignored).  Allocations are computed
    arithmetically and every authority publishes once, so construction
    is O(total ROAs), and each authority signs all of its ROAs with one
    EE keypair, cutting keygen from O(ROAs) to O(authorities) —
    validation semantics are unchanged because each ROA still carries
    its own EE certificate.  Keys are 512-bit, as every
    :class:`~repro.crypto.KeyFactory`'s are.
    """

    seed: int = 0
    rirs: tuple[RIR, ...] = tuple(RIR)
    isps_per_rir: int = 8
    customers_per_isp: int = 2
    roas_per_isp: int = 2
    roas_per_customer: int = 1
    suballocation_depth: int = 0
    flat: bool = False
    amplification_points: int = 0

    def __post_init__(self) -> None:
        if self.amplification_points:
            if self.amplification_points < 0:
                raise ValueError(
                    f"bad amplification {self.amplification_points}"
                )
            if self.flat:
                raise ValueError(
                    "amplification_points requires the hierarchical "
                    "generator (flat=False)"
                )
            if self.amplification_points > 250:
                raise ValueError(
                    "amplifier fits at most 250 /24 children in its /16"
                )
            if self.isps_per_rir > 190:
                raise ValueError(
                    "amplification_points needs isps_per_rir <= 190 (the "
                    "amplifier takes the /16 at index 200)"
                )
        if self.flat:
            if self.roas_per_isp > 256:
                raise ValueError(
                    "flat generator fits at most 256 /24 ROAs per ISP /16"
                )
            if self.isps_per_rir > 254:
                raise ValueError(
                    "flat generator fits at most 254 ISP /16s per RIR"
                )


@dataclass
class DeploymentWorld:
    """A generated model RPKI with its jurisdiction annotations."""

    clock: Clock
    key_factory: KeyFactory
    registry: RepositoryRegistry
    roots: list[tuple[CertificateAuthority, RIR]] = field(default_factory=list)
    as_country: dict[ASN, str] = field(default_factory=dict)
    # The Stalloris amplifier, when amplification_points > 0: the rsync
    # host its whole delegation subtree publishes under (the AMPLIFY
    # fault target) and the child publication-point URIs.
    amplifier_host: str | None = None
    amplifier_points: list[str] = field(default_factory=list)

    @property
    def trust_anchors(self):
        return [root.certificate for root, _rir in self.roots]

    def authorities(self) -> list[CertificateAuthority]:
        return [ca for root, _rir in self.roots for ca in root.subtree()]

    def roa_count(self) -> int:
        return sum(len(a.issued_roas) for a in self.authorities())


# The Internet-scale family: flat worlds from 10⁴ to 10⁵ ROAs.  The real
# RPKI carries hundreds of thousands of VRPs; these presets let the
# benchmarks and the query/RTR planes measure at honest magnitudes.
# ROA totals: rirs × isps_per_rir × roas_per_isp.
INTERNET_SCALES: dict[str, DeploymentConfig] = {
    # 5 × 40 × 50 = 10,000 ROAs across 205 authorities.
    "internet-small": DeploymentConfig(
        isps_per_rir=40, customers_per_isp=0, roas_per_isp=50,
        roas_per_customer=0, flat=True,
    ),
    # 5 × 100 × 60 = 30,000 ROAs across 505 authorities.
    "internet": DeploymentConfig(
        isps_per_rir=100, customers_per_isp=0, roas_per_isp=60,
        roas_per_customer=0, flat=True,
    ),
    # 5 × 200 × 100 = 100,000 ROAs across 1005 authorities.
    "internet-large": DeploymentConfig(
        isps_per_rir=200, customers_per_isp=0, roas_per_isp=100,
        roas_per_customer=0, flat=True,
    ),
}

# The hierarchical shapes: RIR -> ISP -> customer -> sub-CA chains, tens
# to hundreds of ROAs; what the walkthroughs and the discovery benchmark
# run when delegation depth, not volume, is the point.
HIERARCHICAL_SCALES: dict[str, DeploymentConfig] = {
    "small": DeploymentConfig(
        isps_per_rir=2, customers_per_isp=1, suballocation_depth=1),
    "medium": DeploymentConfig(
        isps_per_rir=4, customers_per_isp=2, suballocation_depth=2),
    "large": DeploymentConfig(
        isps_per_rir=8, customers_per_isp=2, suballocation_depth=3),
}


def resolve_scale(scale: str, seed: int | None = None) -> DeploymentConfig:
    """The :class:`DeploymentConfig` a ``--scale`` name stands for.

    Accepts both families — :data:`INTERNET_SCALES` and
    :data:`HIERARCHICAL_SCALES`; *seed* overrides the preset's seed when
    given.  An unknown name raises :class:`KeyError` naming every valid
    one.
    """
    config = INTERNET_SCALES.get(scale) or HIERARCHICAL_SCALES.get(scale)
    if config is None:
        known = sorted(INTERNET_SCALES) + sorted(HIERARCHICAL_SCALES)
        raise KeyError(f"unknown scale {scale!r} (expected one of {known})")
    return config if seed is None else replace(config, seed=seed)


def build_deployment(
    config: DeploymentConfig = DeploymentConfig(),
) -> DeploymentWorld:
    """Generate a deployment per *config*, reproducibly."""
    rng = random.Random(config.seed)
    clock = Clock()
    key_factory = KeyFactory(seed=config.seed + 77000)
    registry = RepositoryRegistry()
    world = DeploymentWorld(
        clock=clock, key_factory=key_factory, registry=registry
    )
    if config.flat:
        _build_flat(config, world, rng)
        return world

    next_isp_asn = 3000
    next_customer_asn = 50000

    for rir in config.rirs:
        blocks = _RIR_BLOCKS[rir]
        rir_host = f"{rir.name.lower()}.registry.example"
        rir_server = registry.create_server(
            rir_host,
            _locator_inside(Prefix.parse(blocks[0]), asn=next_isp_asn, offset=10),
        )
        root = CertificateAuthority.create_trust_anchor(
            handle=rir.name,
            ip_resources=ResourceSet.parse(*blocks),
            clock=clock,
            key_factory=key_factory,
            sia=f"rsync://{rir_host}/repo/",
            publication_point=rir_server.mount(f"rsync://{rir_host}/repo/"),
        )
        world.roots.append((root, rir))
        region = sorted(region_of(rir))
        all_countries = sorted(
            {c for r in RIR for c in region_of(r)}
        )

        for isp_index in range(config.isps_per_rir):
            isp_asn = ASN(next_isp_asn)
            next_isp_asn += 1
            # Allocation: the isp_index-th /16 of a block chosen round-robin.
            block = Prefix.parse(blocks[isp_index % len(blocks)])
            allocation = _subprefix_at(block, 16, 1 + isp_index)
            handle = f"{rir.name.lower()}-isp-{isp_index}"
            host = f"{handle}.example"
            server = registry.create_server(
                host, _locator_inside(allocation, asn=int(isp_asn), offset=10)
            )
            isp = root.issue_child_authority(
                handle,
                ResourceSet.parse(str(allocation)),
                sia=f"rsync://{host}/repo/",
                publication_point=server.mount(f"rsync://{host}/repo/"),
            )
            world.as_country[isp_asn] = _pick_country(
                rng, region, all_countries
            )

            twenties = list(allocation.subprefixes(20))
            cursor = 0
            for roa_index in range(config.roas_per_isp):
                prefix = twenties[cursor]
                cursor += 1
                isp.issue_roa(isp_asn, f"{prefix}-24")

            for customer_index in range(config.customers_per_isp):
                customer_asn = ASN(next_customer_asn)
                next_customer_asn += 1
                customer_alloc = twenties[cursor]
                cursor += 1
                customer = isp.issue_child_authority(
                    f"{handle}-cust-{customer_index}",
                    ResourceSet.parse(str(customer_alloc)),
                    sia=f"rsync://{host}/repo/cust{customer_index}/",
                    publication_point=server.mount(
                        f"rsync://{host}/repo/cust{customer_index}/"
                    ),
                )
                world.as_country[customer_asn] = _pick_country(
                    rng, region, all_countries
                )
                slash24s = customer_alloc.subprefixes(24)
                for roa_index in range(config.roas_per_customer):
                    customer.issue_roa(
                        customer_asn, str(_nth(slash24s, roa_index))
                    )
                # Deep delegation: each level re-certifies the customer's
                # allocation to the customer's own AS (no extra country
                # draws — depth must not perturb the jurisdiction RNG).
                sub_prefixes = list(customer_alloc.subprefixes(24))
                parent = customer
                for level in range(1, config.suballocation_depth + 1):
                    sub_sia = (
                        f"rsync://{host}/repo/cust{customer_index}/"
                        f"sub{level}/"
                    )
                    parent = parent.issue_child_authority(
                        f"{handle}-cust-{customer_index}-sub-{level}",
                        ResourceSet.parse(str(customer_alloc)),
                        sia=sub_sia,
                        publication_point=server.mount(sub_sia),
                    )
                    for roa_index in range(config.roas_per_customer):
                        prefix_index = (
                            config.roas_per_customer * level + roa_index
                        ) % len(sub_prefixes)
                        parent.issue_roa(
                            customer_asn, str(sub_prefixes[prefix_index])
                        )
    if config.amplification_points:
        # Built after (and independent of) the regular hierarchy so the
        # jurisdiction RNG stream — and therefore every country tag —
        # is unchanged for amplification_points=0.
        _build_amplifier(config, world)
    return world


def _build_amplifier(
    config: DeploymentConfig, world: DeploymentWorld
) -> None:
    """The Stalloris amplifier: one authority, many delegated points.

    One child authority of the first RIR root, holding the /16 at index
    200 of the root's first block (out of reach of the ISP allocator for
    ``isps_per_rir <= 190``), delegating one /24 child CA per
    amplification point.  Every child publishes at its own publication
    point under the amplifier's single host, so one prefix-matched
    timing fault (``FaultKind.AMPLIFY`` on ``rsync://<host>/``) slows
    the whole subtree — the delegation-tree amplification where each
    child costs the relying party an attempt deadline but costs the
    attacker only a certificate.
    """
    root, rir = world.roots[0]
    handle = f"{rir.name.lower()}-amp"
    host = f"{handle}.example"
    block = Prefix.parse(_RIR_BLOCKS[rir][0])
    allocation = _subprefix_at(block, 16, 200)
    server = world.registry.create_server(
        host, _locator_inside(allocation, asn=64000, offset=10)
    )
    amplifier = root.issue_child_authority(
        handle,
        ResourceSet.parse(str(allocation)),
        sia=f"rsync://{host}/repo/",
        publication_point=server.mount(f"rsync://{host}/repo/"),
    )
    home = sorted(region_of(rir))[0]
    world.as_country[ASN(64000)] = home
    world.amplifier_host = host
    for index in range(config.amplification_points):
        child_alloc = _subprefix_at(allocation, 24, index)
        sia = f"rsync://{host}/repo/amp{index}/"
        child = amplifier.issue_child_authority(
            f"{handle}-{index}",
            ResourceSet.parse(str(child_alloc)),
            sia=sia,
            publication_point=server.mount(sia),
        )
        child_asn = ASN(65000 + index)
        world.as_country[child_asn] = home
        child.issue_roa(child_asn, str(child_alloc))
        world.amplifier_points.append(sia)


def _build_flat(
    config: DeploymentConfig, world: DeploymentWorld, rng: random.Random
) -> None:
    """The Internet-scale generator: many sibling points, O(n) total work.

    Per RIR trust anchor, ``isps_per_rir`` flat ISP authorities each
    holding an arithmetically-computed /16 and publishing
    ``roas_per_isp`` consecutive /24 ROAs.  Three O(n) guarantees:

    - allocations come from :func:`_subprefix_at` (pure arithmetic, no
      generator scans over the block's subprefixes);
    - every authority syncs its publication point exactly once
      (``deferred_publication``), so issuance is not O(k²) per point;
    - each authority draws one EE keypair for all its ROAs, so keygen
      is O(authorities), not O(ROAs).
    """
    registry = world.registry
    clock = world.clock
    key_factory = world.key_factory
    next_isp_asn = 3000
    all_countries = sorted({c for r in RIR for c in region_of(r)})

    for rir in config.rirs:
        blocks = _RIR_BLOCKS[rir]
        rir_host = f"{rir.name.lower()}.registry.example"
        rir_server = registry.create_server(
            rir_host,
            _locator_inside(Prefix.parse(blocks[0]), asn=next_isp_asn, offset=10),
        )
        root = CertificateAuthority.create_trust_anchor(
            handle=rir.name,
            ip_resources=ResourceSet.parse(*blocks),
            clock=clock,
            key_factory=key_factory,
            sia=f"rsync://{rir_host}/repo/",
            publication_point=rir_server.mount(f"rsync://{rir_host}/repo/"),
        )
        world.roots.append((root, rir))
        region = sorted(region_of(rir))

        with root.deferred_publication():
            for isp_index in range(config.isps_per_rir):
                isp_asn = ASN(next_isp_asn)
                next_isp_asn += 1
                block = Prefix.parse(blocks[isp_index % len(blocks)])
                allocation = _subprefix_at(block, 16, 1 + isp_index)
                handle = f"{rir.name.lower()}-isp-{isp_index}"
                host = f"{handle}.example"
                server = registry.create_server(
                    host,
                    _locator_inside(allocation, asn=int(isp_asn), offset=10),
                )
                isp = root.issue_child_authority(
                    handle,
                    ResourceSet.parse(str(allocation)),
                    sia=f"rsync://{host}/repo/",
                    publication_point=server.mount(f"rsync://{host}/repo/"),
                )
                world.as_country[isp_asn] = _pick_country(
                    rng, region, all_countries
                )
                ee_key = key_factory.next_keypair()
                with isp.deferred_publication():
                    for roa_index in range(config.roas_per_isp):
                        prefix = _subprefix_at(allocation, 24, roa_index)
                        isp.issue_roa(
                            isp_asn, [RoaPrefix(prefix)], ee_key=ee_key
                        )


def build_table4_world() -> DeploymentWorld:
    """A model RPKI seeded with the paper's nine Table 4 RCs.

    Each holder gets an RC under its parent RIR for exactly the prefix the
    paper lists, plus one customer ROA per listed country (the origin AS
    mapped to that country) and one in-region ROA, so the audit reproduces
    every row and no spurious ones.
    """
    clock = Clock()
    key_factory = KeyFactory(seed=88004)
    registry = RepositoryRegistry()
    world = DeploymentWorld(
        clock=clock, key_factory=key_factory, registry=registry
    )

    rirs_needed = sorted({row.parent_rir for row in TABLE4_ROWS},
                         key=lambda r: r.name)
    roots: dict[RIR, CertificateAuthority] = {}
    for rir in rirs_needed:
        host = f"{rir.name.lower()}.registry.example"
        server = registry.create_server(
            host, HostLocator.parse("198.51.100.1", 64496)
            if rir is RIR.ARIN else HostLocator.parse(
                f"203.0.113.{len(roots) + 1}", 64496 + len(roots)
            ),
        )
        root = CertificateAuthority.create_trust_anchor(
            handle=rir.name,
            ip_resources=ResourceSet.parse(*_RIR_BLOCKS[rir]),
            clock=clock,
            key_factory=key_factory,
            sia=f"rsync://{host}/repo/",
            publication_point=server.mount(f"rsync://{host}/repo/"),
        )
        roots[rir] = root
        world.roots.append((root, rir))

    next_asn = 20000
    for index, row in enumerate(TABLE4_ROWS):
        root = roots[row.parent_rir]
        handle = f"{row.holder}-{row.rc_prefix}"
        host = f"holder{index}.example"
        server = registry.create_server(
            host, HostLocator.parse(f"198.51.100.{index + 10}", 64600 + index)
        )
        holder = root.issue_child_authority(
            handle,
            ResourceSet.parse(row.rc_prefix),
            sia=f"rsync://{host}/repo/",
            publication_point=server.mount(f"rsync://{host}/repo/"),
        )
        base = Prefix.parse(row.rc_prefix)
        slash24s = base.subprefixes(24)
        # One ROA per out-of-jurisdiction country the paper lists...
        for country in row.countries:
            asn = ASN(next_asn)
            next_asn += 1
            world.as_country[asn] = country
            holder.issue_roa(asn, str(next(slash24s)))
        # ...plus one in-region customer, so findings aren't all-foreign.
        home_asn = ASN(next_asn)
        next_asn += 1
        world.as_country[home_asn] = sorted(region_of(row.parent_rir))[0]
        holder.issue_roa(home_asn, str(next(slash24s)))
    return world


def _locator_inside(prefix: Prefix, *, asn: int, offset: int) -> HostLocator:
    address = format_address(prefix.afi, prefix.network + offset)
    return HostLocator.parse(address, asn)


def _nth(iterator, n: int):
    for index, item in enumerate(iterator):
        if index == n:
            return item
    raise IndexError(n)


def _subprefix_at(prefix: Prefix, length: int, index: int) -> Prefix:
    """The *index*-th /*length* subprefix of *prefix*, in O(1).

    Equivalent to ``_nth(prefix.subprefixes(length), index)`` on a fresh
    generator, without scanning the preceding *index* prefixes — the
    difference between O(n) and O(n²) world construction when the flat
    generator allocates hundreds of sibling /16s per block.
    """
    step = 1 << (prefix.afi.bits - length)
    network = prefix.network + index * step
    if network > prefix.broadcast:
        raise IndexError(index)
    return Prefix(prefix.afi, network, length)


def _pick_country(
    rng: random.Random,
    region: list[str],
    all_countries: list[str],
) -> str:
    if rng.random() < CROSS_BORDER_RATE:
        outside = [c for c in all_countries if c not in region]
        return rng.choice(outside)
    return rng.choice(region)
