"""The paper's Figure 2 as an executable fixture.

Reconstructs the "excerpt of a model RPKI" that every example in the paper
is phrased against:

- **ARIN** (trust anchor) suballocates 63.160.0.0/12 to **Sprint**;
- Sprint issues two RCs — **ETB S.A. ESP.** (63.168.0.0/16) and
  **Continental Broadband** (63.174.16.0/20) — and two ROAs authorizing
  its own AS 1239 with maxLength 24;
- Continental Broadband (AS 17054) issues five ROAs, among them the two
  targets of the paper's whacking walkthroughs:
  ``(63.174.16.0/20, AS 17054)`` and ``(63.174.16.0/22, AS 7341)``;
- ETB issues one ROA for 63.168.93.0/24 (the covering example of the
  paper's footnote 1).

The exact prefix choices for the parts the figure only sketches (Sprint's
own ROAs, Continental Broadband's three non-target ROAs) are pinned so
that every quantitative claim in the text holds in the model:

- revoking Continental Broadband's RC whacks the target plus *four* other
  ROAs (Section 3.1's collateral-damage count);
- 63.174.24.0/24 overlaps no ROA except the /20 target, so the Figure 3
  hole-punch has zero collateral;
- no ROA covers 63.160.0.0/12 itself, so routes for the /12 are
  *unknown* until the Figure 5 (right) ROA ``(63.160.0.0/12-13, AS
  1239)`` is added.

Repository placement follows Section 6: Continental Broadband hosts its
own publication point on a server at 63.174.23.0 inside its own prefix,
announced by its own AS 17054 — the seed of the circular dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bgp import AsGraph, Origination
from ..crypto import KeyFactory
from ..repository import HostLocator, RepositoryRegistry
from ..resources import ASN, ResourceSet
from ..rpki import CertificateAuthority, Roa
from ..simtime import Clock

__all__ = ["Figure2World", "build_figure2"]

# The actors, with the AS numbers the paper names (ETB's is from public
# registry data; the paper only names it as a Sprint customer in Colombia).
AS_SPRINT = ASN(1239)
AS_CONTINENTAL = ASN(17054)
AS_7341 = ASN(7341)
AS_ETB = ASN(19429)

# Section 6: Continental Broadband hosts its repository inside its own /20.
CONTINENTAL_REPO_ADDRESS = "63.174.23.0"


@dataclass
class Figure2World:
    """Everything the Figure 2 scenario wires together."""

    clock: Clock
    key_factory: KeyFactory
    registry: RepositoryRegistry
    arin: CertificateAuthority
    sprint: CertificateAuthority
    etb: CertificateAuthority
    continental: CertificateAuthority
    # Publication file names of the paper's two whacking targets.
    target20_name: str = ""
    target22_name: str = ""
    roa_names: dict[str, str] = field(default_factory=dict)

    @property
    def trust_anchors(self):
        return [self.arin.certificate]

    @property
    def target20(self) -> Roa:
        """The ROA (63.174.16.0/20, AS 17054)."""
        return self.continental.roa_named(self.target20_name)

    @property
    def target22(self) -> Roa:
        """The ROA (63.174.16.0/22, AS 7341)."""
        return self.continental.roa_named(self.target22_name)

    def authorities(self) -> list[CertificateAuthority]:
        return [self.arin, self.sprint, self.etb, self.continental]


def build_figure2() -> Figure2World:
    """Construct the Figure 2 world from scratch, reproducibly."""
    clock = Clock()
    key_factory = KeyFactory(seed=2013)
    registry = RepositoryRegistry()

    arin_server = registry.create_server(
        "arin.example", HostLocator.parse("199.5.26.10", 10745)
    )
    sprint_server = registry.create_server(
        "sprint.example", HostLocator.parse("144.228.1.10", 1239)
    )
    etb_server = registry.create_server(
        "etb.example", HostLocator.parse("200.75.51.10", int(AS_ETB))
    )
    continental_server = registry.create_server(
        "continental.example",
        HostLocator.parse(CONTINENTAL_REPO_ADDRESS, AS_CONTINENTAL),
    )

    arin = CertificateAuthority.create_trust_anchor(
        handle="ARIN",
        ip_resources=ResourceSet.parse("63.0.0.0/8", "199.0.0.0/8", "144.0.0.0/8"),
        clock=clock,
        key_factory=key_factory,
        sia="rsync://arin.example/repo/",
        publication_point=arin_server.mount("rsync://arin.example/repo/"),
    )

    sprint = arin.issue_child_authority(
        "Sprint",
        ResourceSet.parse("63.160.0.0/12"),
        sia="rsync://sprint.example/repo/",
        publication_point=sprint_server.mount("rsync://sprint.example/repo/"),
    )

    etb = sprint.issue_child_authority(
        "ETB S.A. ESP.",
        ResourceSet.parse("63.168.0.0/16"),
        sia="rsync://etb.example/repo/",
        publication_point=etb_server.mount("rsync://etb.example/repo/"),
    )

    continental = sprint.issue_child_authority(
        "Continental Broadband",
        ResourceSet.parse("63.174.16.0/20"),
        sia="rsync://continental.example/repo/",
        publication_point=continental_server.mount(
            "rsync://continental.example/repo/"
        ),
    )

    world = Figure2World(
        clock=clock,
        key_factory=key_factory,
        registry=registry,
        arin=arin,
        sprint=sprint,
        etb=etb,
        continental=continental,
    )

    # Sprint's two maxLength-24 ROAs ("Sprint issues two ROAs that authorize
    # specified prefix and its subprefixes of length up to 24").
    name, _ = sprint.issue_roa(AS_SPRINT, "63.161.0.0/16-24")
    world.roa_names["sprint-161"] = name
    name, _ = sprint.issue_roa(AS_SPRINT, "63.162.0.0/16-24")
    world.roa_names["sprint-162"] = name

    # ETB's single-prefix ROA (the footnote 1 covering example).
    name, _ = etb.issue_roa(AS_ETB, "63.168.93.0/24")
    world.roa_names["etb-93"] = name

    # Continental Broadband's five ROAs: the two targets plus three that
    # keep clear of 63.174.24.0/24 (so the Figure 3 hole is collateral-free).
    world.target20_name, _ = continental.issue_roa(
        AS_CONTINENTAL, "63.174.16.0/20"
    )
    world.target22_name, _ = continental.issue_roa(AS_7341, "63.174.16.0/22")
    name, _ = continental.issue_roa(AS_CONTINENTAL, "63.174.20.0/24")
    world.roa_names["cb-20"] = name
    name, _ = continental.issue_roa(AS_CONTINENTAL, "63.174.28.0/24")
    world.roa_names["cb-28"] = name
    name, _ = continental.issue_roa(AS_CONTINENTAL, "63.174.30.0/24")
    world.roa_names["cb-30"] = name

    return world


# ---------------------------------------------------------------------------
# the BGP side of the Figure 2 world
# ---------------------------------------------------------------------------

# A generic tier-1 and the relying party's AS, for scenarios that need a
# routing substrate under the Figure 2 RPKI.
AS_TIER1 = ASN(100)
AS_ARIN_HOST = ASN(10745)
AS_RELYING_PARTY = ASN(64500)


def figure2_bgp():
    """The AS topology and announcements matching the Figure 2 world.

    Returns ``(graph, originations, rp_asn)``:

    - Sprint (AS 1239) peers with a generic tier-1 (AS 100);
    - ETB (AS 19429), Continental Broadband (AS 17054) and AS 7341 are
      Sprint customers;
    - the ARIN repository host (AS 10745) and the relying party's AS
      (AS 64500) are tier-1 customers;
    - every repository server's prefix is announced by its host AS, so
      rsync delivery has routes to run over — including Continental
      Broadband's own /20, which contains its repository (Section 6).
    """
    graph = AsGraph.from_links(
        provider_links=[
            (int(AS_TIER1), int(AS_ARIN_HOST)),
            (int(AS_TIER1), int(AS_RELYING_PARTY)),
            (int(AS_SPRINT), int(AS_ETB)),
            (int(AS_SPRINT), int(AS_CONTINENTAL)),
            (int(AS_SPRINT), int(AS_7341)),
        ],
        peer_links=[(int(AS_TIER1), int(AS_SPRINT))],
    )
    originations = [
        # The ROA'd production prefixes of the Figure 2 world.
        Origination.parse("63.161.0.0/16", AS_SPRINT),
        Origination.parse("63.162.0.0/16", AS_SPRINT),
        Origination.parse("63.168.93.0/24", AS_ETB),
        Origination.parse("63.174.16.0/20", AS_CONTINENTAL),
        Origination.parse("63.174.16.0/22", AS_7341),
        # Repository-hosting prefixes (Continental's is its own /20 above).
        Origination.parse("199.5.26.0/24", AS_ARIN_HOST),
        Origination.parse("144.228.0.0/16", AS_SPRINT),
        Origination.parse("200.75.51.0/24", AS_ETB),
    ]
    return graph, originations, int(AS_RELYING_PARTY)
