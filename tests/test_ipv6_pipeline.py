"""IPv6 end-to-end: the whole pipeline over 2001:db8::/32.

The paper's examples are IPv4 (as was essentially all 2013 deployment),
but nothing in the architecture is family-specific; these tests pin that
down across the object model, validation, classification, whacking, and
RTR delivery.
"""

import pytest

from repro.core import execute_whack, plan_whack
from repro.crypto import KeyFactory
from repro.repository import Fetcher, HostLocator, RepositoryRegistry
from repro.resources import ResourceSet
from repro.rp import RelyingParty, RouteValidity, VRP
from repro.rpki import CertificateAuthority
from repro.rtr import DuplexPipe, RtrCacheServer, RtrRouterClient
from repro.simtime import Clock

from .helpers import find_roa


@pytest.fixture
def v6_world():
    clock = Clock()
    factory = KeyFactory(seed=6666)
    registry = RepositoryRegistry()
    rir_server = registry.create_server(
        "rir6.example", HostLocator.parse("2001:db8:ffff::1", 64496)
    )
    rir = CertificateAuthority.create_trust_anchor(
        handle="RIR6",
        ip_resources=ResourceSet.parse("2001:db8::/32"),
        clock=clock,
        key_factory=factory,
        sia="rsync://rir6.example/repo/",
        publication_point=rir_server.mount("rsync://rir6.example/repo/"),
    )
    isp_server = registry.create_server(
        "isp6.example", HostLocator.parse("2001:db8:100::1", 64501)
    )
    isp = rir.issue_child_authority(
        "ISP6",
        ResourceSet.parse("2001:db8:100::/40"),
        sia="rsync://isp6.example/repo/",
        publication_point=isp_server.mount("rsync://isp6.example/repo/"),
    )
    isp.issue_roa(64501, "2001:db8:100::/40-48")
    isp.issue_roa(64502, "2001:db8:100:42::/64")
    return clock, registry, rir, isp


def make_rp(clock, registry, rir):
    rp = RelyingParty([rir.certificate], Fetcher(registry, clock))
    rp.refresh()
    return rp


class TestV6Validation:
    def test_full_pipeline(self, v6_world):
        clock, registry, rir, isp = v6_world
        rp = make_rp(clock, registry, rir)
        assert len(rp.vrps) == 2
        assert rp.last_run.errors() == []

    def test_classification(self, v6_world):
        clock, registry, rir, isp = v6_world
        rp = make_rp(clock, registry, rir)
        assert rp.classify_parts("2001:db8:100::/40", 64501) is (
            RouteValidity.VALID
        )
        assert rp.classify_parts("2001:db8:107::/48", 64501) is (
            RouteValidity.VALID  # within maxLength 48
        )
        assert rp.classify_parts("2001:db8:100:42::/64", 64502) is (
            RouteValidity.VALID
        )
        # /64 beyond the /40-48 ROA's maxLength, wrong AS for the /64 ROA.
        assert rp.classify_parts("2001:db8:100:43::/64", 64501) is (
            RouteValidity.INVALID
        )
        assert rp.classify_parts("2001:db8:200::/40", 64501) is (
            RouteValidity.UNKNOWN
        )

    def test_v4_and_v6_do_not_interfere(self, v6_world):
        clock, registry, rir, isp = v6_world
        rp = make_rp(clock, registry, rir)
        assert rp.classify_parts("63.174.16.0/20", 17054) is (
            RouteValidity.UNKNOWN
        )


class TestV6Whack:
    def test_grandchild_whack_over_v6(self, v6_world):
        clock, registry, rir, isp = v6_world
        found = find_roa(isp, "2001:db8:100:42::/64", 64502)
        assert found is not None
        _, target = found
        plan = plan_whack(rir, target, isp)
        assert plan.hole is not None
        assert plan.hole.afi.bits == 128
        execute_whack(plan)
        rp = make_rp(clock, registry, rir)
        # The /64 ROA died; the /40-48 ROA survives.
        assert rp.classify_parts("2001:db8:100:42::/64", 64502) is (
            RouteValidity.INVALID  # still covered by the /40-48 ROA
        )
        assert rp.classify_parts("2001:db8:100::/40", 64501) is (
            RouteValidity.VALID
        )


class TestV6Rtr:
    def test_v6_prefix_pdus_flow(self, v6_world):
        clock, registry, rir, isp = v6_world
        rp = make_rp(clock, registry, rir)
        cache = RtrCacheServer()
        cache.update(rp.vrps)
        pipe = DuplexPipe()
        cache.attach(pipe)
        router = RtrRouterClient(pipe)
        router.connect()
        for _ in range(4):
            cache.process()
            router.process()
        assert router.vrp_count == 2
        assert VRP.parse("2001:db8:100::/40-48", 64501) in router.vrp_set()
