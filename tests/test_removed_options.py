"""Options no caller outside the tests set are constants or derived.

Passing one is a TypeError.  A configuration class left with no such
option is gone, and so is a name nothing outside the tests imported:
importing one is an ImportError.

Each bound still holds at its shipped value; the tests that exercise it
(``tests/rtr/test_session.py::TestDeltaCompaction``,
``tests/rp/test_containment.py``, ``tests/test_simtime.py``) run at that
value.  So do the fetch defenses (``tests/repository/test_resilience.py``,
``tests/repository/test_scheduler.py``), the stall monitor
(``tests/monitor/test_stall.py``) and the chaos harness
(``tests/chaos/test_chaos.py``), whose settings only tests ever set.
The tests that exercise a bound below its shipped value patch the module
constant: the memo bound (``tests/test_memo.py``,
``tests/rp/test_incremental.py``), the applied-fault log
(``tests/repository/test_repository.py``), the mux fairness budget
(``tests/rtr/test_mux.py``), the query history ring
(``tests/api/test_service.py``, ``tests/api/test_request_path.py``),
the forwarding hop guard (``tests/bgp/test_propagation.py``) and the
cross-border rate, at 0 and 1 (``tests/modelgen/test_modelgen.py``).
``tools/check_facade.py`` keeps new facade options honest the same way.
"""

import importlib

import pytest

from repro import memo
from repro.api import ApiConfig, QueryService, RateLimitConfig, TokenBucket
from repro.api import service as api_service
from repro.bgp import (
    AsGraph,
    TopologyConfig,
    forward,
    forwarding,
    gen,
    propagate,
    subprefix_hijack,
)
from repro.chaos import (
    CampaignConfig,
    FaultPlan,
    PlannedFault,
    StallorisConfig,
    build_plan,
    shrink_plan,
)
from repro.core import OTHER_ORIGIN, plan_whack, validity_matrix
from repro.crypto import KeyFactory, is_probable_prime, keys
from repro.memo import GenerationMemo
from repro.modelgen import (
    DeploymentConfig,
    build_figure2,
    build_table4_world,
    deployment,
)
from repro.monitor import (
    Alert,
    AlertKind,
    ChurnConfig,
    DetectionExperiment,
    StallDetector,
    churn,
    experiment,
)
from repro.repository import (
    CircuitBreaker,
    Fault,
    FaultInjector,
    FaultKind,
    Fetcher,
    HostedPublicationPoint,
    HostLocator,
    RepositoryRegistry,
    FetchScheduler,
)
from repro.repository import faults, nested_bomb
from repro.resources import parse_address
from repro.rp import (
    IncrementalState,
    LocalOverrides,
    ParseMemo,
    RelyingParty,
    SuspendersRelyingParty,
    VerificationMemo,
    VrpSet,
)
from repro.rpki import (
    CertificateAuthority,
    EECertificate,
    InMemoryPublicationPoint,
    ResourceCertificate,
    RsyncUri,
    SignedObject,
)
from repro.rpki.publication import DEFAULT_HISTORY_LIMIT
from repro.rtr import ChainedRtrCache, RtrCacheServer, SessionMux, mux
from repro.simtime import HOUR, Clock
from repro.telemetry import Metric, MetricsRegistry, render_text

from .helpers import build_deep_hierarchy

POINT = "rsync://a.example/repo/"


def hosted(**options):
    server = RepositoryRegistry().create_server(
        "repo.example", HostLocator.parse("192.0.2.1", 64_496))
    return HostedPublicationPoint(
        server, RsyncUri.parse("rsync://repo.example/repo/"), **options)


def chained(**options):
    return ChainedRtrCache(RtrCacheServer(metrics=MetricsRegistry()),
                           **options)


def figure2_rp():
    world = build_figure2()
    return RelyingParty(world.trust_anchors,
                        Fetcher(world.registry, world.clock),
                        metrics=MetricsRegistry())


REMOVED = {
    "ChainedRtrCache(session_id=)": lambda: chained(session_id=2),
    "ChainedRtrCache(history_window=)": lambda: chained(history_window=4),
    "RtrCacheServer(fairness_budget=)":
        lambda: RtrCacheServer(fairness_budget=8),
    "RtrCacheServer(max_history_vrps=)":
        lambda: RtrCacheServer(max_history_vrps=8),
    "InMemoryPublicationPoint(history_limit=)":
        lambda: InMemoryPublicationPoint(history_limit=2),
    "HostedPublicationPoint(history_limit=)": lambda: hosted(history_limit=2),
    "ParseMemo(max_object_bytes=)": lambda: ParseMemo(max_object_bytes=1),
    "Fetcher(resilience=)":
        lambda: Fetcher(RepositoryRegistry(), Clock(), resilience=None),
    "CircuitBreaker(policy)": lambda: CircuitBreaker("h", None),
    # SchedulerConfig is gone (see GONE); the options it shed stay off
    # the scheduler that now holds its one value as a constant.
    "SchedulerConfig(authority_max_points=)":
        lambda: FetchScheduler(authority_max_points=1),
    "SchedulerConfig(probes_per_cycle=)":
        lambda: FetchScheduler(probes_per_cycle=1),
    "SchedulerConfig(ewma_alpha=)": lambda: FetchScheduler(ewma_alpha=0.5),
    "SchedulerConfig(authority_weights=)":
        lambda: FetchScheduler(authority_weights={}),
    "RelyingParty(schedule=)":
        lambda: RelyingParty([], Fetcher(RepositoryRegistry(), Clock()),
                             schedule=None),
    "FetchScheduler(config)": lambda: FetchScheduler(None),
    "FetchScheduler.admit(remaining_budget=)":
        lambda: FetchScheduler(metrics=MetricsRegistry()).admit(
            "rsync://a.example/repo/", remaining_budget=1),
    "StallDetector(config=)": lambda: StallDetector(config=None),
    "CampaignConfig(interference_bound=)": lambda: CampaignConfig(interference_bound=1),
    "CampaignConfig(gap_seconds=)": lambda: CampaignConfig(gap_seconds=1),
    "CampaignConfig(attempt_timeout=)": lambda: CampaignConfig(attempt_timeout=1),
    "CampaignConfig(rir_count=)": lambda: CampaignConfig(rir_count=1),
    "CampaignConfig(isps_per_rir=)": lambda: CampaignConfig(isps_per_rir=1),
    "CampaignConfig(customers_per_isp=)": lambda: CampaignConfig(customers_per_isp=1),
    "CampaignConfig(rtr_tiers=)": lambda: CampaignConfig(rtr_tiers=1),
    "CampaignConfig(rtr_fanout=)": lambda: CampaignConfig(rtr_fanout=1),
    "StallorisConfig(gap_seconds=)": lambda: StallorisConfig(gap_seconds=1),
    "StallorisConfig(attempt_timeout=)": lambda: StallorisConfig(attempt_timeout=1),
    "StallorisConfig(fetch_budget=)": lambda: StallorisConfig(fetch_budget=1),
    "StallorisConfig(stale_grace=)": lambda: StallorisConfig(stale_grace=1),
    "StallorisConfig(rir_count=)": lambda: StallorisConfig(rir_count=1),
    "StallorisConfig(isps_per_rir=)": lambda: StallorisConfig(isps_per_rir=1),
    "StallorisConfig(customers_per_isp=)": lambda: StallorisConfig(customers_per_isp=1),
    "shrink_plan(max_runs=)": lambda: shrink_plan(
        CampaignConfig(), FaultPlan(seed=7, cycles=1), max_runs=1),
    "build_plan(max_per_cycle=)": lambda: build_plan(
        7, 1, ["rsync://a.example/repo/"], max_per_cycle=1),
    "PlannedFault(fail_rate=)": lambda: PlannedFault(
        0, FaultKind.FLAKY, "rsync://a.example/repo/", fail_rate=0.5),
    # The relying party's clock is its fetcher's; the query service's is
    # the relying party's.
    "RelyingParty(clock=)": lambda: RelyingParty(
        [], Fetcher(RepositoryRegistry(), Clock()), clock=Clock()),
    "QueryService(clock=)": lambda: QueryService(
        figure2_rp(), metrics=MetricsRegistry(), clock=Clock()),
    # Suspenders judges retention on its relying party's clock.
    "SuspendersRelyingParty(rp, clock)": lambda: SuspendersRelyingParty(
        figure2_rp(), Clock(), grace_seconds=HOUR),
    # One memo bound, repro.memo.MAX_ENTRIES.
    "GenerationMemo(max_entries)": lambda: GenerationMemo(8),
    "IncrementalState(max_entries=)": lambda: IncrementalState(
        metrics=MetricsRegistry(), max_entries=8),
    "VerificationMemo(max_entries=)": lambda: VerificationMemo(max_entries=8),
    "ParseMemo(max_entries=)": lambda: ParseMemo(max_entries=8),
    # FLAKY fails every attempt it matches; the applied log keeps
    # faults.APPLIED_LIMIT entries.
    "FaultInjector.schedule(fail_rate=)": lambda: FaultInjector().schedule(
        FaultKind.FLAKY, POINT, fail_rate=0.5),
    "Fault(fail_rate=)": lambda: Fault(FaultKind.FLAKY, POINT, fail_rate=0.5),
    "FaultInjector(applied_limit=)": lambda: FaultInjector(applied_limit=8),
    "SessionMux(fairness_budget=)": lambda: SessionMux(fairness_budget=8),
    "ApiConfig(history_depth=)": lambda: ApiConfig(history_depth=8),
    "TokenBucket.try_acquire(amount=)": lambda: TokenBucket(
        RateLimitConfig()).try_acquire(0, amount=2),
    "DeploymentConfig(key_bits=)": lambda: DeploymentConfig(key_bits=1024),
    "build_figure2(key_bits=)": lambda: build_figure2(key_bits=1024),
    "build_deep_hierarchy(key_bits=)":
        lambda: build_deep_hierarchy(key_bits=1024),
    "DeploymentConfig(shared_ee_keys=)":
        lambda: DeploymentConfig(flat=True, shared_ee_keys=False),
    "TopologyConfig(mid_providers=)": lambda: TopologyConfig(mid_providers=1),
    "TopologyConfig(stub_providers=)":
        lambda: TopologyConfig(stub_providers=1),
    "TopologyConfig(mid_peering_prob=)":
        lambda: TopologyConfig(mid_peering_prob=0.5),
    "ChurnConfig(new_roa_length=)": lambda: ChurnConfig(new_roa_length=16),
    "DetectionExperiment(epoch_seconds=)": lambda: DetectionExperiment(
        registry=RepositoryRegistry(), trust_anchors=[], churn=None,
        clock=Clock(), epoch_seconds=1, metrics=MetricsRegistry()),
    "validity_matrix(include_other=)": lambda: validity_matrix(
        VrpSet(), "10.0.0.0/24", include_other=False),
    "forward(max_hops=)": lambda: forward(None, 1, "10.0.0.1", max_hops=1),
    "plan_whack(allow_reissue=)":
        lambda: plan_whack(None, None, None, allow_reissue=False),
    "CertificateAuthority.publish(update_manifest=)":
        lambda: CertificateAuthority.publish(None, update_manifest=False),
    "CertificateAuthority._issue_rc(enforce_coverage=)":
        lambda: CertificateAuthority._issue_rc(
            None, subject="x", subject_public_key=None, ip_resources=None,
            as_resources=None, sia=POINT, validity=1,
            enforce_coverage=False),
    # A clock starts at the epoch; tests advance() it.
    "Clock(start=)": lambda: Clock(start=100),
    "build_table4_world(seed=)": lambda: build_table4_world(seed=4),
    "nested_bomb(depth=)": lambda: nested_bomb(depth=8),
    "DeploymentConfig(cross_border_rate=)":
        lambda: DeploymentConfig(cross_border_rate=0.15),
    # Every factory's keys are keys.KEY_BITS wide.
    "KeyFactory(bits=)": lambda: KeyFactory(seed=1, bits=256),
    # A signed object is built from its encoded payload and signature.
    "ResourceCertificate(payload dict)":
        lambda: ResourceCertificate({"type": "rc"}, b"signature"),
    "SignedObject(encoded_payload=)": lambda: SignedObject(
        {}, b"signature", encoded_payload=b""),
    "EECertificate(encoded_payload=)": lambda: EECertificate(
        {}, b"signature", encoded_payload=b""),
    # Options of subpackage exports that no caller outside the tests set.
    "is_probable_prime(rng=)": lambda: is_probable_prime(7, rng=None),
    "build_deep_hierarchy(seed=)": lambda: build_deep_hierarchy(seed=2014),
    "build_figure2(seed=)": lambda: build_figure2(seed=2014),
    "parse_address(afi=)": lambda: parse_address("::1", afi=None),
    "propagate(default_policy=)": lambda: propagate(
        AsGraph(), [], default_policy=None),
    "subprefix_hijack(subprefix=)": lambda: subprefix_hijack(
        "10.0.0.0/8", 1, 2, subprefix="10.0.0.0/9"),
    # A registry makes every metric and always passes both.
    "Metric(help=) omitted": lambda: Metric("repro_x_total", labelnames=()),
    "Metric(labelnames=) omitted": lambda: Metric("repro_x_total", help=""),
    # A registry renders its traces whenever it has any.
    "render_text(include_spans=)":
        lambda: render_text(MetricsRegistry(), include_spans=False),
    "MetricsRegistry.render_text(include_spans=)":
        lambda: MetricsRegistry().render_text(include_spans=False),
    # No authority publishes a contact record, so no alert names one.
    "Alert(contact=)": lambda: Alert(
        AlertKind.STEALTHY_DELETION, POINT, "a.roa", "gone", contact="NOC"),
}


@pytest.mark.parametrize("make", REMOVED.values(), ids=REMOVED.keys())
def test_removed_option_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()


def import_scheduler_config():
    from repro.repository.scheduler import SchedulerConfig  # noqa: F401


def import_default_memo_entries():
    from repro.rp.incremental import DEFAULT_MEMO_ENTRIES  # noqa: F401


def import_always_reachable_from_facade():
    from repro import always_reachable  # noqa: F401


def import_reset_default_metrics_from_facade():
    from repro import reset_default_metrics  # noqa: F401


def import_trace_from_facade():
    from repro import trace  # noqa: F401


def import_trace_from_telemetry():
    from repro.telemetry import trace  # noqa: F401


def import_span_from_facade():
    from repro import Span  # noqa: F401


def import_span_from_telemetry():
    from repro.telemetry import Span  # noqa: F401


def import_trace_into():
    from repro.telemetry.tracing import trace_into  # noqa: F401


def import_hotspot():
    from repro.profiling import Hotspot  # noqa: F401


def import_top_hotspots():
    from repro.profiling import top_hotspots  # noqa: F401


def import_decode_pdus():
    from repro.rtr import decode_pdus  # noqa: F401


def import_prefix_pdu():
    from repro.rtr import PrefixPdu  # noqa: F401


def import_sideeffects_module():
    import repro.core.sideeffects  # noqa: F401


def import_demonstrate():
    from repro.core import demonstrate  # noqa: F401


def import_demonstrate_all_from_core():
    from repro.core import demonstrate_all  # noqa: F401


def import_side_effects_table():
    from repro.core import SIDE_EFFECTS  # noqa: F401


def import_side_effect_report_from_core():
    from repro.core import SideEffectReport  # noqa: F401


def import_timeline_module():
    import repro.core.timeline  # noqa: F401


def import_timeline_runner():
    from repro.core import TimelineRunner  # noqa: F401


def import_uri_module_from_repository():
    import repro.repository.uri  # noqa: F401


def import_rsync_uri_from_repository():
    from repro.repository import RsyncUri  # noqa: F401


def import_uri_error_from_repository():
    from repro.repository import UriError  # noqa: F401


def import_resource_set_to_data():
    from repro.rpki.objects import resource_set_to_data  # noqa: F401


def import_asn_set_to_data():
    from repro.rpki.objects import asn_set_to_data  # noqa: F401


def import_prefix_to_data():
    from repro.rpki.objects import prefix_to_data  # noqa: F401


def import_encode_parts():
    from repro.crypto.encoding import encode_parts  # noqa: F401


def import_encode():
    from repro.crypto import encode  # noqa: F401


def import_prefix_hijack():
    from repro.bgp import prefix_hijack  # noqa: F401


def import_matrix_cell():
    from repro.core import MatrixCell  # noqa: F401


def import_rir_of_country():
    from repro.jurisdiction import rir_of_country  # noqa: F401


def import_build_crl():
    from repro.rpki import build_crl  # noqa: F401


def import_build_manifest():
    from repro.rpki import build_manifest  # noqa: F401


def import_build_deep_hierarchy():
    from repro.modelgen import build_deep_hierarchy  # noqa: F401


def import_reset_default_metrics():
    from repro.telemetry import reset_default_metrics  # noqa: F401


def import_detect_equivocation_from_facade():
    from repro import detect_equivocation  # noqa: F401


def import_detect_equivocation():
    from repro.monitor import detect_equivocation  # noqa: F401


def import_build_ghostbusters():
    from repro.rpki import build_ghostbusters  # noqa: F401


def import_ghostbusters_file():
    from repro.rpki import GHOSTBUSTERS_FILE  # noqa: F401


# Classes no caller outside the tests ever configured, the memo bound's
# old name, facade names nothing outside the tests imported (the first
# two stay in repro.repository and repro.telemetry), the module-level
# trace (MetricsRegistry.trace stays), the flat span and the cProfile
# rows (a refresh records a tree of TraceNode; repro.profiling reads its
# stage table), and the per-PDU view of the RTR
# decoder (decode_runs is the one decoder; PrefixPdu lives on in the
# tests' reference codec), the side-effect catalogue's old home (it is
# in repro.experiments, where demonstrate_all and SideEffectReport
# stay), the test-only timeline runner, the URI module's old home
# (RsyncUri and UriError are in repro.rpki), and the payload-dictionary
# helpers and list joiner the schema-directed writer replaced (the
# dict-and-encode builders live on in tests/rpki/reference_build.py),
# and the generic encoder the typed leaf writers replaced (it lives on
# as tests/crypto/reference_codec.encode), and the definitions nothing
# outside the tests called (tools/check_facade.py check 5: the CRL and
# manifest builders live on in tests/rpki/reference_build.py, the deep
# hierarchy in tests/helpers.py, a registry reset is
# default_registry().reset(), the Ghostbusters builder and file name
# live on in tests/rpki/forge.py, and the split-view detector is gone:
# a monitor at one vantage point sees one view): importing one is an
# ImportError.
GONE = {
    "SchedulerConfig": import_scheduler_config,
    "DEFAULT_MEMO_ENTRIES": import_default_memo_entries,
    "repro.always_reachable": import_always_reachable_from_facade,
    "repro.reset_default_metrics": import_reset_default_metrics_from_facade,
    "repro.trace": import_trace_from_facade,
    "repro.telemetry.trace": import_trace_from_telemetry,
    "repro.Span": import_span_from_facade,
    "repro.telemetry.Span": import_span_from_telemetry,
    "repro.telemetry.tracing.trace_into": import_trace_into,
    "repro.profiling.Hotspot": import_hotspot,
    "repro.profiling.top_hotspots": import_top_hotspots,
    "repro.rtr.decode_pdus": import_decode_pdus,
    "repro.rtr.PrefixPdu": import_prefix_pdu,
    "repro.core.sideeffects": import_sideeffects_module,
    "repro.core.demonstrate": import_demonstrate,
    "repro.core.demonstrate_all": import_demonstrate_all_from_core,
    "repro.core.SIDE_EFFECTS": import_side_effects_table,
    "repro.core.SideEffectReport": import_side_effect_report_from_core,
    "repro.core.timeline": import_timeline_module,
    "repro.core.TimelineRunner": import_timeline_runner,
    "repro.repository.uri": import_uri_module_from_repository,
    "repro.repository.RsyncUri": import_rsync_uri_from_repository,
    "repro.repository.UriError": import_uri_error_from_repository,
    "repro.rpki.objects.resource_set_to_data": import_resource_set_to_data,
    "repro.rpki.objects.asn_set_to_data": import_asn_set_to_data,
    "repro.rpki.objects.prefix_to_data": import_prefix_to_data,
    "repro.crypto.encoding.encode_parts": import_encode_parts,
    "repro.crypto.encode": import_encode,
    "repro.bgp.prefix_hijack": import_prefix_hijack,
    "repro.core.MatrixCell": import_matrix_cell,
    "repro.jurisdiction.rir_of_country": import_rir_of_country,
    "repro.rpki.build_crl": import_build_crl,
    "repro.rpki.build_manifest": import_build_manifest,
    "repro.modelgen.build_deep_hierarchy": import_build_deep_hierarchy,
    "repro.telemetry.reset_default_metrics": import_reset_default_metrics,
    "repro.detect_equivocation": import_detect_equivocation_from_facade,
    "repro.monitor.detect_equivocation": import_detect_equivocation,
    "repro.rpki.build_ghostbusters": import_build_ghostbusters,
    "repro.rpki.GHOSTBUSTERS_FILE": import_ghostbusters_file,
}


@pytest.mark.parametrize("load", GONE.values(), ids=GONE.keys())
def test_removed_name_is_an_import_error(load):
    with pytest.raises(ImportError):
        load()


# Methods, properties and alert kinds nothing outside the tests used
# (tools/check_facade.py check 5): reading one is an AttributeError.
GONE_ATTRIBUTES = [
    "repro.api.TokenBucket.peek",
    "repro.bgp.AsGraph.customers_of",
    "repro.bgp.AsGraph.links",
    "repro.bgp.AsGraph.peers_of",
    "repro.bgp.AsGraph.providers_of",
    "repro.bgp.DeliveryOutcome.delivered",
    "repro.bgp.Rib.route_for",
    "repro.bgp.Rib.routes",
    "repro.bgp.Rib.withdraw",
    "repro.bgp.RoutingOutcome.has_route",
    "repro.bgp.RoutingOutcome.route_at",
    "repro.core.BlastRadius.amplification",
    "repro.core.RepositoryDependencyGraph.self_hosted_points",
    "repro.core.RolloutPlan.is_clean",
    "repro.crypto.KeyFactory.clear_cache",
    "repro.crypto.RsaPublicKey.cache_key",
    "repro.monitor.AlertKind.EQUIVOCATION",
    "repro.monitor.CertChange.same_key",
    "repro.monitor.RpkiSnapshot.contacts",
    "repro.repository.FetchScheduler.expected_cost",
    "repro.repository.FetchScheduler.spend",
    "repro.repository.LocalCache.all_files",
    "repro.repository.LocalCache.forget",
    "repro.resources.AddressRange.adjacent_to",
    "repro.resources.AddressRange.contains_address",
    "repro.resources.AddressRange.covers_prefix",
    "repro.resources.AsnRange.contains",
    "repro.resources.AsnSet.of",
    "repro.resources.AsnSet.universe",
    "repro.resources.Prefix.covered_by",
    "repro.resources.Prefix.from_host",
    "repro.resources.ResourceSet.covers_address",
    "repro.resources.ResourceSet.intersect",
    "repro.resources.ResourceSet.universe",
    "repro.rp.DegradationReport.summary",
    "repro.rp.LocalOverrides.force",
    "repro.rp.RefreshReport.budget_exhausted",
    "repro.rpki.CertificateAuthority.contact",
    "repro.rpki.CertificateAuthority.find_roa",
    "repro.rpki.CertificateAuthority.mirror_uris",
    "repro.rpki.CertificateAuthority.set_contact",
    "repro.rpki.GhostbustersRecord.email",
    "repro.rpki.InMemoryPublicationPoint.revision",
    "repro.rpki.RsyncUri.directory",
    "repro.telemetry.Counter.pull",
    "repro.telemetry.Gauge.dec",
    "repro.telemetry.metrics._GaugeChild.dec",
]


@pytest.mark.parametrize("path", GONE_ATTRIBUTES)
def test_removed_definition_is_an_attribute_error(path):
    module, owner, name = path.rsplit(".", 2)
    cls = getattr(importlib.import_module(module), owner)
    with pytest.raises(AttributeError):
        getattr(cls, name)


# A relying party's state keeps point results in the last walk's levels
# alone: the second store and its writer are gone.
@pytest.mark.parametrize("name", ["points", "store"])
def test_removed_state_attribute_is_an_attribute_error(name):
    state = IncrementalState(metrics=MetricsRegistry())
    with pytest.raises(AttributeError):
        getattr(state, name)


# Local overrides are pins and filters alone: no forced route state.
def test_overrides_force_no_route_state():
    with pytest.raises(AttributeError):
        getattr(LocalOverrides(), "forced")


def test_the_constants_are_in_force():
    assert InMemoryPublicationPoint()._history.maxlen == DEFAULT_HISTORY_LIMIT
    assert hosted()._history.maxlen == DEFAULT_HISTORY_LIMIT
    assert memo.MAX_ENTRIES == 65536
    assert faults.APPLIED_LIMIT == 256
    assert FaultInjector().applied.maxlen == faults.APPLIED_LIMIT
    assert mux.FAIRNESS_BUDGET == 64
    assert api_service.HISTORY_DEPTH == 32
    rp = figure2_rp()
    assert rp.clock is rp.fetcher.clock
    service = QueryService(rp, metrics=MetricsRegistry())
    assert service._history.maxlen == api_service.HISTORY_DEPTH
    assert service._clock is rp.clock
    assert (gen.MID_PROVIDERS, gen.STUB_PROVIDERS, gen.MID_PEERING_PROB) == (
        2, 2, 0.2)
    assert churn.NEW_ROA_LENGTH == 24
    assert experiment.EPOCH_SECONDS == HOUR
    assert forwarding.MAX_HOPS == 64
    assert validity_matrix(VrpSet(), "10.0.0.0/24").origins == (OTHER_ORIGIN,)
    assert Clock().now == 0
    assert faults.BOMB_DEPTH == 4000
    assert deployment.CROSS_BORDER_RATE == 0.15
    assert keys.KEY_BITS == 512
