"""Counts an authority chooses, at the cost of an honest input that size.

The paper's adversary is an authority signing objects it is entitled to
sign, so every count it picks must cost what an honest input of the same
size costs (bound ~5x), at two sizes.  Cost is counted in operations —
Python function calls, and the snapshot records a monitor walks — so a
pin reads the same on every run and every box, and RSA, which both
sides pay, cannot hide a superlinear term:

- **prefixes per ROA** — one ROA naming N scattered prefixes against N
  one-prefix ROAs, from the relying party's read of the bytes through
  the row, the VRP index and an RTR burst to a router.  The ROA is
  judged prefix by prefix against its EE certificate's ranges by
  bisection; a scan there made one such ROA cost N**2, which shows as
  its calls growing faster than the honest side's from one size to the
  next.
- **withdrawals per monitor epoch** — an authority deleting N of its
  ROAs with no CRL entry (N stealthy-deletion alerts) against one
  issuing N new ROAs.  Each alert looks up its point's contact in an
  index built once per snapshot; a scan of every record per alert made
  the epoch cost N**2, which shows as records walked per alert.
- **resource ranges per certificate** — one child RC holding N scattered
  ranges, reissued with one range removed, against N one-range child
  RCs, each renewed, over one monitor epoch (snapshot, diff, analyze).
  The lost space is one subtraction, a linear merge of the two sorted
  range tuples; subtracting every range from every range made the epoch
  cost N**2.
- **prefix PDUs a hostile cache sends a router** — one burst whose flag
  flips on every PDU, and one announcing one VRP N times, against the
  honest burst of N announces.  A router reads a burst as stretches of
  one header, each a flag column beside its VRPs, decoded and checked a
  column at a time and applied with one set operation at End of Data
  (a fold, where a stretch both announces and withdraws or the burst is
  handed on).  So the hostile
  bursts are counted in C calls too (per stretch, not per PDU, is where
  their cost would hide); the honest sync makes the same Python and C
  calls for 2,000 PDUs as for 500, and no ``VRP.from_integers``.  A
  burst whose family alternates on every PDU is a stretch per PDU: its
  calls grow linearly and stay at or below the per-PDU decoder's, as
  a share of what the per-PDU reference router makes for it.
- **VRPs per authority through an RTR cache** — whatever an authority
  makes a relying party believe, every cache hop installs as a delta,
  encodes, and serves in its next snapshot.  A hop installing N changed
  VRPs of both families (announced and withdrawn, in the sorted wire
  order an upstream hands on) and encoding that delta into its history,
  the encoder alone, and the settling of the served order for a
  snapshot, each make the same Python and C calls for 2,000 VRPs as for
  500.  Bisecting each VRP into the served order
  and packing one PDU per VRP made them grow with N.
- **VRPs per table, to a route classified under local overrides** —
  however many VRPs the authorities' ROAs make, a route is classified
  under an operator's filters and pins from the VRPs that cover it and
  the pins.  Building the filtered, pinned copy of the whole table for
  each route made one classification cost the table.
- **entries in an object of no known type** — a signed list of N
  manifest-shaped entries under an unknown type tag, against a manifest
  of N entries.  The schema refuses it at the tag, and the reject path
  then walks it whole with the generic decoder to say what is wrong, so
  its calls per entry are pinned flat and near their measured value.
"""

import cProfile
import gc
from collections import Counter

from repro.crypto import KeyFactory
from repro.crypto import decode, sha256_hex
from repro.monitor import AlertKind, analyze, diff_snapshots, take_snapshot
from repro.repository import Fetcher, HostLocator, RepositoryRegistry
from repro.resources import ASN, AddressRange, Afi, Prefix, ResourceSet
from repro.rp import (
    LocalOverrides,
    RelyingParty,
    Route,
    RouteValidity,
    VrpSet,
    classify_with_overrides,
)
from repro.rp.vrp import VRP
from repro.rpki import (
    CertificateAuthority,
    ObjectFormatError,
    RoaPrefix,
    parse_object,
)
from repro.rpki.objects import _read_payload, build_signed, read_signed, read_str_map
from repro.rtr import (
    CacheResponse,
    DuplexPipe,
    EndOfData,
    RtrCacheServer,
    RtrRouterClient,
    encode_prefixes,
)
from repro.simtime import Clock
from repro.telemetry import MetricsRegistry

from .rpki.forge import forge
from .rpki.reference_build import build_manifest
from .rtr.per_pdu import PrefixPdu, encode_pdu
from .rtr.reference_router import ReferenceRouter

ORIGIN = ASN(64_500)
HOLDING = Prefix.parse("10.0.0.0/8")
SIZES = (100, 400)
EE_KEY = KeyFactory(seed=4_242).next_keypair()


def scattered(count):
    """*count* /24s inside HOLDING, every other one: no two ranges of the
    EE certificate's resources merge, so the ROA's prefixes are judged
    one by one."""
    return [RoaPrefix(Prefix(Afi.IPV4, HOLDING.network + (i << 9), 24))
            for i in range(count)]


def holder_world():
    """A trust anchor and one authority holding HOLDING, nothing issued."""
    clock = Clock()
    registry = RepositoryRegistry()
    servers = [
        registry.create_server(host, HostLocator.parse(address, 64_496))
        for host, address in (("root.example", "192.0.2.1"),
                              ("holder.example", "192.0.2.2"))
    ]
    root = CertificateAuthority.create_trust_anchor(
        handle="root", ip_resources=ResourceSet.parse("10.0.0.0/8"),
        clock=clock, key_factory=KeyFactory(seed=23),
        sia="rsync://root.example/repo/",
        publication_point=servers[0].mount("rsync://root.example/repo/"),
    )
    holder = root.issue_child_authority(
        "holder", ResourceSet.parse(str(HOLDING)),
        sia="rsync://holder.example/repo/",
        publication_point=servers[1].mount("rsync://holder.example/repo/"),
    )
    return clock, registry, root, holder


def issue_each(holder, prefixes):
    """One one-prefix ROA per prefix; returns their file names."""
    with holder.deferred_publication():
        return [holder.issue_roa(ORIGIN, [prefix], ee_key=EE_KEY)[0]
                for prefix in prefixes]


def snapshot_of(world):
    """What a monitor starting from a :func:`holder_world`'s trust
    anchor sees in its repositories now."""
    clock, registry, root, _holder = world
    return take_snapshot(registry, clock.now,
                         trust_anchors=[root.certificate])


def calls_by_function(work, *, builtins=False) -> Counter:
    """The calls *work* makes, by function: Python functions by code
    object, and C functions too (by description) when *builtins*.  The
    collector is off meanwhile, so no garbage-collection callback is
    counted."""
    profile = cProfile.Profile(builtins=builtins)
    collecting = gc.isenabled()
    gc.disable()
    profile.enable()
    try:
        work()
    finally:
        profile.disable()
        if collecting:
            gc.enable()
    calls = Counter()
    for entry in profile.getstats():
        calls[entry.code] += entry.callcount
    return calls


def python_calls(work) -> int:
    """The Python function calls *work* makes."""
    return calls_by_function(work).total()


class Walked(dict):
    """A snapshot's records, counting each one a walk of them yields."""

    visits = 0

    def _walk(self, walk):
        for item in walk():
            self.visits += 1
            yield item

    def __iter__(self):
        return self._walk(super().__iter__)

    def values(self):
        return self._walk(super().values)

    def items(self):
        return self._walk(super().items)


def refresh_to_a_router(clock, registry, root, expected):
    """A new relying party's cold refresh, into an RTR cache and on to a
    router; the work the timer sees."""
    rp = RelyingParty([root.certificate], Fetcher(registry, clock),
                      metrics=MetricsRegistry())
    cache = RtrCacheServer(metrics=MetricsRegistry())
    pipe = DuplexPipe()
    cache.attach(pipe)
    router = RtrRouterClient(pipe)
    router.connect()
    report = rp.refresh()
    cache.apply_delta(report.announced, report.withdrawn)
    for _ in range(3):
        cache.process()
        router.process()
    assert report.run.errors() == []
    assert router.vrp_count == len(rp.vrps) == expected


def test_prefixes_per_roa_cost_what_one_prefix_roas_cost():
    calls = {}
    for count in SIZES:
        prefixes = scattered(count)
        hostile = holder_world()
        hostile[3].issue_roa(ORIGIN, prefixes, ee_key=EE_KEY)
        honest = holder_world()
        issue_each(honest[3], prefixes)
        calls[count] = (
            python_calls(lambda: refresh_to_a_router(*hostile[:3], count)),
            python_calls(lambda: refresh_to_a_router(*honest[:3], count)),
        )
    for hostile_calls, honest_calls in calls.values():
        assert hostile_calls < 5 * honest_calls
    (small_hostile, small_honest), (large_hostile, large_honest) = (
        calls[count] for count in SIZES)
    # Linear (to a log factor) as the honest side is: a per-prefix scan
    # of the EE certificate's ranges more than doubles this growth.
    assert large_hostile / small_hostile < 1.5 * large_honest / small_honest


def test_stealthy_withdrawals_cost_what_issues_cost():
    for count in SIZES:
        world = holder_world()
        holder = world[3]
        empty = snapshot_of(world)
        names = issue_each(holder, scattered(count))
        full = snapshot_of(world)
        with holder.deferred_publication():
            for name in names:
                holder.delete_object(name)
        whacked = snapshot_of(world)

        withdrawn = diff_snapshots(full, whacked)
        issued = diff_snapshots(empty, full)
        assert analyze(issued, empty, full) == []
        hostile_calls = python_calls(lambda: analyze(withdrawn, full, whacked))
        honest_calls = python_calls(lambda: analyze(issued, empty, full))
        assert hostile_calls < 5 * honest_calls

        # Each snapshot is walked at most four times, not once per alert.
        for snapshot in (full, whacked):
            snapshot.records = Walked(snapshot.records)
        alerts = analyze(withdrawn, full, whacked)
        assert [alert.kind for alert in alerts] == (
            [AlertKind.STEALTHY_DELETION] * count)
        assert alerts[0].contact is None
        walked = full.records.visits + whacked.records.visits
        assert walked <= 4 * (len(full.records) + len(whacked.records))


def test_ranges_per_certificate_cost_what_one_range_certificates_cost():
    for count in SIZES:
        ranges = [AddressRange.from_prefix(roa_prefix.prefix)
                  for roa_prefix in scattered(count)]
        hostile_world = holder_world()
        hostile = hostile_world[3]
        victim = hostile.issue_child_authority("victim", ResourceSet(ranges))
        hostile_before = snapshot_of(hostile_world)
        hostile.overwrite_child_cert(
            victim.key_id, victim.resources.subtract(ranges[count // 2]))

        honest_world = holder_world()
        honest = honest_world[3]
        with honest.deferred_publication():
            children = [honest.issue_child_authority(
                f"customer-{i}", ResourceSet([range_]))
                for i, range_ in enumerate(ranges)]
        honest_before = snapshot_of(honest_world)
        with honest.deferred_publication():
            for child in children:
                honest.overwrite_child_cert(child.key_id, child.resources)

        def epoch(world, before):
            after = snapshot_of(world)
            return analyze(diff_snapshots(before, after), before, after)

        alerts = []
        hostile_calls = python_calls(lambda: alerts.extend(
            epoch(hostile_world, hostile_before)))
        assert [alert.kind for alert in alerts] == [AlertKind.RC_SHRUNK]
        assert alerts[0].detail == f"lost {ResourceSet([ranges[count // 2]])}"
        honest_calls = python_calls(
            lambda: epoch(honest_world, honest_before))
        assert hostile_calls < 5 * honest_calls


def burst_to_a_router(pdus, *, builtins=False, chained=False,
                      router_class=RtrRouterClient) -> Counter:
    """The calls one router makes reading a reset burst of *pdus* and
    applying it; *chained*, it also hands the burst on, as a chained
    cache does."""
    router = router_class(DuplexPipe(), on_burst=(
        (lambda reset, announced, withdrawn: None) if chained else None))
    router.connect()
    router.pipe.to_router.send(b"".join(map(encode_pdu, (
        CacheResponse(1), *pdus, EndOfData(1, 1)))))
    calls = calls_by_function(router.process, builtins=builtins)
    assert router.serial == 1 and router.errors == []
    return calls


def table_of(count):
    return [VRP(roa_prefix.prefix, 24, ORIGIN)
            for roa_prefix in scattered(count)]


def test_a_router_full_sync_is_one_vrp_per_prefix_pdu():
    calls = [burst_to_a_router([PrefixPdu(True, vrp)
                                for vrp in table_of(count)], builtins=True)
             for count in (500, 2_000)]
    assert VRP.from_integers.__code__ not in calls[0] + calls[1]
    # No PDU object, no dispatch, no check or apply step per PDU, in
    # Python or in C: every call runs as often for 2,000 PDUs as for 500.
    assert calls[0] == calls[1]


def alternating(count):
    """*count* announces whose family alternates, IPv4 first: every
    prefix PDU a stretch of its own."""
    return [PrefixPdu(True, vrp if i % 2 == 0 else VRP(
        Prefix(Afi.IPV6, (0x2001_0DB8 << 96) | (i << 72), 56), 56, ORIGIN))
        for i, vrp in enumerate(table_of(count))]


def test_a_burst_alternating_families_costs_no_more_per_pdu():
    # The per-PDU decoder (one ``VRP.from_integers`` and one loop pass per
    # prefix PDU) made 20,024 calls for the 2,000-PDU burst, 24,027 as a
    # chained cache, where the per-PDU reference router, counted the same
    # way in the same process, made 55,037 and 55,043.  A router makes at
    # most that share of the reference's calls, at both sizes: a share,
    # not a count, so an interpreter that counts calls its own way moves
    # both sides.
    per_pdu_share = {False: 20_024 / 55_037, True: 24_027 / 55_043}
    for chained, share in per_pdu_share.items():
        small, large = (
            burst_to_a_router(alternating(count), builtins=True,
                              chained=chained).total()
            for count in (500, 2_000))
        reference_small, reference_large = (
            burst_to_a_router(alternating(count), builtins=True,
                              chained=chained,
                              router_class=ReferenceRouter).total()
            for count in (500, 2_000))
        assert large <= 4.4 * small
        assert small <= share * reference_small
        assert large <= share * reference_large


def both_families(count):
    """*count* IPv4 and *count* IPv6 VRPs, sorted as a cache serves them."""
    return sorted(table_of(count) + [
        VRP(Prefix(Afi.IPV6, (0x2001_0DB8 << 96) | (i << 72), 56), 56, ORIGIN)
        for i in range(count)])


def test_a_cache_hop_costs_the_same_calls_whatever_the_delta_size():
    costs = []
    for count in (500, 2_000):
        table = both_families(count)
        served, fresh = table[0::2], table[1::2]
        cache = RtrCacheServer(history_window=1, metrics=MetricsRegistry())
        cache.apply_delta(served, ())
        cache._snapshot_burst()
        # Half the delta withdrawn, half announced: *count* in all.
        announced, withdrawn = fresh[::2], served[::2]
        # The install encodes the delta once, into the history; the
        # encoder is counted alone too.
        install = calls_by_function(
            lambda: cache.apply_delta(announced, withdrawn), builtins=True)
        assert len(announced) + len(withdrawn) == count
        assert cache.serial == 2
        encode = calls_by_function(lambda: (
            encode_prefixes(False, withdrawn), encode_prefixes(True, announced)
        ), builtins=True)
        snapshot = calls_by_function(cache._snapshot_burst, builtins=True)
        assert cache._snapshot_burst()[1] == count == cache.vrp_count
        costs.append((install, encode, snapshot))
    for small, large in zip(*costs):
        assert small == large


def test_prefix_pdus_a_hostile_cache_sends_cost_what_honest_ones_cost():
    for count in (500, 2_000):
        table = table_of(count)
        honest = [PrefixPdu(True, vrp) for vrp in table]
        flips = [PrefixPdu(i % 2 == 0, vrp) for i, vrp in enumerate(table)]
        duplicates = [PrefixPdu(True, table[0])] * count
        for chained in (False, True):
            honest_calls, flips_calls, duplicates_calls = (
                burst_to_a_router(pdus, builtins=True, chained=chained).total()
                for pdus in (honest, flips, duplicates))
            assert flips_calls < 5 * honest_calls
            assert duplicates_calls < 5 * honest_calls


def a_point_holding(count, *, revoked=0):
    """A :func:`holder_world`'s holder publishing *count* one-prefix
    ROAs after revoking *revoked* more, and two prefixes it has not
    used."""
    holder = holder_world()[3]
    prefixes = scattered(count + revoked + 2)
    names = issue_each(holder, prefixes[:count + revoked])
    with holder.deferred_publication():
        for name in names[count:]:
            holder.revoke_roa(name)
    return holder, prefixes[-2:]


def issue_and_revoke(holder, prefix):
    name, _roa = holder.issue_roa(ORIGIN, [prefix], ee_key=EE_KEY)
    holder.revoke_roa(name)


def test_a_publish_writes_its_objects_and_reads_none_back():
    holder, (warm, measured) = a_point_holding(50)
    issue_and_revoke(holder, warm)
    calls = calls_by_function(lambda: issue_and_revoke(holder, measured))
    for function in (decode, read_signed, _read_payload, read_str_map):
        assert calls[function.__code__] == 0, function.__name__
    # The EE certificate, the ROA, and a CRL and a manifest per publish.
    assert calls[build_signed.__code__] == 6


def test_an_issue_costs_what_changed_not_what_the_point_holds():
    calls = {}
    for count in (50, 200):
        holder, (warm, measured) = a_point_holding(count)
        issue_and_revoke(holder, warm)
        calls[count] = calls_by_function(
            lambda: holder.issue_roa(ORIGIN, [measured], ee_key=EE_KEY),
            builtins=True).total()
    assert calls[200] <= 1.2 * calls[50]


def test_a_publish_costs_nothing_per_serial_ever_revoked():
    calls = {}
    for revoked in (0, 400):
        holder, (warm, measured) = a_point_holding(50, revoked=revoked)
        issue_and_revoke(holder, warm)
        name, _roa = holder.issue_roa(ORIGIN, [measured], ee_key=EE_KEY)
        calls[revoked] = calls_by_function(
            lambda: holder.revoke_roa(name), builtins=True).total()
    assert calls[400] <= 1.1 * calls[0]


# Measured: 6.10 Python calls per entry at 256 entries, 6.02 at 1,024
# (a list, its two strings, and their headers).  Pinned with ~10 %
# headroom.
REJECT_CALLS_PER_ENTRY = 6.7


def listing(count):
    return {f"roa-{i}.roa": sha256_hex(b"%d" % i) for i in range(count)}


def test_an_object_of_no_known_type_costs_what_its_entries_cost():
    per_entry = {}
    for count in (256, 1_024):
        hostile = forge({"type": "alien", "entries": [
            list(pair) for pair in listing(count).items()]}, EE_KEY)
        honest = build_manifest(
            issuer_key=EE_KEY, issuer_key_id=EE_KEY.key_id,
            entries=listing(count), serial=1, this_update=0, next_update=1,
        ).to_bytes()

        def refuse():
            try:
                parse_object(hostile)
            except ObjectFormatError as exc:
                assert "its type is 'alien'" in str(exc)
            else:
                raise AssertionError("an alien type was accepted")

        hostile_calls = python_calls(refuse)
        honest_calls = python_calls(lambda: parse_object(honest))
        assert hostile_calls < 5 * honest_calls
        per_entry[count] = hostile_calls / count
        assert per_entry[count] <= REJECT_CALLS_PER_ENTRY
    # Flat: nothing on the reject path grows faster than the entries.
    assert per_entry[1_024] <= 1.1 * per_entry[256]


def test_a_route_under_overrides_costs_its_covering_vrps_not_the_table():
    overrides = LocalOverrides().filter(asn=64_501).pin("10.0.0.0/16-24",
                                                        64_502)
    calls, states = [], set()
    for count in (500, 2_000):
        table = VrpSet(table_of(count))
        route = Route(table_of(1)[0].prefix, ORIGIN)
        calls.append(python_calls(
            lambda: classify_with_overrides(route, table, overrides)))
        states.add(classify_with_overrides(route, table, overrides))
        states.add(classify_with_overrides(
            Route(route.prefix, ASN(64_502)), table, overrides))
    assert states == {RouteValidity.VALID}
    # Every call runs as often over 2,000 VRPs as over 500.
    assert calls[0] == calls[1]
