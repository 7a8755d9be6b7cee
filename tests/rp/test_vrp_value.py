"""What a ``VRP`` is as a value, pinned apart from how it is stored.

A ``VRP`` is the tuple ``(address bits, network, prefix length,
maxLength, AS number)``, built either from a ``Prefix`` and an ``ASN``
or from the five integers.  Everything a caller could see — order,
equality, hash, refusals and their texts, immutability, printing,
copying — is stated here against the slow spelling
``VRP(Prefix(afi, n, l), m, ASN(a))`` and the reference sort key under
``tests/rtr/``.
"""

import copy
import dataclasses
import hashlib
import pickle
import random
import sys

import pytest

from repro.modelgen import INTERNET_SCALES, build_deployment
from repro.repository import Fetcher
from repro.resources import ASN, Afi, Prefix
from repro.rp import RelyingParty
from repro.rp.vrp import VRP, VrpSet
from repro.rtr import RtrCacheServer, encode_prefixes
from repro.telemetry import MetricsRegistry

from ..rtr.reference_codec import wire_order

MODULUS = sys.hash_info.modulus                      # 2**61 - 1 on CPython


def seeded_vrps(count, seed=2013):
    """VRPs of both families, each with its ties: same prefix under
    another maxLength and another AS, same network one bit longer; IPv6
    networks below ``MODULUS`` (they hash as themselves as ``int``s) and
    above it."""
    rng = random.Random(seed)
    vrps = []
    while len(vrps) < count:
        afi = rng.choice((Afi.IPV4, Afi.IPV6))
        length = rng.randint(0, afi.bits)
        network = rng.getrandbits(length) << (afi.bits - length) if length else 0
        if afi is Afi.IPV6 and rng.random() < 0.4:
            # A network under 2**61 - 1: zero above bit 60, cut to length.
            network = rng.getrandbits(60) >> max(0, 128 - length) << max(
                0, 128 - length)
        prefix = Prefix(afi, network, length)
        asn = rng.choice((0, 1, 64512, 2**32 - 1, rng.getrandbits(32)))
        max_length = rng.randint(length, afi.bits)
        vrps.append(VRP(prefix, max_length, ASN(asn)))
        vrps.append(VRP(prefix, rng.randint(length, afi.bits), ASN(asn)))
        vrps.append(VRP(prefix, max_length, ASN(rng.getrandbits(32))))
        if length < afi.bits:
            vrps.append(VRP(Prefix(afi, network, length + 1), afi.bits,
                            ASN(asn)))
    rng.shuffle(vrps)
    return vrps


def fields(vrp):
    prefix = vrp.prefix
    return (prefix.afi, prefix.network, prefix.length, vrp.max_length,
            int(vrp.asn))


def outcome(build):
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


class TestOrder:
    def test_sorted_is_the_reference_key_order(self):
        vrps = seeded_vrps(12_000)
        wide = [v.prefix.network for v in vrps if v.prefix.afi is Afi.IPV6]
        assert any(n < MODULUS for n in wide if n)
        assert any(n > MODULUS for n in wide)
        assert {v.prefix.afi for v in vrps} == {Afi.IPV4, Afi.IPV6}
        assert sorted(vrps) == sorted(vrps, key=wire_order)
        # ... and so do every comparison operator and a VrpSet's view.
        rng = random.Random(7)
        for a, b in zip(rng.sample(vrps, 2_000), rng.sample(vrps, 2_000)):
            assert (a < b) == (wire_order(a) < wire_order(b))
            assert (a <= b) == (wire_order(a) <= wire_order(b))
            assert (a == b) == (wire_order(a) == wire_order(b))
        assert list(VrpSet(vrps)) == sorted(set(vrps), key=wire_order)

    def test_ipv4_sorts_before_ipv6_whatever_the_network(self):
        low6 = VRP.parse("::/0", 0)
        high4 = VRP.parse("255.255.255.255/32", 2**32 - 1)
        assert high4 < low6 and sorted([low6, high4]) == [high4, low6]


class TestTwoConstructors:
    def test_equal_values_equal_hashes(self):
        for vrp in seeded_vrps(4_000, seed=5):
            twin = VRP.from_integers(*fields(vrp))
            assert twin == vrp and hash(twin) == hash(vrp)
            assert type(twin) is VRP and tuple(twin) == tuple(vrp)
            assert len({vrp, twin}) == 1

    def test_by_keyword_and_by_position(self):
        prefix, asn = Prefix.parse("63.160.0.0/12"), ASN(1239)
        assert VRP(prefix, 13, asn) == VRP(
            prefix=prefix, max_length=13, asn=asn
        ) == VRP.from_integers(Afi.IPV4, prefix.network, 12, 13, 1239)

    @pytest.mark.parametrize("afi, network, length, max_length, asn", [
        (Afi.IPV4, 10 << 24, 33, 33, 1),             # length > bits
        (Afi.IPV6, 1 << 127, 129, 129, 1),
        (Afi.IPV4, (10 << 24) | 1, 8, 8, 1),         # host bits set
        (Afi.IPV6, (1 << 127) | 1, 64, 64, 1),
        (Afi.IPV4, 10 << 24, 16, 15, 1),             # maxLength < length
        (Afi.IPV6, 1 << 127, 48, 47, 1),
        (Afi.IPV4, 10 << 24, 8, 33, 1),              # maxLength > bits
        (Afi.IPV6, 1 << 127, 48, 129, 1),
        (Afi.IPV4, 10 << 24, 8, 8, 2**32),           # AS number > 2^32 - 1
        (Afi.IPV6, 1 << 127, 48, 48, 2**32),
        (Afi.IPV4, 1 << 32, 0, 0, 1),                # network out of range
        (Afi.IPV6, 1 << 128, 0, 0, 1),
        (Afi.IPV4, -(1 << 24), 8, 8, 1),             # negative anything
        (Afi.IPV4, 10 << 24, -1, 8, 1),
        (Afi.IPV4, 0, 0, -1, 1),
        (Afi.IPV4, 10 << 24, 8, 8, -1),
        (Afi.IPV6, -1, 0, 0, 1),
        (Afi.IPV4, (10 << 24) | 1, 8, 40, 2**32),    # everything at once
    ])
    def test_refusals_have_the_slow_constructors_type_and_text(
        self, afi, network, length, max_length, asn
    ):
        slow = outcome(
            lambda: VRP(Prefix(afi, network, length), max_length, ASN(asn)))
        fast = outcome(
            lambda: VRP.from_integers(afi, network, length, max_length, asn))
        assert isinstance(slow, tuple) and issubclass(slow[0], ValueError)
        assert fast == slow

    def test_accepts_exactly_what_the_slow_constructor_accepts(self):
        rng = random.Random(24)
        accepted = refused = 0
        for _ in range(20_000):
            afi = rng.choice((Afi.IPV4, Afi.IPV6))
            length = rng.randint(-1, afi.bits + 1)
            network = rng.getrandbits(afi.bits)
            if rng.random() < 0.8:                   # mostly a real network
                network &= ~((1 << (afi.bits - max(0, min(afi.bits, length))))
                             - 1)
            args = (
                afi,
                rng.choice((network, network, -network, network << 1)),
                length,
                rng.choice((length, length, length - 1, afi.bits,
                            afi.bits + 1, rng.randint(-1, afi.bits + 1))),
                rng.choice((0, 1, 2**32 - 1, 2**32, -1, rng.getrandbits(32))),
            )
            slow = outcome(lambda: VRP(
                Prefix(args[0], args[1], args[2]), args[3], ASN(args[4])))
            fast = outcome(lambda: VRP.from_integers(*args))
            assert fast == slow, args
            if isinstance(slow, VRP):
                accepted += 1
                assert fields(fast) == args
            else:
                refused += 1
        assert accepted > 2_000 and refused > 2_000


class TestTheTuple:
    def test_ipv4_network_is_an_int_ipv6_network_sixteen_bytes(self):
        for vrp in seeded_vrps(4_000, seed=9):
            bits, network, length, max_length, asn = vrp
            prefix = vrp.prefix
            assert bits == prefix.afi.bits
            if prefix.afi is Afi.IPV4:
                assert type(network) is int and network == prefix.network
            else:
                assert type(network) is bytes and len(network) == 16
                assert int.from_bytes(network, "big") == prefix.network
            assert (length, max_length, asn) == (
                prefix.length, vrp.max_length, int(vrp.asn))

    def test_equals_the_plain_tuple_of_its_fields(self):
        # Decided, not discovered: comparison is the tuple type's own,
        # so a VRP equals the bare five-tuple.  Nothing in src/ compares
        # one to the other.
        vrp = VRP.parse("63.160.0.0/12-13", 1239)
        assert vrp == (32, 0x3FA00000, 12, 13, 1239)
        assert hash(vrp) == hash((32, 0x3FA00000, 12, 13, 1239))
        assert vrp != (32, 0x3FA00000, 12, 13)
        wide = VRP.parse("2001:db8::/32", 64500)
        assert wide == (128, bytes.fromhex("20010db8" + "00" * 12), 32, 32,
                        64500)

    def test_views(self):
        vrp = VRP.parse("2001:db8::/32-48", 64500)
        assert vrp.prefix == Prefix.parse("2001:db8::/32")
        assert vrp.max_length == 48 and type(vrp.max_length) is int
        assert vrp.asn == ASN(64500) and type(vrp.asn) is ASN
        assert vrp.covers(Prefix.parse("2001:db8:1::/48"))
        assert vrp.matches(Prefix.parse("2001:db8:1::/48"), ASN(64500))
        assert not vrp.matches(Prefix.parse("2001:db8:1::/49"), ASN(64500))
        assert not vrp.matches(Prefix.parse("2001:db8:1::/48"), ASN(64501))
        assert not vrp.matches(Prefix.parse("10.0.0.0/8"), ASN(64500))

    @pytest.mark.parametrize("name", ["prefix", "max_length", "asn", "other"])
    def test_attribute_assignment_raises(self, name):
        vrp = VRP.parse("10.0.0.0/8", 1)
        with pytest.raises(AttributeError):
            setattr(vrp, name, vrp.max_length)
        with pytest.raises(AttributeError):
            delattr(vrp, name)
        assert not hasattr(vrp, "__dict__")

    def test_str_repr_parse(self):
        exact = VRP.parse("63.174.16.0/20", 17054)
        loose = VRP.parse("63.160.0.0/12-13", 1239)
        wide = VRP.parse("2001:db8::/32-48", ASN(64500))
        assert str(exact) == "(63.174.16.0/20, AS17054)"
        assert str(loose) == "(63.160.0.0/12-13, AS1239)"
        assert str(wide) == "(2001:db8::/32-48, AS64500)"
        assert repr(exact) == (
            "VRP(prefix=Prefix('63.174.16.0/20'), max_length=20, "
            "asn=ASN(17054))"
        )
        assert repr(wide) == (
            "VRP(prefix=Prefix('2001:db8::/32'), max_length=48, "
            "asn=ASN(64500))"
        )
        assert exact == VRP(Prefix.parse("63.174.16.0/20"), 20, ASN(17054))

    def test_copy_and_pickle_return_an_equal_vrp(self):
        for vrp in seeded_vrps(200, seed=3):
            for twin in (
                copy.copy(vrp), copy.deepcopy(vrp),
                *(pickle.loads(pickle.dumps(vrp, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
            ):
                assert type(twin) is VRP
                assert twin == vrp and hash(twin) == hash(vrp)
                assert tuple(twin) == tuple(vrp)
        table = frozenset(seeded_vrps(50, seed=4))
        assert pickle.loads(pickle.dumps(table)) == table


# A table with every corner in it: both families, /0 and host routes,
# the extreme AS numbers, one prefix under two maxLengths and two ASes.
FIXED_TABLE = [
    ("63.160.0.0/12-13", 1239), ("63.174.16.0/20", 17054),
    ("63.174.16.0/20-24", 17054), ("63.174.16.0/22", 7341),
    ("0.0.0.0/0", 0), ("255.255.255.255/32", 4294967295),
    ("2001:db8::/32-48", 64500), ("2001:db8:1::/48", 64500),
    ("::/0-128", 1), ("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
                      4294967295),
    ("::5/128", 7), ("2001:db8:1::/48", 64501),
]


class TestSameBytesSameAnswers:
    """Literals recorded while a ``VRP`` still held a ``Prefix`` and an
    ``ASN``: the fingerprint keys the query plane's response cache and
    the snapshot burst is what every router receives, so neither may
    move with the representation."""

    def test_fixed_table_fingerprint_and_burst(self):
        table = VrpSet(VRP.parse(text, asn) for text, asn in FIXED_TABLE)
        assert [str(vrp) for vrp in table] == [
            "(0.0.0.0/0, AS0)", "(63.160.0.0/12-13, AS1239)",
            "(63.174.16.0/20, AS17054)", "(63.174.16.0/20-24, AS17054)",
            "(63.174.16.0/22, AS7341)",
            "(255.255.255.255/32, AS4294967295)", "(::/0-128, AS1)",
            "(::5/128, AS7)", "(2001:db8::/32-48, AS64500)",
            "(2001:db8:1::/48, AS64500)", "(2001:db8:1::/48, AS64501)",
            "(ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128, AS4294967295)",
        ]
        assert table.content_hash() == (
            "4f8517c6729d32a0163dcbfc32790dbab31a24adc87bd81ec6fa1a7412a36c6e"
        )
        assert hashlib.sha256(encode_prefixes(True, table)).hexdigest() == (
            "1f3bb6f099b351dbb2e7b9bf1a3a150010132096f6e20df000d95192d6f2e6a8"
        )
        # Edited into place it reads the same as built at once.
        edited = VrpSet()
        edited.content_hash()
        for text, asn in reversed(FIXED_TABLE):
            edited.add(VRP.parse(text, asn))
        assert edited.content_hash() == table.content_hash()

    def test_seed_0_bench_cold_refresh(self):
        """The e2e benchmark's world (``benchmarks/e2e/stack.py``,
        ``bench``): 2,500 ROAs, 55 authorities."""
        world = build_deployment(dataclasses.replace(
            INTERNET_SCALES["internet-small"], isps_per_rir=10, seed=0))
        rp = RelyingParty(
            world.trust_anchors, Fetcher(world.registry, world.clock),
            metrics=MetricsRegistry(),
        )
        rp.refresh()
        assert len(rp.vrps) == 2_500
        assert rp.vrps.content_hash() == (
            "71c66c6038390fd740b25c4967e084b59e9b2ef7a48f76dc22251384b066196f"
        )
        root = RtrCacheServer(metrics=MetricsRegistry())
        root.update(rp.vrps)
        burst, prefix_pdus = root._snapshot_burst()
        assert prefix_pdus == 2_500
        assert hashlib.sha256(burst).hexdigest() == (
            "446ca59dc30f30307cf137102e562e96debe9c72f0472f5622c21d28402346b2"
        )
