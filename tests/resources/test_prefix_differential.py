"""``Prefix.parse`` and ``parse_ipv4`` against their predecessors.

The predecessors (``reference_prefix.py``) read IPv4 with a ``\\d``
regex, each IPv6 hextet with ``int(piece, 16)`` and the length with
``int()``.  The shipped parser splits the text itself and takes ASCII
digits only (decimal for octets and lengths, one to four hex digits per
hextet), so four classes of spelling that used to parse are refused on
purpose — each spelling was also its own response-cache entry for one
prefix:

1. a sign on the length or a hextet (``10.0.0.0/+8``, ``0.0.0.0/-0``,
   ``2001:+db8::/32``, ``2001:-0::/32``);
2. an underscore in the length or a hextet (``10.0.0.0/0_8``,
   ``2001:d_b8::/32``);
3. whitespace inside the text (``10.0.0.0/ 8``, ``10.0.0.0 /8``,
   ``2001: db8::/32``, ``2001:db8 ::/32``) — around it is still
   stripped;
4. another script's digits in an octet, a hextet or the length
   (``١٠.0.0.0/8``, ``٢001:db8::/32``, Arabic-Indic).

On every other input — seeded random text and the hand-picked corners
below — the two parsers agree on the prefix or on the error, message
included.
"""

import random

import pytest

from repro.resources import AddressParseError, Afi, Prefix, PrefixParseError
from repro.resources.ipaddr import parse_ipv4

from . import reference_prefix


def outcome(parse, text):
    try:
        prefix = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(prefix), prefix.afi, prefix.network, prefix.length


def loosely_numeric(field: str) -> bool:
    """``int()`` takes *field*, but it is not ASCII decimal digits."""
    try:
        int(field)
    except ValueError:
        return False
    return not (field.isascii() and field.isdigit())


def loosely_hex(piece: str) -> bool:
    """``int(piece, 16)`` takes the hextet-sized *piece*, but it is not
    ASCII hex digits."""
    try:
        int(piece, 16)
    except ValueError:
        return False
    return len(piece) <= 4 and not (piece.isascii() and piece.isalnum())


def tightened(text: str) -> bool:
    r"""*text* is in one of the four refused classes: a length ``int()``
    takes that is not ASCII digits; an address with whitespace before the
    slash; an IPv4 octet of another script's digits (which ``\d``
    matched); or an IPv6 hextet ``int(piece, 16)`` takes that is not
    ASCII hex, or an embedded IPv4 tail with whitespace around it."""
    address, slash, length = text.strip().partition("/")
    if not slash:
        return False
    if loosely_numeric(length) or address != address.strip():
        return True
    if ":" in address:
        pieces = address.split(":")
        return any(
            piece != piece.strip() if "." in piece else loosely_hex(piece)
            for piece in pieces
        )
    return any(not octet.isascii() and octet.isdecimal()
               for octet in address.split("."))


HAND_PICKED = [
    # well formed, both families, the extremes
    "10.0.0.0/8", "0.0.0.0/0", "255.255.255.255/32", "63.174.16.0/20",
    "2001:db8::/32", "::/0", "::1/128", "::ffff:192.0.2.0/120",
    "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
    # outer whitespace and leading zeros: still accepted
    "  10.0.0.0/8  ", "\t10.0.0.0/8\n", "010.0.0.0/8", "10.000.0.0/08",
    "10.0.0.0/0008", " 2001:db8::/32 ",
    # octet count, range, emptiness
    "10.0.0/8", "10.0.0.0.0/8", "10.0.0.256/32", "256.0.0.0/8",
    "1..2.3/8", ".1.2.3/8", "1.2.3./8", "0010.0.0.0/8", "1.2.3.4444/32",
    "", "/", "/8", "10.0.0.0", "10.0.0.0/", "10.0.0.0//8", "10.0.0.0/8/8",
    # lengths
    "10.0.0.0/33", "::/129", "10.0.0.0/x", "10.0.0.0/8.0", "10.0.0.0/0x8",
    "0.0.0.0/" + "9" * 5000, "10.0.0.0/-1",
    # host bits
    "10.0.0.1/8", "10.0.0.1/31", "2001:db8::1/64",
    # IPv6 corners parse_ipv6 decides
    "2001:db8::%eth0/32", "1::2::3/64", "g::/16", "12345::/16", ":::/8",
    "2001:DB8::/32", "::ffff:1.2.3/120", "1.2.3.4::/16",
    # the four tightened classes
    "10.0.0.0/+8", "0.0.0.0/-0", "::/+0", "10.0.0.0/0_8", "10.0.0.0/ 8",
    "10.0.0.0 /8", "10.0.0.0/8 /8", "10.0. 0.0/8", "١٠.0.0.0/8",
    "10.0.0.0/٨", "10.0.0.0/\u00a08", "10.0.0.0\u2003/8",
    # ... in IPv6: the reference took a signed hextet to a negative
    # network, which the constructor refused with another message
    "2001:+db8::/32", "2001:-0::/32", "-1::/16",
    "afe:-69d:449f:afcb:4588:3dd:4800:0/102", "2001:d_b8::/32",
    "2001: db8::/32", "2001:db8 ::/32", "2001:db8:: /32",
    "::ffff: 192.0.2.0/120", "2001:db8::\u00a0/32", "٢001:db8::/32",
    "2001:db8::٠/128",
]

ALPHABET = "0123456789" * 4 + "....////::abcdefx +-_\t\u00a0٠١²"


def random_texts(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            yield "".join(rng.choices(ALPHABET, k=rng.randint(0, 24)))
            continue
        # A valid prefix, then zero to three single-character edits.
        afi = rng.choice((Afi.IPV4, Afi.IPV4, Afi.IPV6))
        length = rng.randint(0, afi.bits)
        network = rng.getrandbits(length) << (afi.bits - length) if length else 0
        text = list(str(Prefix(afi, network, length)))
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(0, len(text))
            choice = rng.random()
            if choice < 0.4:
                text.insert(at, rng.choice(ALPHABET))
            elif choice < 0.7 and at < len(text):
                del text[at]
            elif at < len(text):
                text[at] = rng.choice(ALPHABET)
        yield "".join(text)


def check(text: str) -> str:
    """``"same"`` or ``"tightened"``; fails on any other disagreement."""
    old, new = outcome(reference_prefix.parse_prefix, text), outcome(
        Prefix.parse, text)
    if old == new:
        return "same"
    assert tightened(text) and new[0] is PrefixParseError, (text, old, new)
    return "tightened"


class TestAgreement:
    @pytest.mark.parametrize("text", HAND_PICKED)
    def test_hand_picked(self, text):
        verdict = check(text)
        assert verdict == ("tightened" if tightened(text) else "same")

    def test_seeded_random_text(self):
        verdicts = [check(text) for text in random_texts(40_000, seed=26)]
        accepted = sum(
            1 for text in random_texts(40_000, seed=26)
            if outcome(Prefix.parse, text)[0] is Prefix)
        assert verdicts.count("tightened") > 100
        assert accepted > 5_000 and len(verdicts) - accepted > 10_000

    def test_parse_ipv4_strips_and_agrees(self):
        def value(parse, text):
            try:
                return parse(text)
            except ValueError as exc:
                return type(exc)

        rng = random.Random(4)
        texts = ["  10.0.0.1 ", "1.2.3", "010.1.1.1", "1.2.3.256", "١.1.1.1"]
        texts += ["".join(rng.choices("0123456789. ١", k=rng.randint(0, 16)))
                  for _ in range(20_000)]
        differ = 0
        for text in texts:
            old, new = (value(parse, text)
                        for parse in (reference_prefix.parse_ipv4, parse_ipv4))
            if old != new:
                assert not text.isascii() and new is AddressParseError, text
                differ += 1
        assert parse_ipv4("  10.0.0.1 ") == 10 << 24 | 1
        assert 0 < differ < len(texts) // 10


class TestTightenedSpellings:
    """Each was parsed to ``10.0.0.0/8`` (``0.0.0.0/0``) by the reference
    and is a ``PrefixParseError`` now."""

    @staticmethod
    def refused(text: str, was: str) -> None:
        assert reference_prefix.parse_prefix(text) == Prefix.parse(was)
        with pytest.raises(PrefixParseError):
            Prefix.parse(text)

    def test_a_sign_on_the_length(self):
        self.refused("10.0.0.0/+8", "10.0.0.0/8")
        self.refused("0.0.0.0/-0", "0.0.0.0/0")

    def test_an_underscore_in_the_length(self):
        self.refused("10.0.0.0/0_8", "10.0.0.0/8")

    def test_whitespace_inside(self):
        self.refused("10.0.0.0/ 8", "10.0.0.0/8")
        self.refused("10.0.0.0 /8", "10.0.0.0/8")
        assert Prefix.parse(" 10.0.0.0/8\n") == Prefix.parse("10.0.0.0/8")

    def test_another_scripts_digits(self):
        self.refused("١٠.0.0.0/8", "10.0.0.0/8")
        self.refused("10.0.0.0/٨", "10.0.0.0/8")
        assert Prefix.parse("010.0.0.0/08") == Prefix.parse("10.0.0.0/8")

    # IPv6: the same classes, one hextet at a time.

    def test_a_sign_in_a_hextet(self):
        self.refused("2001:+db8::/32", "2001:db8::/32")

    def test_a_minus_on_a_zero_hextet(self):
        self.refused("2001:-0::/32", "2001::/32")

    def test_an_underscore_in_a_hextet(self):
        self.refused("2001:d_b8::/32", "2001:db8::/32")

    def test_whitespace_inside_an_ipv6_address(self):
        self.refused("2001: db8::/32", "2001:db8::/32")
        self.refused("2001:db8 ::/32", "2001:db8::/32")
        self.refused("2001:db8:: /32", "2001:db8::/32")
        assert Prefix.parse(" 2001:DB8::/32\n") == Prefix.parse("2001:db8::/32")

    def test_another_scripts_digits_in_a_hextet(self):
        self.refused("٢001:db8::/32", "2001:db8::/32")
        assert Prefix.parse("::ffff:192.0.2.0/120") == Prefix.parse(
            "::ffff:c000:200/120")
