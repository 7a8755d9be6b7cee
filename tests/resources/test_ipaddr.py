"""Unit tests for address parsing and formatting."""

import pytest

from repro.resources import AddressParseError, Afi, format_address, parse_address
from repro.resources.ipaddr import format_ipv4, format_ipv6, parse_ipv4, parse_ipv6


class TestAfi:
    def test_bits(self):
        assert Afi.IPV4.bits == 32
        assert Afi.IPV6.bits == 128

    def test_max_address(self):
        assert Afi.IPV4.max_address == 2**32 - 1
        assert Afi.IPV6.max_address == 2**128 - 1

    def test_iana_codepoints(self):
        assert Afi.IPV4.value == 1
        assert Afi.IPV6.value == 2


class TestParseIpv4:
    def test_basic(self):
        assert parse_ipv4("0.0.0.0") == 0
        assert parse_ipv4("255.255.255.255") == 2**32 - 1
        assert parse_ipv4("63.160.0.0") == (63 << 24) | (160 << 16)

    def test_strips_whitespace(self):
        assert parse_ipv4("  10.0.0.1 ") == parse_ipv4("10.0.0.1")

    @pytest.mark.parametrize(
        "bad",
        ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3", "-1.0.0.0"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressParseError):
            parse_ipv4(bad)

    def test_roundtrip(self):
        for text in ["8.8.8.8", "63.174.16.0", "192.0.2.255"]:
            assert format_ipv4(parse_ipv4(text)) == text


class TestParseIpv6:
    def test_full_form(self):
        assert parse_ipv6("0:0:0:0:0:0:0:1") == 1

    def test_compressed(self):
        assert parse_ipv6("::1") == 1
        assert parse_ipv6("::") == 0
        assert parse_ipv6("2001:db8::") == 0x20010DB8 << 96

    def test_embedded_ipv4(self):
        assert parse_ipv6("::ffff:192.0.2.1") == (0xFFFF << 32) | parse_ipv4("192.0.2.1")

    @pytest.mark.parametrize(
        "bad",
        ["", ":::", "1:2:3:4:5:6:7", "1:2:3:4:5:6:7:8:9", "2001:db8::%eth0",
         "g::1", "1::2::3", "12345::"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressParseError):
            parse_ipv6(bad)

    def test_canonical_formatting_compresses_longest_run(self):
        assert format_ipv6(parse_ipv6("2001:0:0:1:0:0:0:1")) == "2001:0:0:1::1"

    def test_canonical_formatting_lowercase(self):
        assert format_ipv6(parse_ipv6("2001:DB8::1")) == "2001:db8::1"

    def test_no_compression_for_single_zero(self):
        assert format_ipv6(parse_ipv6("1:0:2:3:4:5:6:7")) == "1:0:2:3:4:5:6:7"


class TestParseAddress:
    def test_dispatches_on_colon(self):
        assert parse_address("10.0.0.1") == (Afi.IPV4, parse_ipv4("10.0.0.1"))
        assert parse_address("::1") == (Afi.IPV6, 1)

    def test_forced_family_mismatch(self):
        with pytest.raises(AddressParseError):
            parse_ipv4("::1")

    def test_format_roundtrip(self):
        for text in ["10.1.2.3", "2001:db8::42"]:
            afi, value = parse_address(text)
            assert format_address(afi, value) == text

    def test_format_out_of_range(self):
        with pytest.raises(AddressParseError):
            format_ipv4(2**32)
        with pytest.raises(AddressParseError):
            format_ipv6(2**128)
        with pytest.raises(AddressParseError):
            format_ipv4(-1)
