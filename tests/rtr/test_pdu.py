"""Unit tests for the RTR wire codec (RFC 6810)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resources import ASN, Afi, Prefix
from repro.rp.vrp import VRP
from repro.rtr import (
    MAX_ERROR_REPORT_LENGTH,
    CacheReset,
    CacheResponse,
    EndOfData,
    ErrorReport,
    PduDecodeError,
    ResetQuery,
    SerialNotify,
    SerialQuery,
)

from .per_pdu import PrefixPdu, decode_pdus, encode_pdu

ALL_PDUS = [
    SerialNotify(session_id=7, serial=42),
    SerialQuery(session_id=7, serial=41),
    ResetQuery(),
    CacheResponse(session_id=7),
    PrefixPdu(True, VRP(Prefix.parse("63.174.16.0/20"), 24, ASN(17054))),
    PrefixPdu(False, VRP(Prefix.parse("2001:db8::/32"), 48, ASN(64512))),
    EndOfData(session_id=7, serial=42),
    CacheReset(),
    ErrorReport(error_code=3, text="unexpected pdu"),
]


class TestRoundtrip:
    @pytest.mark.parametrize("pdu", ALL_PDUS, ids=lambda p: type(p).__name__)
    def test_single_roundtrip(self, pdu):
        decoded, rest = decode_pdus(encode_pdu(pdu))
        assert rest == b""
        assert decoded == [pdu]

    def test_stream_of_many(self):
        blob = b"".join(encode_pdu(p) for p in ALL_PDUS)
        decoded, rest = decode_pdus(blob)
        assert decoded == ALL_PDUS
        assert rest == b""

    def test_partial_trailing_pdu_buffered(self):
        blob = b"".join(encode_pdu(p) for p in ALL_PDUS)
        cut = len(blob) - 5
        decoded, rest = decode_pdus(blob[:cut])
        assert len(decoded) == len(ALL_PDUS) - 1
        more, rest2 = decode_pdus(rest + blob[cut:])
        assert more == [ALL_PDUS[-1]]
        assert rest2 == b""

    def test_byte_at_a_time_reassembly(self):
        blob = b"".join(encode_pdu(p) for p in ALL_PDUS)
        decoded = []
        buffer = b""
        for i in range(len(blob)):
            buffer += blob[i : i + 1]
            pdus, buffer = decode_pdus(buffer)
            decoded.extend(pdus)
        assert decoded == ALL_PDUS


class TestHeaderValidation:
    def test_wrong_version(self):
        blob = bytearray(encode_pdu(ResetQuery()))
        blob[0] = 1
        with pytest.raises(PduDecodeError):
            decode_pdus(bytes(blob))

    def test_unknown_type(self):
        blob = bytearray(encode_pdu(ResetQuery()))
        blob[1] = 99
        with pytest.raises(PduDecodeError):
            decode_pdus(bytes(blob))

    def test_impossible_length(self):
        blob = bytearray(encode_pdu(ResetQuery()))
        blob[4:8] = (2).to_bytes(4, "big")
        with pytest.raises(PduDecodeError):
            decode_pdus(bytes(blob))

    def test_nonempty_body_on_reset_query(self):
        blob = struct.pack(">BBHI", 0, 2, 0, 9) + b"\x00"
        with pytest.raises(PduDecodeError):
            decode_pdus(blob)

    def test_wrong_prefix_body_size(self):
        blob = struct.pack(">BBHI", 0, 4, 0, 10) + b"\x00\x00"
        with pytest.raises(PduDecodeError):
            decode_pdus(blob)

    def test_prefix_with_host_bits(self):
        body = struct.pack(">BBBB", 1, 24, 24, 0) + bytes([10, 0, 0, 1]) + (
            (1).to_bytes(4, "big")
        )
        blob = struct.pack(">BBHI", 0, 4, 0, 8 + len(body)) + body
        with pytest.raises(PduDecodeError):
            decode_pdus(blob)

    def test_bad_maxlength_on_the_wire(self):
        body = struct.pack(">BBBB", 1, 16, 8, 0) + bytes([10, 0, 0, 0]) + (
            (1).to_bytes(4, "big")
        )
        blob = struct.pack(">BBHI", 0, 4, 0, 8 + len(body)) + body
        with pytest.raises(PduDecodeError, match="bad prefix PDU: maxLength"):
            decode_pdus(blob)

    def test_bad_maxlength_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PrefixPdu(True, VRP(Prefix.parse("10.0.0.0/16"), 8, ASN(1)))


def _header(pdu_type: int, length: int, session_or_flags: int = 0) -> bytes:
    return struct.pack(">BBHI", 0, pdu_type, session_or_flags, length)


# type -> its one RFC 6810 wire length, header included
FIXED_LENGTHS = {0: 12, 1: 12, 2: 8, 3: 8, 4: 20, 6: 32, 7: 12, 8: 8}


class TestLengthJudgedAtTheHeader:
    """A wrong length is an error on the header, not a reason to buffer."""

    def test_huge_prefix_length_is_not_buffered(self):
        # Returning ([], <100,008 bytes>) would have the receiver keep
        # the lot and wait for the other 4 GiB.
        blob = _header(4, 0xFFFFFFFF) + b"\0" * 100000
        with pytest.raises(PduDecodeError, match="IPV4_PREFIX body must be"):
            decode_pdus(blob)

    @pytest.mark.parametrize("pdu_type", sorted(FIXED_LENGTHS))
    @pytest.mark.parametrize("off_by", [-1, 1, 1000])
    def test_fixed_size_type_with_any_other_length(self, pdu_type, off_by):
        length = FIXED_LENGTHS[pdu_type] + off_by
        # Header only: the verdict does not wait for the body.
        with pytest.raises(PduDecodeError):
            decode_pdus(_header(pdu_type, length))

    @pytest.mark.parametrize("pdu_type", sorted(FIXED_LENGTHS))
    def test_right_length_waits_for_the_body(self, pdu_type):
        blob = _header(pdu_type, FIXED_LENGTHS[pdu_type])
        if FIXED_LENGTHS[pdu_type] == 8:
            pdus, rest = decode_pdus(blob)
            assert len(pdus) == 1 and rest == b""
        else:
            assert decode_pdus(blob) == ([], blob)

    @pytest.mark.parametrize("pdu_type", [5, 9, 11, 255])
    def test_unknown_type_is_rejected_on_its_header(self, pdu_type):
        with pytest.raises(PduDecodeError, match="unknown PDU type"):
            decode_pdus(_header(pdu_type, 0xFFFFFFFF))

    def test_serial_pdu_with_a_long_body_is_rejected(self):
        # Not accepted with the trailing bytes silently dropped.
        blob = _header(7, 16, 7) + (42).to_bytes(4, "big") + b"junk"
        with pytest.raises(PduDecodeError, match="END_OF_DATA body must be 4"):
            decode_pdus(blob)

    def test_remainder_never_exceeds_one_legal_pdu(self):
        encoded = [encode_pdu(p) for p in ALL_PDUS]
        good = b"".join(encoded)
        for cut in range(len(good)):
            _pdus, rest = decode_pdus(good[:cut])
            assert len(rest) < max(map(len, encoded))


def _error_report(encapsulated: bytes, text: bytes, *, text_length=None,
                  encapsulated_length=None, code: int = 2) -> bytes:
    if encapsulated_length is None:
        encapsulated_length = len(encapsulated)
    if text_length is None:
        text_length = len(text)
    body = (
        encapsulated_length.to_bytes(4, "big") + encapsulated
        + text_length.to_bytes(4, "big") + text
    )
    return _header(10, 8 + len(body), code) + body


class TestErrorReport:
    """RFC 6810 §5.10: length + erroneous PDU, then length + text."""

    def test_roundtrip(self):
        report = ErrorReport(error_code=4, text="no data \u2014 yet")
        assert decode_pdus(encode_pdu(report)) == ([report], b"")

    def test_encapsulated_pdu_is_skipped_by_its_own_length(self):
        # Not '\x00\x00\x00\x08\x00\x00\x00\tbad thing': the text starts
        # after the encapsulated PDU, not at a fixed offset.
        blob = _error_report(encode_pdu(ResetQuery()), b"bad thing")
        assert decode_pdus(blob) == (
            [ErrorReport(error_code=2, text="bad thing")], b""
        )

    def test_text_length_overrunning_the_body(self):
        # Not accepted as 'abc'.
        blob = _error_report(b"", b"abc", text_length=5000)
        with pytest.raises(PduDecodeError, match="text length 5000"):
            decode_pdus(blob)

    def test_encapsulated_length_overrunning_the_body(self):
        blob = _error_report(b"\0" * 8, b"", encapsulated_length=9)
        with pytest.raises(PduDecodeError, match="encapsulated PDU length 9"):
            decode_pdus(blob)

    def test_text_length_short_of_the_body(self):
        blob = _error_report(b"", b"abcdef", text_length=3)
        with pytest.raises(PduDecodeError, match="text length 3"):
            decode_pdus(blob)

    def test_truncated(self):
        with pytest.raises(PduDecodeError, match="truncated error report"):
            decode_pdus(_header(10, 12) + b"\0" * 4)

    def test_at_the_cap(self):
        text = b"x" * (MAX_ERROR_REPORT_LENGTH - 16)
        blob = _error_report(b"", text)
        assert len(blob) == MAX_ERROR_REPORT_LENGTH
        # The header alone is accepted and waited on ...
        assert decode_pdus(blob[:8]) == ([], blob[:8])
        # ... and the whole report decodes.
        (report,), rest = decode_pdus(blob)
        assert report.text == text.decode() and rest == b""

    def test_past_the_cap(self):
        with pytest.raises(PduDecodeError, match="over the 65536-byte cap"):
            decode_pdus(_header(10, MAX_ERROR_REPORT_LENGTH + 1))


@st.composite
def prefix_pdus(draw):
    length = draw(st.integers(min_value=0, max_value=32))
    addr = draw(st.integers(min_value=0, max_value=2**32 - 1))
    network = (addr >> (32 - length)) << (32 - length) if length else 0
    max_length = draw(st.integers(min_value=length, max_value=32))
    return PrefixPdu(draw(st.booleans()), VRP(
        Prefix(Afi.IPV4, network, length),
        max_length,
        ASN(draw(st.integers(min_value=0, max_value=2**32 - 1))),
    ))


@given(st.lists(prefix_pdus(), max_size=20))
@settings(max_examples=100)
def test_property_prefix_stream_roundtrip(pdus):
    blob = b"".join(encode_pdu(p) for p in pdus)
    decoded, rest = decode_pdus(blob)
    assert decoded == pdus
    assert rest == b""
