"""Tests for the SLURM-shaped (cf. RFC 8416) form of local overrides."""

import pytest


class TestSlurmSerialization:
    def test_roundtrip(self):
        from repro.rp import LocalOverrides

        overrides = (
            LocalOverrides()
            .pin("63.174.16.0/20-24", 17054)
            .filter("63.160.0.0/12", 1239)
        )
        data = overrides.to_dict()
        assert data["slurmVersion"] == 1
        assert data["locallyAddedAssertions"]["prefixAssertions"] == [
            {"prefix": "63.174.16.0/20", "asn": 17054, "maxPrefixLength": 24}
        ]
        again = LocalOverrides.from_dict(data)
        assert again.pinned == overrides.pinned
        assert again.filtered == overrides.filtered

    def test_json_safe(self):
        import json

        from repro.rp import LocalOverrides

        overrides = LocalOverrides().pin("10.0.0.0/8", 64512)
        blob = json.dumps(overrides.to_dict())
        again = LocalOverrides.from_dict(json.loads(blob))
        assert again.pinned == overrides.pinned

    def test_empty_roundtrip(self):
        from repro.rp import LocalOverrides

        again = LocalOverrides.from_dict(LocalOverrides().to_dict())
        assert again.is_empty

    def test_assertion_without_max_length_is_bounded_by_its_prefix(self):
        # RFC 8416 section 3.4.1: maxPrefixLength is optional.
        from repro.rp import VRP, LocalOverrides

        overrides = LocalOverrides.from_dict({"locallyAddedAssertions": {
            "prefixAssertions": [{"prefix": "10.0.0.0/8", "asn": 1}]}})
        assert overrides.pinned == [VRP.parse("10.0.0.0/8", 1)]
        assert overrides.pinned[0].max_length == 8

    def test_assertion_max_length_out_of_range_is_refused(self):
        from repro.rp import LocalOverrides

        for bound in (7, 33):
            with pytest.raises(ValueError, match="out of range"):
                LocalOverrides.from_dict({"locallyAddedAssertions": {
                    "prefixAssertions": [{"prefix": "10.0.0.0/8", "asn": 1,
                                          "maxPrefixLength": bound}]}})
