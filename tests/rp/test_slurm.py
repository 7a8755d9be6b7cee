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


class TestPrefixFilters:
    """RFC 8416 section 3.3.1: a filter names a prefix, an ASN or both,
    never a maxPrefixLength, and drops every VRP it matches."""

    VRPS = [
        ("10.0.0.0/8", 1),
        ("10.0.0.0/8-24", 2),
        ("10.1.0.0/16", 1),
        ("10.1.2.0/24-24", 2),
        ("0.0.0.0/0-8", 1),       # less specific than 10.0.0.0/8
        ("11.0.0.0/8", 1),        # beside it
        ("2001:db8::/32", 1),     # the other family
    ]

    def kept(self, *filters):
        from repro.rp import VRP, LocalOverrides, VrpSet

        overrides = LocalOverrides.from_dict({"validationOutputFilters": {
            "prefixFilters": list(filters)}})
        vrps = VrpSet(VRP.parse(text, asn) for text, asn in self.VRPS)
        return sorted(
            (str(v.prefix), int(v.asn)) for v in overrides.apply(vrps)
        )

    def test_prefix_and_asn_drops_that_origin_at_or_under_the_prefix(self):
        assert self.kept({"prefix": "10.0.0.0/8", "asn": 1}) == [
            ("0.0.0.0/0", 1), ("10.0.0.0/8", 2), ("10.1.2.0/24", 2),
            ("11.0.0.0/8", 1), ("2001:db8::/32", 1),
        ]

    def test_prefix_alone_drops_every_origin_under_it(self):
        assert self.kept({"prefix": "10.0.0.0/8"}) == [
            ("0.0.0.0/0", 1), ("11.0.0.0/8", 1), ("2001:db8::/32", 1),
        ]

    def test_asn_alone_drops_every_prefix_of_that_origin(self):
        assert self.kept({"asn": 2}) == [
            ("0.0.0.0/0", 1), ("10.0.0.0/8", 1), ("10.1.0.0/16", 1),
            ("11.0.0.0/8", 1), ("2001:db8::/32", 1),
        ]

    def test_to_dict_writes_the_rfc_form_and_round_trips(self):
        from repro.rp import LocalOverrides

        overrides = (
            LocalOverrides()
            .filter("10.0.0.0/8", 1)
            .filter("10.0.0.0/8")
            .filter(asn=2)
        )
        data = overrides.to_dict()
        assert data["validationOutputFilters"]["prefixFilters"] == [
            {"prefix": "10.0.0.0/8", "asn": 1},
            {"prefix": "10.0.0.0/8"},
            {"asn": 2},
        ]
        again = LocalOverrides.from_dict(data)
        assert again.filtered == overrides.filtered

    def test_a_filter_naming_nothing_is_refused(self):
        from repro.rp import LocalOverrides

        with pytest.raises(ValueError, match="prefix, an ASN or both"):
            LocalOverrides.from_dict({"validationOutputFilters": {
                "prefixFilters": [{"comment": "matches everything?"}]}})
        with pytest.raises(ValueError, match="prefix, an ASN or both"):
            LocalOverrides().filter()
