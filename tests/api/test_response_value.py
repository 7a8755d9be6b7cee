"""What an ``ApiResponse`` is as a value.

An immutable tuple-backed value (``typing.NamedTuple``), as ``VRP`` is:
``(status, serial, content_hash, payload, cached)``, compared and hashed
by the tuple type — so it equals the plain tuple of its fields, decided
and stated here as ``tests/rp/test_vrp_value.py`` states it for
``VRP`` — with the envelope's ``ok``.
"""

import copy
import pickle

import pytest

from repro.api import ApiResponse, QueryStatus
from repro.rp import VRP

PAYLOAD = (VRP.parse("63.160.0.0/12-13", 1239),)
FIELDS = (QueryStatus.OK, 3, "ab" * 32, PAYLOAD, True)


def test_positional_and_keyword_construction():
    response = ApiResponse(*FIELDS)
    assert response == ApiResponse(
        status=QueryStatus.OK, serial=3, content_hash="ab" * 32,
        payload=PAYLOAD, cached=True)
    assert (response.status, response.serial, response.content_hash,
            response.payload, response.cached) == FIELDS


def test_ok():
    assert ApiResponse(*FIELDS).ok
    refused = ApiResponse(QueryStatus.RATE_LIMITED, 3, "ab" * 32, None, False)
    assert not refused.ok and refused.payload is None


def test_equals_the_plain_tuple_and_hashes_as_it():
    response = ApiResponse(*FIELDS)
    assert response == FIELDS and hash(response) == hash(FIELDS)
    assert response != ApiResponse(*FIELDS[:4], False)
    assert len({response, ApiResponse(*FIELDS)}) == 1


def test_repr_names_every_field():
    assert repr(ApiResponse(QueryStatus.OK, 1, "h", None, False)) == (
        "ApiResponse(status='ok', serial=1, content_hash='h', payload=None, "
        "cached=False)")


@pytest.mark.parametrize("name", ["status", "serial", "content_hash",
                                  "payload", "cached", "ok", "other"])
def test_attribute_assignment_raises(name):
    response = ApiResponse(*FIELDS)
    with pytest.raises(AttributeError):
        setattr(response, name, None)
    assert not hasattr(response, "__dict__")


def test_copy_and_pickle_round_trip():
    response = ApiResponse(*FIELDS)
    for twin in (
        copy.copy(response), copy.deepcopy(response),
        *(pickle.loads(pickle.dumps(response, protocol))
          for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ):
        assert type(twin) is ApiResponse
        assert twin == response and hash(twin) == hash(response)
        assert twin.ok
