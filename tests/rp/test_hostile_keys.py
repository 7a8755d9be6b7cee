"""An authority must not choose what verifying its objects costs.

RFC 7935 section 3.1 fixes an RPKI key's public exponent at 65537 and
its modulus at 2048 bits.  A reader that took any integers let the
authority choose the cost of every ``pow`` made under its keys: on a
2-core Xeon one verification costs ~0.02 ms under an honest 512-bit
key, 12 ms under an 8,192-bit exponent, 109 ms under a 65,536-bit one
(8 KB, which fits in an object) and 16 ms under a 32,768-bit modulus.
A ROA whose EE certificate carries such a key cost that on every cold
refresh and monitor snapshot; a child CA certificate with one cost it
for every object on the point it names.

Now the certificate reader refuses such a key (the bound is
``repro.crypto.rsa.MAX_MODULUS_BITS``, the RFC's 2048; narrower keys
down to ``MIN_MODULUS_BITS`` stay, as the simulation signs with 512-bit
ones): the file is one ``parse-failed`` issue naming the key, its
siblings validate, and no signature is ever checked under the key.
"""

from collections import Counter

import pytest

from repro.crypto import KeyFactory, RsaPublicKey, key_id_of
from repro.modelgen import build_figure2
from repro.repository import Fetcher
from repro.rp import RelyingParty, Severity
from repro.simtime import YEAR

from ..rpki.forge import forge, publish_forged, roa_bytes

SPRINT = "rsync://sprint.example/repo/"
CONTINENTAL = "rsync://continental.example/repo/"
EVIL_CA, EVIL_ROA = "evil.cer", "evil.roa"
HONEST = KeyFactory(seed=666).next_keypair().public

KEYS = {
    # A 512-bit modulus under a 65,536-bit exponent.
    "wide-exponent": RsaPublicKey(HONEST.modulus, (1 << 65_535) | 1),
    # A 32,768-bit modulus under the RFC's exponent.
    "wide-modulus": RsaPublicKey((1 << 32_767) | HONEST.modulus, 65_537),
}


def plant(world, key: RsaPublicKey) -> None:
    """Continental publishes a ROA whose EE certificate carries *key*;
    Sprint signs a child certificate for *key* naming ETB's point, whose
    objects the relying party would check under it."""
    publish_forged(world.continental,
                   {EVIL_ROA: roa_bytes(world, ee_public=key)})
    payload = dict(
        world.etb.certificate.payload,
        serial=9_999,
        subject="evil",
        subject_key={"n": key.modulus, "e": key.exponent},
        subject_key_id=key_id_of(key),
        not_after=world.clock.now + YEAR,
    )
    publish_forged(world.sprint, {EVIL_CA: forge(payload, world.sprint.key)})


@pytest.mark.parametrize("shape", sorted(KEYS))
def test_no_signature_is_checked_under_an_off_profile_key(shape,
                                                           monkeypatch):
    world = build_figure2()
    hostile = KEYS[shape]
    plant(world, hostile)
    checked = Counter()
    check = RsaPublicKey._check_signature

    def counted(key, *args):
        checked[key] += 1
        return check(key, *args)

    monkeypatch.setattr(RsaPublicKey, "_check_signature", counted)
    rp = RelyingParty(world.trust_anchors,
                      Fetcher(world.registry, world.clock))
    for cold in (True, False, True):
        if cold:
            rp.incremental_state.clear()
        run = rp.refresh().run
        errors = run.errors()
        assert sorted((i.point_uri, i.file_name, i.code) for i in errors) == [
            (CONTINENTAL, EVIL_ROA, "parse-failed"),
            (SPRINT, EVIL_CA, "parse-failed"),
        ]
        for issue in errors:
            assert issue.severity is Severity.ERROR
            assert "'subject_key'" in issue.message
            assert "RFC 7935" in issue.message
        # Every other authority and ROA of the world still validates.
        assert len(run.validated_cas) == 4
        assert len(rp.vrps) == 8
    assert checked[hostile] == 0
    assert sum(checked.values()) > 0
