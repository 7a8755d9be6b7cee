"""Micro-benchmarks of the hot paths under the experiments.

These keep the substrate honest — origin validation and prefix lookups
are the per-route costs a relying party pays on every BGP update, and
signing/verification dominate model construction.  Most are plain
pytest-benchmark timings; the CTLV serialization section additionally
pins its per-operation costs in ``BENCH_microperf.json`` (the artifact
behind the codec section of docs/performance.md), with bounds generous
enough for slow CI.

Those pinned timings are process-CPU milliseconds stated at the nominal
machine speed of ``benchmarks/e2e/harness.py``: each sample is divided by
how much slower than nominal its reference kernel ran just before it, and
a pinned timing is the median of seven such samples, so the artifact
records the code rather than how busy the box was.
"""

import json
import random
import time

from conftest import write_artifact
from e2e import harness

from repro.crypto import decode, generate_keypair
from repro.crypto.encoding import LIST, write_bytes, write_container, write_str
from repro.resources import ASN, Afi, Prefix, PrefixMap
from repro.rp import VRP, Route, VrpSet, validate
from repro.rpki import parse_object


def build_vrp_set(count=500, seed=3):
    rng = random.Random(seed)
    vrps = VrpSet()
    for _ in range(count):
        length = rng.randint(12, 24)
        network = rng.getrandbits(32)
        network = (network >> (32 - length)) << (32 - length)
        prefix = Prefix(Afi.IPV4, network, length)
        max_length = min(prefix.afi.bits, length + rng.randint(0, 8))
        vrps.add(VRP(prefix, max_length, ASN(rng.randint(1, 65000))))
    return vrps


def test_origin_validation_throughput(benchmark):
    vrps = build_vrp_set()
    rng = random.Random(4)
    routes = []
    for _ in range(1000):
        length = rng.randint(8, 24)
        network = (rng.getrandbits(32) >> (32 - length)) << (32 - length)
        routes.append(Route(
            Prefix(Afi.IPV4, network, length), ASN(rng.randint(1, 65000))
        ))

    def classify_all():
        return [validate(route.prefix, route.origin, vrps).state
                for route in routes]

    states = benchmark(classify_all)
    assert len(states) == 1000


def test_trie_longest_match(benchmark):
    rng = random.Random(5)
    table = PrefixMap()
    for i in range(2000):
        length = rng.randint(8, 24)
        network = (rng.getrandbits(32) >> (32 - length)) << (32 - length)
        table.insert(Prefix(Afi.IPV4, network, length), i)
    probes = [
        Prefix(Afi.IPV4, rng.getrandbits(32), 32) for _ in range(1000)
    ]

    def lookup_all():
        return [table.longest_match(p) for p in probes]

    hits = benchmark(lookup_all)
    assert len(hits) == 1000


def test_rsa_sign(benchmark):
    key = generate_keypair(512, random.Random(6))
    signature = benchmark(key.sign, b"a roa payload")
    assert key.public.verify(b"a roa payload", signature)


def test_rsa_verify(benchmark):
    key = generate_keypair(512, random.Random(6))
    signature = key.sign(b"a roa payload")
    assert benchmark(key.public.verify, b"a roa payload", signature)


def test_rtr_full_sync(benchmark):
    """Reset-sync N VRPs through the RTR codec and both state machines."""
    from repro.rtr import DuplexPipe, RtrCacheServer, RtrRouterClient

    vrps = build_vrp_set(count=1000, seed=7)
    server = RtrCacheServer()
    server.update(vrps)

    def sync():
        pipe = DuplexPipe()
        server.attach(pipe)
        client = RtrRouterClient(pipe)
        client.connect()
        for _ in range(3):
            server.process()
            client.process()
        return client

    client = benchmark(sync)
    assert client.vrp_count == len(vrps)


def test_rtr_codec_throughput(benchmark):
    """Encode + decode a 1000-PDU burst."""
    from repro.rtr import decode_runs, encode_prefixes

    vrps = list(build_vrp_set(count=1000, seed=8))

    def roundtrip():
        return decode_runs(encode_prefixes(True, vrps))

    decoded, rest = benchmark(roundtrip)
    # One IPv4 stretch: an announce flag per VRP beside the VRPs.
    assert decoded == [(b"\1" * len(vrps), vrps)] and rest == b""


def test_vrpset_bulk_construction_10k(benchmark):
    """Bulk-build a 10^4-VRP set: one extend, one view invalidation.

    The per-``add`` path invalidates the cached sorted/frozen/hash views
    on every insertion; :meth:`VrpSet.extend` batches the whole stream
    into a single invalidation, the construction pattern a streaming
    refresh uses at Internet scale.
    """
    rng = random.Random(13)
    raw = []
    for _ in range(10_000):
        length = rng.randint(12, 24)
        network = (rng.getrandbits(32) >> (32 - length)) << (32 - length)
        prefix = Prefix(Afi.IPV4, network, length)
        raw.append(VRP(prefix, min(32, length + rng.randint(0, 8)),
                       ASN(rng.randint(1, 65000))))

    def bulk_build():
        vrps = VrpSet()
        vrps.extend(raw)
        return vrps

    vrps = benchmark(bulk_build)
    assert len(vrps) == len(set(raw))
    assert vrps.content_hash()  # views build once, after the bulk load


# --------------------------------------------------------------------------
# CTLV serialization: a ROA is read once per object per refresh, by
# ``parse_object``, so that (a real ROA with its embedded EE certificate
# through the typed reader) is what the read side pins.  The generic
# decoder no refresh calls is the reject path's walk; it is pinned on a
# manifest-listing shape (1024 files, the internet-scale point) so a
# hostile object that size stays cheap to refuse.  Bounds are ~10x
# typical measurements; the real regression gate is the refresh
# wall-clock pinned in BENCH_scale.json — these localize a regression to
# the codec.

MAX_MANIFEST_DECODE_MS = 15.0   # ~1.8 ms measured
MAX_ROA_PARSE_MS = 0.3         # ~0.025 ms measured (0.07 through decode)

_PINS: dict[str, dict] = {}


def _pin(name: str, measured, bound, op: str) -> None:
    _PINS[name] = {"measured": measured, "bound": bound, "op": op}


SAMPLES = 7


def _median_ms(fn, arg, loops=40) -> float:
    """Median of SAMPLES mean per-call CPU milliseconds over *loops*
    calls, each at the nominal speed of the box: the reference kernel is
    timed just before it."""
    samples = []
    for _ in range(SAMPLES):
        speed = harness.reference() / harness.REF_NOMINAL_S
        start = time.process_time()
        for _ in range(loops):
            fn(arg)
        samples.append((time.process_time() - start) / loops / speed)
    return sorted(samples)[SAMPLES // 2] * 1000


def manifest_sized_list(files=1024, seed=14):
    """A manifest-entries shape: *files* ``[name, sha256]`` pairs."""
    rng = random.Random(seed)
    return [[f"roa_{i:04d}.roa", rng.randbytes(32)] for i in range(files)]


def written(entries) -> bytes:
    """*entries* (``[name, digest]`` pairs) through the leaf writers."""
    return write_container(LIST, b"".join(
        write_container(LIST, write_str(name) + write_bytes(digest))
        for name, digest in entries))


def test_ctlv_manifest_sized_list_pinned():
    value = manifest_sized_list()
    blob = written(value)
    assert decode(blob) == value
    decode_ms = round(_median_ms(decode, blob), 4)
    assert decode_ms <= MAX_MANIFEST_DECODE_MS
    _pin("manifest_list_decode_ms", decode_ms, MAX_MANIFEST_DECODE_MS, "<=")


def real_roa() -> bytes:
    """The wire form of one ROA of the Figure 2 world (EE embedded)."""
    from repro.modelgen import build_figure2

    world = build_figure2()
    return world.continental.roa_named(world.target20_name).to_bytes()


def test_parse_object_on_a_real_roa_pinned():
    blob = real_roa()
    roa = parse_object(blob)
    assert roa.to_bytes() == blob and roa.ee_cert.subject_key is not None
    parse_ms = round(_median_ms(parse_object, blob, loops=200), 4)
    assert parse_ms <= MAX_ROA_PARSE_MS
    _pin("roa_parse_object_ms", parse_ms, MAX_ROA_PARSE_MS, "<=")


def test_write_microperf_artifact():
    for name in ("manifest_list_decode_ms", "roa_parse_object_ms"):
        assert name in _PINS, f"pin {name} never recorded"
    write_artifact("BENCH_microperf.json", json.dumps({
        "experiment": "microperf",
        "pins": _PINS,
        "timing": {"samples": SAMPLES, "statistic": "median",
                   "clock": "process CPU at nominal machine speed",
                   "ref_nominal_s": harness.REF_NOMINAL_S},
        "shapes": {
            "manifest_list": {"files": 1024, "wire_bytes": len(
                written(manifest_sized_list()))},
            "real_roa": {"wire_bytes": len(real_roa())},
        },
    }, indent=2) + "\n")


def test_vrpset_difference_2k(benchmark):
    """Monitor-style delta of two ~2k-VRP sets (cached frozen views)."""
    before = build_vrp_set(count=2000, seed=11)
    after = build_vrp_set(count=2000, seed=11)
    # Perturb ~1% so the delta is non-trivial in both directions.
    for vrp in build_vrp_set(count=20, seed=12):
        after.add(vrp)

    def both_ways():
        new, old = after.as_frozenset(), before.as_frozenset()
        return new - old, old - new

    added, removed = benchmark(both_ways)
    assert len(added) >= 1 and not removed
