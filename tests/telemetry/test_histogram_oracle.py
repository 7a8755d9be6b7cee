"""Histogram ``observe`` against the loop it replaced.

``observe`` used to walk every bucket bound and bump each one the value
was ``<=`` to.  It now bisects once into per-bucket counts and
``bucket_counts`` is their running sum.  The old loop is kept below as
the oracle: the same values — every bound itself, a hair either side of
it, NaN, both infinities, ``-0.0`` and seeded random ones — must leave
the same cumulative counts, sum and count.
"""

import json
import math
import random

import pytest

from repro.telemetry import MetricsRegistry
from repro.telemetry.render import registry_from_dict

BUCKETS = [
    (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0),      # response sizes
    (0.0, 1.0, 60.0, 3600.0, 86400.0),                  # trace seconds
    (-5.0, -0.5, 0.0, 0.5, 5.0),
    (1.0,),
    (-math.inf, 0.0, math.inf),
]


def reference_observe(uppers, values):
    """The loop ``_HistogramChild.observe`` ran before the bisect."""
    bucket_counts = [0] * len(uppers)
    total, count = 0.0, 0
    for value in values:
        total += value
        count += 1
        for i, upper in enumerate(uppers):
            if value <= upper:
                bucket_counts[i] += 1
    return bucket_counts, total, count


def values_for(uppers, rng):
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 0, 1, -1e300, 1e300]
    for upper in uppers:
        if math.isfinite(upper):
            values += [upper, math.nextafter(upper, -math.inf),
                       math.nextafter(upper, math.inf), int(upper)]
    values += [rng.uniform(-10, 300) for _ in range(500)]
    values += [rng.choice(uppers) for _ in range(100)]
    rng.shuffle(values)
    return values


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("uppers", BUCKETS, ids=str)
def test_observe_lands_where_the_loop_did(uppers):
    rng = random.Random(26)
    values = values_for(uppers, rng)
    for cut in (0, 1, 7, len(values)):
        seen = values[:cut] + [v for v in values if not math.isnan(v)][:cut]
        child = MetricsRegistry().histogram("repro_x", uppers).sample()
        for value in seen:
            child.observe(value)
        bucket_counts, total, count = reference_observe(
            tuple(float(u) for u in uppers), seen)
        assert child.bucket_counts == bucket_counts
        assert child.count == count and same(child.sum, total)


def test_nan_counts_in_inf_only():
    child = MetricsRegistry().histogram("repro_x", (0.0, 1.0)).sample()
    child.observe(math.nan)
    assert child.bucket_counts == [0, 0] and child.count == 1


def test_render_then_load_round_trip():
    registry = MetricsRegistry()
    labelled = registry.histogram("repro_x", (1.0, 10.0), labelnames=("k",))
    plain = registry.histogram("repro_y", BUCKETS[0])
    rng = random.Random(3)
    for value in values_for(BUCKETS[0], rng):
        if not math.isnan(value) and math.isfinite(value):
            plain.observe(value)
            labelled.observe(value, k=rng.choice("ab"))
    restored = MetricsRegistry.from_dict(json.loads(registry.render_json()))
    assert restored.render_text() == registry.render_text()
    assert restored.to_dict() == registry.to_dict()
    # A loaded child keeps counting where the rendered one left off.
    for source in (registry, restored):
        source.get("repro_y").observe(3.0)
        source.get("repro_y").observe(1e9)
    assert restored.render_text() == registry.render_text()
    again = registry_from_dict(MetricsRegistry(), restored.to_dict())
    assert again.render_text() == registry.render_text()
