"""Tier-1 hook for the bench-artifact lint (tools/check_bench.py).

Fails the suite if any ``benchmarks/artifacts/BENCH_*.json`` is missing
its ``pins`` object, misnames its experiment, or records a measurement
that violates its own pinned bound — or if a ``PROFILE_*.json`` report
drops a field of the :class:`repro.profiling.ProfileReport` schema
(deployment metadata, ``timer_cost``, ``stages``, ``slowest_points``).
"""

import json
import pathlib
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import check_bench  # noqa: E402


def test_committed_artifacts_conform():
    problems = check_bench.check_all()
    assert problems == [], "\n".join(problems)


def test_known_artifacts_present():
    names = {path.name for path in check_bench.bench_artifacts()}
    for expected in ("BENCH_api.json", "BENCH_rtr.json",
                     "BENCH_discovery.json", "BENCH_chaos.json",
                     "BENCH_scale.json", "BENCH_microperf.json",
                     "BENCH_stalloris.json"):
        assert expected in names, f"{expected} missing from artifacts"
    profiles = {path.name for path in check_bench.profile_artifacts()}
    assert "PROFILE_refresh.json" in profiles


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_lint_accepts_conforming_artifact(tmp_path):
    _write(tmp_path, "BENCH_demo.json", {
        "experiment": "demo",
        "pins": {"qps": {"measured": 12000, "bound": 10000, "op": ">="}},
        "extra": {"anything": True},
    })
    assert check_bench.check_all(tmp_path) == []


def test_lint_catches_name_mismatch(tmp_path):
    _write(tmp_path, "BENCH_demo.json", {
        "experiment": "other",
        "pins": {"x": {"measured": 1, "bound": 1, "op": "=="}},
    })
    problems = check_bench.check_all(tmp_path)
    assert len(problems) == 1 and "does not match file name" in problems[0]


def test_lint_catches_missing_pins(tmp_path):
    _write(tmp_path, "BENCH_demo.json", {"experiment": "demo"})
    problems = check_bench.check_all(tmp_path)
    assert len(problems) == 1 and "pins" in problems[0]


def test_lint_catches_violated_pin(tmp_path):
    _write(tmp_path, "BENCH_demo.json", {
        "experiment": "demo",
        "pins": {"qps": {"measured": 9000, "bound": 10000, "op": ">="}},
    })
    problems = check_bench.check_all(tmp_path)
    assert len(problems) == 1 and "violated" in problems[0]


def test_lint_catches_malformed_pin(tmp_path):
    _write(tmp_path, "BENCH_demo.json", {
        "experiment": "demo",
        "pins": {
            "a": {"measured": "fast", "bound": 1, "op": "<="},
            "b": {"measured": 1, "bound": 1, "op": "!="},
            "c": {"measured": True, "bound": 1, "op": "<="},
        },
    })
    problems = check_bench.check_all(tmp_path)
    assert len(problems) == 3


def test_lint_catches_invalid_json(tmp_path):
    (tmp_path / "BENCH_demo.json").write_text("{oops", encoding="utf-8")
    problems = check_bench.check_all(tmp_path)
    assert len(problems) == 1 and "not valid JSON" in problems[0]


def _profile_payload(**overrides):
    payload = {
        "scale": "internet-small", "seed": 0,
        "roa_count": 10000, "authority_count": 205,
        "vrp_count": 10000, "rounds": 2,
        "build_seconds": 6.0, "refresh_seconds": 1.5,
        "attributed_share": 0.99,
        "timer_cost": {"pairs": 5, "timed_seconds": 1.55,
                       "untimed_seconds": 1.5, "ratio": 1.033},
        "stages": [{"stage": "verify", "calls": 20615, "seconds": 1.0,
                    "share": 0.66, "counts": {}}],
        "slowest_points": [{"point": "rsync://a.example/repo/",
                            "seconds": 0.01, "counts": {"verifies": 101}}],
    }
    payload.update(overrides)
    return payload


def _bench_stub(tmp_path):
    # check_all refuses an artifact dir with no BENCH files at all.
    _write(tmp_path, "BENCH_demo.json", {
        "experiment": "demo",
        "pins": {"x": {"measured": 0, "bound": 0, "op": "=="}},
    })


def test_lint_accepts_conforming_profile(tmp_path):
    _bench_stub(tmp_path)
    _write(tmp_path, "PROFILE_refresh.json", _profile_payload())
    assert check_bench.check_all(tmp_path) == []


def test_lint_catches_profile_missing_fields(tmp_path):
    _bench_stub(tmp_path)
    payload = _profile_payload()
    del payload["build_seconds"], payload["slowest_points"]
    payload["rounds"] = True
    _write(tmp_path, "PROFILE_refresh.json", payload)
    problems = check_bench.check_all(tmp_path)
    assert len(problems) == 3
    assert any("'build_seconds'" in p for p in problems)
    assert any("'slowest_points'" in p for p in problems)
    assert any("'rounds'" in p for p in problems)


def test_lint_rejects_profile_of_a_deleted_option(tmp_path):
    # A report written when RelyingParty still had ``lean`` (or a
    # ``mode``) describes a program that no longer exists; regenerate
    # it, do not keep it.
    _bench_stub(tmp_path)
    for option, value in (("lean", True), ("mode", "serial")):
        _write(tmp_path, "PROFILE_refresh.json",
               _profile_payload(**{option: value}))
        problems = check_bench.check_all(tmp_path)
        assert len(problems) == 1, problems
        assert f"unknown field {option!r}" in problems[0]


def test_lint_catches_profile_bad_stage_rows(tmp_path):
    _bench_stub(tmp_path)
    _write(tmp_path, "PROFILE_refresh.json", _profile_payload(
        stages=[],                                        # empty table
        slowest_points=[{"point": "x", "seconds": "0.1",  # mistyped
                         "counts": {}}],
        timer_cost={"pairs": 5, "timed_seconds": 1.0},    # no ratio
    ))
    problems = check_bench.check_all(tmp_path)
    assert len(problems) == 4, problems
    assert any("'stages' must be a non-empty list" in p for p in problems)
    assert any("slowest_points[0]: field 'seconds'" in p for p in problems)
    assert any("timer_cost: field 'ratio'" in p for p in problems)
    assert any("timer_cost: field 'untimed_seconds'" in p for p in problems)


def test_lint_rejects_a_cprofile_hotspot_report(tmp_path):
    # The function tables profiles carried before a refresh recorded its
    # own stage tree: a report of that shape is stale; regenerate it.
    _bench_stub(tmp_path)
    payload = _profile_payload()
    del payload["stages"], payload["slowest_points"], payload["timer_cost"]
    payload["hotspots"] = [{"location": "~:0(<built-in method pow>)",
                            "ncalls": 9, "tottime": 2.0, "cumtime": 2.0}]
    _write(tmp_path, "PROFILE_refresh.json", payload)
    problems = check_bench.check_all(tmp_path)
    assert "unknown field 'hotspots'" in " ".join(problems)
    assert any("'stages' must be a non-empty list" in p for p in problems)
    assert any("'timer_cost' missing" in p for p in problems)


def test_lint_catches_profile_invalid_json(tmp_path):
    _bench_stub(tmp_path)
    (tmp_path / "PROFILE_refresh.json").write_text("{oops", encoding="utf-8")
    problems = check_bench.check_all(tmp_path)
    assert len(problems) == 1 and "not valid JSON" in problems[0]
