#!/usr/bin/env python3
"""Bench-artifact lint: every BENCH_*.json matches the shared schema.

The ``BENCH_*`` artifacts under ``benchmarks/artifacts/`` are the pinned
performance claims of this reproduction — the numbers README.md and
docs/performance.md quote.  Each one must carry its pins in a uniform
shape so a regenerated artifact cannot silently drop a claim or record a
measurement that violates its own bound:

1. **Name.**  The file parses as a JSON object whose ``experiment``
   field equals the file name's ``BENCH_<experiment>.json`` stem.
2. **Pins.**  A non-empty top-level ``pins`` object: each pin maps a
   name to ``{"measured": number, "bound": number, "op": one of
   "<=" | ">=" | "=="}``.
3. **Consistency.**  Every pin's recorded measurement satisfies its own
   bound under its operator.  (The benchmark asserted this when it
   wrote the file; the lint catches hand-edits and writer drift.)

Anything else in the artifact — sections of measured values, configs,
sweeps — is free-form.

``PROFILE_*.json`` investigation artifacts are checked for *shape*, not
numbers: their seconds are timer observations, not claims, but a
regenerated profile must still carry the full report schema (deployment
metadata, the ``timer_cost`` medians, a non-empty ``stages`` table of
``{stage, calls, seconds, share, counts}`` rows and ``slowest_points``
rows of ``{point, seconds, counts}``) so docs/performance.md always has
both tables to quote.

Run directly (``python tools/check_bench.py``, exit 1 on problems) or
via the tier-1 test ``tests/test_bench_lint.py``.
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACTS = REPO_ROOT / "benchmarks" / "artifacts"

_OPS = {
    "<=": lambda measured, bound: measured <= bound,
    ">=": lambda measured, bound: measured >= bound,
    "==": lambda measured, bound: measured == bound,
}


def bench_artifacts(artifacts: pathlib.Path = ARTIFACTS) -> list[pathlib.Path]:
    """Every pinned benchmark artifact, sorted by name."""
    if not artifacts.is_dir():
        return []
    return sorted(artifacts.glob("BENCH_*.json"))


def profile_artifacts(
    artifacts: pathlib.Path = ARTIFACTS,
) -> list[pathlib.Path]:
    """Every archived profile report, sorted by name."""
    if not artifacts.is_dir():
        return []
    return sorted(artifacts.glob("PROFILE_*.json"))


def check_artifact(path: pathlib.Path) -> list[str]:
    """Schema problems in one artifact (empty list = conforming)."""
    rel = path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) \
        else path
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return [f"{rel}: not valid JSON ({exc})"]
    if not isinstance(data, dict):
        return [f"{rel}: top level must be a JSON object"]

    problems = []
    expected = path.name[len("BENCH_"):-len(".json")]
    experiment = data.get("experiment")
    if experiment != expected:
        problems.append(
            f"{rel}: experiment {experiment!r} does not match file name "
            f"(expected {expected!r})"
        )

    pins = data.get("pins")
    if not isinstance(pins, dict) or not pins:
        problems.append(f"{rel}: missing or empty 'pins' object")
        return problems
    for name, pin in sorted(pins.items()):
        if not isinstance(pin, dict):
            problems.append(f"{rel}: pin {name!r} is not an object")
            continue
        measured, bound, op = (
            pin.get("measured"), pin.get("bound"), pin.get("op")
        )
        if not isinstance(measured, (int, float)) \
                or isinstance(measured, bool):
            problems.append(f"{rel}: pin {name!r}: 'measured' must be a "
                            "number")
            continue
        if not isinstance(bound, (int, float)) or isinstance(bound, bool):
            problems.append(f"{rel}: pin {name!r}: 'bound' must be a number")
            continue
        if op not in _OPS:
            problems.append(
                f"{rel}: pin {name!r}: 'op' must be one of "
                f"{sorted(_OPS)}, got {op!r}"
            )
            continue
        if not _OPS[op](measured, bound):
            problems.append(
                f"{rel}: pin {name!r} violated: measured {measured} "
                f"{op} bound {bound} is false"
            )
    return problems


_NUMBER = (int, float)

# Fields a ProfileReport JSON must carry, with their types; any other
# top-level key (a report written before an option was deleted, say) is
# rejected.
_PROFILE_FIELDS: dict[str, type | tuple[type, ...]] = {
    "scale": str, "seed": int, "roa_count": int, "authority_count": int,
    "vrp_count": int, "rounds": int, "build_seconds": _NUMBER,
    "refresh_seconds": _NUMBER, "attributed_share": _NUMBER,
    "timer_cost": dict,
}

# Row fields of the report's tables and of its timer_cost object.
_PROFILE_ROWS: dict[str, dict[str, type | tuple[type, ...]]] = {
    "stages": {"stage": str, "calls": int, "seconds": _NUMBER,
               "share": _NUMBER, "counts": dict},
    "slowest_points": {"point": str, "seconds": _NUMBER, "counts": dict},
}
_TIMER_COST_FIELDS = {"pairs": int, "timed_seconds": _NUMBER,
                      "untimed_seconds": _NUMBER, "ratio": _NUMBER}


def _typed(value, expected) -> bool:
    if isinstance(value, bool):  # an int subclass; no field is a bool
        return False
    return isinstance(value, expected)


def _check_fields(where, row, fields, problems) -> None:
    for name, expected in fields.items():
        if not _typed(row.get(name), expected):
            problems.append(f"{where}: field {name!r} missing or mistyped")


def _check_rows(rel, data, table, problems) -> None:
    rows = data.get(table)
    if not isinstance(rows, list) or not rows:
        problems.append(f"{rel}: '{table}' must be a non-empty list of rows")
        return
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            problems.append(f"{rel}: {table}[{index}] is not an object")
            continue
        _check_fields(f"{rel}: {table}[{index}]", row, _PROFILE_ROWS[table],
                      problems)


def check_profile(path: pathlib.Path) -> list[str]:
    """Schema problems in one PROFILE_*.json (empty list = conforming)."""
    rel = path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) \
        else path
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return [f"{rel}: not valid JSON ({exc})"]
    if not isinstance(data, dict):
        return [f"{rel}: top level must be a JSON object"]

    problems = []
    _check_fields(rel, data, _PROFILE_FIELDS, problems)
    for name in sorted(set(data) - {*_PROFILE_FIELDS, *_PROFILE_ROWS}):
        problems.append(f"{rel}: unknown field {name!r}")
    if isinstance(data.get("timer_cost"), dict):
        _check_fields(f"{rel}: timer_cost", data["timer_cost"],
                      _TIMER_COST_FIELDS, problems)
    for table in _PROFILE_ROWS:
        _check_rows(rel, data, table, problems)
    return problems


def check_all(artifacts: pathlib.Path = ARTIFACTS) -> list[str]:
    paths = bench_artifacts(artifacts)
    if not paths:
        return [f"no BENCH_*.json artifacts found under {artifacts}"]
    problems = []
    for path in paths:
        problems.extend(check_artifact(path))
    for path in profile_artifacts(artifacts):
        problems.extend(check_profile(path))
    return problems


def main() -> int:
    problems = check_all()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} bench-artifact problem(s)", file=sys.stderr)
        return 1
    benches = len(bench_artifacts())
    profiles = len(profile_artifacts())
    print(f"bench lint ok: {benches} pinned artifact(s) and {profiles} "
          "profile report(s), every pin present and satisfied")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
