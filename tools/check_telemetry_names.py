#!/usr/bin/env python3
"""Telemetry lint: metric-name hygiene + simulated-clock determinism.

Statically checks every module under ``src/repro``:

1. **Metric names.**  Every string literal passed as the name to a
   ``counter(...)`` / ``gauge(...)`` / ``histogram(...)`` / ``trace(...)``
   call must be ``snake_case`` and carry the ``repro_`` prefix — the same
   rule :class:`repro.telemetry.MetricsRegistry` enforces at runtime, but
   caught at review time and for code paths tests never execute.  On top
   of that, Prometheus unit-suffix conventions are enforced per factory:
   ``counter(...)`` names must end in ``_total`` and ``trace(...)`` names
   (duration histograms) in ``_seconds``, so dashboards can rely on the
   suffix to infer the metric's unit.

2. **Determinism.**  No module may call ``time.time()``,
   ``time.perf_counter()``, or ``time.monotonic()``: all durations must
   come from the simulated :class:`repro.simtime.Clock`, otherwise two
   identical runs would render different telemetry.  (Benchmarks and
   tests may use wall clocks; this lint only covers ``src/repro``.)
   One named exemption: ``repro.profiling`` *is* the wall-clock
   instrument — its entire purpose is reporting where real CPU time
   went — and its numbers land in investigation artifacts
   (``PROFILE_*``), never in telemetry metrics.

3. **No process or thread pools.**  No module may import
   ``multiprocessing`` or ``concurrent.futures``, at any scope: the
   pipeline is single-process (the pools that once existed never beat
   the in-process path — docs/performance.md), and a worker's metric
   increments would be invisible to the registry the artifacts render.

4. **No silent broad excepts.**  A handler over ``Exception`` /
   ``BaseException`` (or a bare ``except:``) whose body is a lone
   ``pass`` swallows failures without a trace — exactly the pattern the
   chaos campaign's containment contract forbids.  Broad handlers are
   fine when they *do* something (quarantine the object, record a
   degradation, ``continue`` a loop); silently discarding the exception
   is not.

Run directly (``python tools/check_telemetry_names.py``, exit 1 on
problems) or via the tier-1 test ``tests/test_telemetry_lint.py``.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

METRIC_NAME_RE = re.compile(r"^repro_[a-z0-9]+(_[a-z0-9]+)*$")
METRIC_FACTORIES = {"counter", "gauge", "histogram", "trace"}
# Prometheus unit-suffix conventions, per factory.  Counters count events
# (``_total``); trace() produces duration histograms (``_seconds``).
FACTORY_SUFFIXES = {"counter": "_total", "trace": "_seconds"}
WALL_CLOCK_CALLS = {"time", "perf_counter", "monotonic", "monotonic_ns",
                    "perf_counter_ns", "time_ns"}
# Modules allowed to read the wall clock (relative to the repo root).
# repro/profiling.py is the profiling harness: measuring real elapsed
# time is its deliverable, and its output is a PROFILE_* investigation
# artifact, not telemetry.
WALL_CLOCK_EXEMPT = frozenset({"src/repro/profiling.py"})
# Packages whose import means a worker pool is being built.
POOL_MODULES = ("multiprocessing", "concurrent.futures")

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"


def _call_name(node: ast.Call) -> str | None:
    """The attribute or bare name being called, if any."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_time_module_call(node: ast.Call) -> bool:
    """True for ``time.time()``-style calls on the stdlib time module."""
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in WALL_CLOCK_CALLS
        and isinstance(func.value, ast.Name)
        and func.value.id == "time"
    )


def check_file(path: pathlib.Path) -> list[str]:
    problems: list[str] = []
    try:
        rel = path.relative_to(REPO_ROOT)
    except ValueError:
        rel = path
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name in METRIC_FACTORIES and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                metric_name = first.value
                if not METRIC_NAME_RE.match(metric_name):
                    problems.append(
                        f"{rel}:{node.lineno}: metric name {metric_name!r} "
                        "must be snake_case with the 'repro_' prefix"
                    )
                suffix = FACTORY_SUFFIXES.get(name)
                if suffix and not metric_name.endswith(suffix):
                    problems.append(
                        f"{rel}:{node.lineno}: {name}() metric "
                        f"{metric_name!r} must end in '{suffix}'"
                    )
        if _is_time_module_call(node) \
                and rel.as_posix() not in WALL_CLOCK_EXEMPT:
            problems.append(
                f"{rel}:{node.lineno}: wall-clock call "
                f"time.{node.func.attr}() — use the simulated Clock "
                "(repro.simtime) so telemetry stays deterministic"
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and _is_silent_broad(node):
            caught = "bare except" if node.type is None else (
                f"except {ast.unparse(node.type)}"
            )
            problems.append(
                f"{rel}:{node.lineno}: {caught}: pass — broad handlers "
                "must contain the failure (quarantine, record, continue), "
                "never silently swallow it"
            )
    for node in ast.walk(tree):
        pooled = [
            module for module in _imported_modules(node)
            if any(module == banned or module.startswith(banned + ".")
                   for banned in POOL_MODULES)
        ]
        if pooled:
            problems.append(
                f"{rel}:{node.lineno}: import of {pooled[0]} — src/repro "
                "is single-process; nothing is pooled"
            )
    return problems


def _imported_modules(node: ast.AST) -> list[str]:
    """The dotted module names an import statement pulls in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        # ``from concurrent import futures`` names the submodule too.
        return [node.module] + [
            f"{node.module}.{alias.name}" for alias in node.names
        ]
    return []


def _is_silent_broad(handler: ast.ExceptHandler) -> bool:
    """True for ``except Exception: pass`` and friends.

    Broad means a bare ``except:`` or one naming ``Exception`` /
    ``BaseException`` (possibly in a tuple); silent means the body is
    exactly one ``pass`` statement.
    """
    if not (len(handler.body) == 1 and isinstance(handler.body[0], ast.Pass)):
        return False
    caught = handler.type
    if caught is None:
        return True
    types = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    broad = {"Exception", "BaseException"}
    for node in types:
        if isinstance(node, ast.Name) and node.id in broad:
            return True
        if isinstance(node, ast.Attribute) and node.attr in broad:
            return True
    return False


def check_tree(root: pathlib.Path = SRC_ROOT) -> list[str]:
    problems: list[str] = []
    for path in sorted(root.rglob("*.py")):
        problems.extend(check_file(path))
    return problems


def main() -> int:
    problems = check_tree()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} telemetry lint problem(s)", file=sys.stderr)
        return 1
    print("telemetry lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
