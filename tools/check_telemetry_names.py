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
   ``time.perf_counter()``, ``time.process_time()`` or
   ``time.monotonic()``: all durations must come from the simulated
   :class:`repro.simtime.Clock`, otherwise two identical runs would
   render different telemetry.  (Benchmarks and tests may use real
   clocks; this lint only covers ``src/repro``.)  One named exemption:
   ``repro.profiling`` hands a registry its timer — its entire purpose
   is reporting where real CPU time went — and its numbers land in
   investigation artifacts (``PROFILE_*``), never in telemetry metrics.

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

5. **Documented label sets.**  The ``labelnames=`` literal of every
   registration (for ``trace(...)``, its label keyword names) is read
   from the AST and compared with the *Labels* column of the metric's
   row in ``docs/telemetry.md``: every registered name needs a row, the
   row must name exactly the registered labels, and two registrations
   of one name must agree.  Label names are a stable public API, so a
   label that is dropped (or added) without its row changing is a
   broken promise to whoever built a dashboard from the docs.

6. **No collector tuning.**  No module may call ``gc.collect()``,
   ``gc.disable()``, ``gc.enable()``, ``gc.freeze()``, ``gc.unfreeze()``
   or ``gc.set_threshold()``: what the pipeline keeps must be cheap for
   the cyclic collector as it is shipped (plain tuples the collector
   untracks), not hidden from it.  ``repro.profiling``, exempt from
   check 2 as well, collects before each timed refresh on purpose.

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
                    "perf_counter_ns", "time_ns", "process_time"}
# Modules allowed to read the wall clock and to drive the collector
# (relative to the repo root).  repro/profiling.py is the profiling
# harness: timing a refresh is its deliverable, and its output is a
# PROFILE_* investigation artifact, not telemetry.
WALL_CLOCK_EXEMPT = frozenset({"src/repro/profiling.py"})
GC_TUNING_CALLS = {"collect", "disable", "enable", "freeze", "unfreeze",
                   "set_threshold"}
# Packages whose import means a worker pool is being built.
POOL_MODULES = ("multiprocessing", "concurrent.futures")

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
TELEMETRY_DOC = REPO_ROOT / "docs" / "telemetry.md"
# A docs/telemetry.md table row: | `name` | type | labels | meaning |.
# Cells are split on unescaped pipes (label values are listed with \|).
_DOC_CELL_SPLIT = re.compile(r"(?<!\\)\|")
_DOC_LABEL_RE = re.compile(r"^`([a-z][a-z0-9_]*)`")


def _call_name(node: ast.Call) -> str | None:
    """The attribute or bare name being called, if any."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_module_call(node: ast.Call, module: str, names: set[str]) -> bool:
    """True for ``module.name()`` calls, e.g. ``time.time()``."""
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in names
        and isinstance(func.value, ast.Name)
        and func.value.id == module
    )


def _literal_metric_name(node: ast.Call) -> str | None:
    """The name a metric-factory call registers, if it is a string literal."""
    if _call_name(node) in METRIC_FACTORIES and node.args:
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


def _relative(path: pathlib.Path) -> pathlib.Path:
    try:
        return path.relative_to(REPO_ROOT)
    except ValueError:
        return path


def check_file(path: pathlib.Path) -> list[str]:
    problems: list[str] = []
    rel = _relative(path)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        metric_name = _literal_metric_name(node)
        if metric_name is not None:
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
        if rel.as_posix() in WALL_CLOCK_EXEMPT:
            continue
        if _is_module_call(node, "time", WALL_CLOCK_CALLS):
            problems.append(
                f"{rel}:{node.lineno}: wall-clock call "
                f"time.{node.func.attr}() — use the simulated Clock "
                "(repro.simtime) so telemetry stays deterministic"
            )
        if _is_module_call(node, "gc", GC_TUNING_CALLS):
            problems.append(
                f"{rel}:{node.lineno}: collector call "
                f"gc.{node.func.attr}() — src/repro leaves the cyclic "
                "collector as shipped"
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


def registered_labels(path: pathlib.Path) -> list[tuple[str, int, tuple]]:
    """``(metric name, line, label names)`` per literal-name registration.

    Labels come from the ``labelnames=`` keyword (absent means none);
    for ``trace(...)`` they are the label keyword names.  A
    ``labelnames=`` that is not a literal tuple/list of strings yields
    ``None`` in place of the labels, which :func:`check_label_docs`
    reports: the lint cannot vouch for what it cannot read.
    """
    found = []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        name = (_literal_metric_name(node)
                if isinstance(node, ast.Call) else None)
        if name is None:
            continue
        labels: tuple | None = ()
        if _call_name(node) == "trace":
            labels = tuple(k.arg for k in node.keywords
                           if k.arg not in (None, "registry"))
        for keyword in node.keywords:
            if keyword.arg == "labelnames":
                try:
                    labels = tuple(ast.literal_eval(keyword.value))
                except ValueError:
                    labels = None
        found.append((name, node.lineno, labels))
    return found


def documented_labels(text: str) -> dict[str, set[str]]:
    """Metric name -> label names, from the inventory tables of *text*."""
    rows: dict[str, set[str]] = {}
    for line in text.splitlines():
        cells = [cell.strip() for cell in _DOC_CELL_SPLIT.split(line)]
        # A row is | `repro_x` | type | labels | meaning |: six cells.
        if len(cells) < 6 or not cells[1].startswith("`repro_"):
            continue
        labels = (_DOC_LABEL_RE.match(part.strip())
                  for part in cells[3].split(","))
        rows[cells[1].strip("`")] = {m.group(1) for m in labels if m}
    return rows


def check_label_docs(
    root: pathlib.Path = SRC_ROOT, doc: pathlib.Path = TELEMETRY_DOC
) -> list[str]:
    problems: list[str] = []
    documented = documented_labels(doc.read_text(encoding="utf-8"))
    seen: dict[str, tuple] = {}
    for path in sorted(root.rglob("*.py")):
        for name, lineno, labels in registered_labels(path):
            where = f"{_relative(path)}:{lineno}: {name}"
            if labels is None:
                problems.append(
                    f"{where}: labelnames= must be a literal tuple of "
                    "strings so the docs lint can read it"
                )
                continue
            if seen.setdefault(name, labels) != labels:
                problems.append(
                    f"{where}: registered with labels {labels}, "
                    f"elsewhere with {seen[name]}"
                )
            if name not in documented:
                problems.append(f"{where}: no row in {doc.name}")
            elif documented[name] != set(labels):
                problems.append(
                    f"{where}: registered with labels {sorted(labels)} but "
                    f"{doc.name} lists {sorted(documented[name])}"
                )
    return problems


def main() -> int:
    problems = check_tree() + check_label_docs()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} telemetry lint problem(s)", file=sys.stderr)
        return 1
    print("telemetry lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
