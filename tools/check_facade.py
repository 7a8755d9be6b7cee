#!/usr/bin/env python3
"""Facade-drift lint: ``repro.__all__`` vs. reality vs. the docs.

The facade (``src/repro/__init__.py``) promises that its ``__all__`` is
the complete, documented, stable public API, that every option it
offers is one somebody uses, and that the package behind it holds no
code nothing runs.  Five ways that promise can silently rot, five
checks:

1. **Every name resolves.**  A name listed in ``__all__`` but missing
   from the module (a deleted re-export, a typo) breaks
   ``from repro import *`` and any reader trusting the list.
2. **Every name is documented.**  docs/API.md is generated from the
   live tree (tools/gen_api_docs.py); a facade name absent from it means
   the committed docs predate the export and need regenerating.
3. **The list is sorted and duplicate-free.**  Sorted-by-construction
   keeps diffs reviewable (one insertion per new export) and makes the
   completeness check in code review a scan, not a puzzle.
4. **Every option has a caller.**  A defaulted parameter of an exported
   function, of an exported class's ``__init__`` (dataclasses excepted)
   or of a field of an exported ``*Config`` dataclass — exported by the
   facade or by any ``repro.*`` subpackage's ``__all__`` — must be set
   by some call under ``src/``, ``benchmarks/``, ``examples/`` or
   ``tools/`` — by keyword, by position, or (for a config field) through
   ``dataclasses.replace``.  Passing a literal equal to the default does
   not count.  A setting only ``tests/`` sets is a constant waiting to
   happen; one that stays anyway sits in :data:`OPTION_ALLOWLIST` with
   its reason.  Calls are matched by the callee's name, by AST (no
   imports of the scanned files).
5. **Every definition has a caller.**  Every ``def`` and ``class`` under
   ``src/repro`` (dunder methods exempt) must be named somewhere under
   ``src/``, ``benchmarks/``, ``examples/`` or ``tools/``: as an
   attribute (``x.name``), an imported name outside a package
   ``__init__.py``, or an identifier-shaped string (``getattr``
   dispatch) — and, for a module-level definition or one nested in a
   function, also as a bare name.  A class member is only ever reached
   through an attribute, so a local variable or a builtin of its name
   does not keep it.  ``__all__`` lists, package re-exports and
   ``tests/`` do not count: a definition only tests reach is a corner
   the program itself never runs.  One that stays anyway sits in
   :data:`DEFINITION_ALLOWLIST` with its reason.  The match is still by
   name, not by owner, so a member sharing its name with a used one
   counts as used (``LocalOverrides.from_dict`` rides on
   ``TraceNode.from_dict``): the check can miss dead code.

Checks 4 and 5 parse each file once between them.

Run directly (``PYTHONPATH=src python tools/check_facade.py``, exit 1 on
drift) or via the tier-1 test ``tests/test_facade_drift.py``.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
import functools
import importlib
import inspect
import pathlib
import pkgutil
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
API_DOC = REPO_ROOT / "docs" / "API.md"
CALLER_DIRS = ("src", "benchmarks", "examples", "tools")

# Exported options no call outside tests/ sets, kept anyway:
# "Owner.option" -> why.  Owner is the exported name (function or class).
OPTION_ALLOWLIST: dict[str, str] = {
    "RelyingParty.mode": "removed after the benchmark-only PR",
    "RelyingParty.strict_manifests":
        "set both ways by benchmarks/test_bench_ablations.py, through "
        "make_rp(**kwargs)",
    "DetectionExperiment.metrics":
        "the telemetry registry, injected like every other component's",
    "plan_rollout.existing":
        "the ROAs already published: data, not a setting; without it the "
        "advisor cannot warn that a new ROA is covered by an existing one "
        "(Side Effect 6)",
}

# Definitions no file outside tests/ names, kept anyway: "Owner.name" ->
# why.  Owner is the enclosing class (or function), none for a module's.
DEFINITION_ALLOWLIST: dict[str, str] = {
    "CertificateAuthority.key":
        "the authority's signing key pair: the seam through which the "
        "hostile-input tests sign forged bytes (tests/rpki/forge.py); the "
        "program signs through the authority's own methods",
    "CertificateAuthority.roll_key":
        "an authority's key rollover, which the paper's relying parties "
        "must follow; covered by tests/test_integration_lifecycle.py and "
        "tests/rp/test_delta_handoff.py",
    "GhostbustersRecord.vcard":
        "a contact record's content (RFC 6493), the one way to read a "
        "record the relying party keeps in ValidationRun.contacts for an "
        "operator; the program reads no field of it itself",
    "KeyFactory.issued":
        "how many key pairs a factory handed out: the count by which "
        "tests/modelgen/test_internet_scales.py holds a flat world to one "
        "key per authority (a world's key factory is the program's; only "
        "its count is read in tests)",
    "LocalOverrides.filter":
        "the builder of an RFC 8416 prefix filter beside pin(); the "
        "program reads filters from SLURM files (from_dict), the "
        "operator-facing builder is covered by tests/rp/test_slurm.py",
    "_BaseCertificate.crldp":
        "a certificate's CRL distribution point (RFC 6487), read from "
        "every certificate: tests/rpki/test_parse_differential.py holds "
        "each accessor to the reference parser's; the relying party finds "
        "an issuer's CRL through its publication point instead",
    "detect_manifest_replay":
        "the replay detector, standalone; covered by "
        "tests/monitor/test_monitor.py::TestByzantineDetectors; ROADMAP's "
        "manifest high-water mark item gives it the relying party as a "
        "caller",
}


def _import_repro():
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        import repro
    finally:
        sys.path.pop(0)
    return repro


def check_facade() -> list[str]:
    """Every name-level drift problem in the facade; empty means healthy."""
    repro = _import_repro()
    problems: list[str] = []
    names = list(repro.__all__)

    seen: set[str] = set()
    for name in names:
        if name in seen:
            problems.append(f"__all__ lists {name!r} more than once")
        seen.add(name)
    if names != sorted(names):
        for got, want in zip(names, sorted(names)):
            if got != want:
                problems.append(
                    f"__all__ is not sorted: {got!r} where {want!r} belongs"
                )
                break

    for name in names:
        if not hasattr(repro, name):
            problems.append(
                f"__all__ lists {name!r} but `repro` has no such attribute"
            )

    if not API_DOC.exists():
        problems.append(f"{API_DOC.relative_to(REPO_ROOT)} is missing — "
                        "run: PYTHONPATH=src python tools/gen_api_docs.py")
        return problems
    documented = set(
        re.findall(r"\*\*`([^`]+)`\*\*", API_DOC.read_text(encoding="utf-8"))
    )
    for name in names:
        if name == "__version__":
            continue  # rendered as `Version ...`, not an item entry
        if name not in documented:
            problems.append(
                f"facade name {name!r} is absent from docs/API.md — "
                "run: PYTHONPATH=src python tools/gen_api_docs.py"
            )
    return problems


def exported(repro) -> dict[str, object]:
    """Every name in ``repro.__all__`` or a ``repro.*`` subpackage's."""
    names = {name: getattr(repro, name, None) for name in repro.__all__}
    for module in pkgutil.iter_modules(repro.__path__):
        if module.ispkg:
            package = importlib.import_module(f"repro.{module.name}")
            for name in package.__all__:
                names.setdefault(name, getattr(package, name))
    return names


def facade_options(repro) -> list[tuple[str, str, int | None, object]]:
    """``(owner, option, position, default)`` for every defaulted option
    of an :func:`exported` name.

    *position* is the index a positional argument lands on, or None for
    a keyword-only option.
    """
    options = []
    for owner, obj in exported(repro).items():
        if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
            if not owner.endswith("Config"):
                continue
            fields = [f for f in dataclasses.fields(obj) if f.init]
            for position, f in enumerate(fields):
                if f.default is not dataclasses.MISSING:
                    default = f.default
                elif f.default_factory is not dataclasses.MISSING:
                    default = dataclasses.MISSING  # never a literal
                else:
                    continue
                options.append((owner, f.name, None if f.kw_only else position,
                                default))
            continue
        if inspect.isclass(obj):
            if issubclass(obj, enum.Enum) or not inspect.isfunction(obj.__init__):
                continue
            function, skip = obj.__init__, 1
        elif inspect.isfunction(obj):
            function, skip = obj, 0
        else:
            continue
        params = list(inspect.signature(function).parameters.values())[skip:]
        for position, param in enumerate(params):
            if param.default is inspect.Parameter.empty:
                continue
            positional = param.kind in (param.POSITIONAL_ONLY,
                                        param.POSITIONAL_OR_KEYWORD)
            options.append((owner, param.name,
                            position if positional else None, param.default))
    return options


def _argument(call: ast.Call, name: str, position: int | None):
    """The expression *call* passes for an option, or None."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    if position is None:
        return None
    for index, arg in enumerate(call.args[:position + 1]):
        if isinstance(arg, ast.Starred) or index == position:
            return arg  # a *args splat may reach the option
    return None


def _sets(value: ast.expr | None, default: object) -> bool:
    """Does passing *value* set the option (not just restate its default)?"""
    return value is not None and not (
        isinstance(value, ast.Constant)
        and type(value.value) is type(default)
        and value.value == default
    )


@functools.lru_cache(maxsize=None)
def _parse(path: pathlib.Path) -> ast.Module:
    """*path*'s syntax tree, parsed once for every check that reads it."""
    return ast.parse(path.read_text(encoding="utf-8"))


def _sources(roots: tuple[pathlib.Path, ...]):
    """``(path, tree)`` for every Python file under *roots*."""
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path, _parse(path)


def set_options(
    options: list[tuple[str, str, int | None, object]],
    roots: tuple[pathlib.Path, ...],
) -> set[tuple[str, str]]:
    """The ``(owner, option)`` pairs some call under *roots* sets."""
    by_owner: dict[str, list[tuple[str, int | None, object]]] = {}
    by_field: dict[str, list[tuple[str, object]]] = {}
    for owner, name, position, default in options:
        by_owner.setdefault(owner, []).append((name, position, default))
        if owner.endswith("Config"):
            by_field.setdefault(name, []).append((owner, default))
    found: set[tuple[str, str]] = set()
    for _path, tree in _sources(roots):
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            callee = (func.id if isinstance(func, ast.Name)
                      else func.attr if isinstance(func, ast.Attribute)
                      else None)
            if callee == "replace":
                for keyword in call.keywords:
                    for owner, default in by_field.get(keyword.arg, ()):
                        if _sets(keyword.value, default):
                            found.add((owner, keyword.arg))
                continue
            for name, position, default in by_owner.get(callee, ()):
                if _sets(_argument(call, name, position), default):
                    found.add((callee, name))
    return found


def check_options(
    allowlist: dict[str, str] = OPTION_ALLOWLIST,
    roots: tuple[pathlib.Path, ...] = tuple(
        REPO_ROOT / d for d in CALLER_DIRS),
) -> list[str]:
    """Every exported option with no caller outside tests/ and no reason."""
    options = facade_options(_import_repro())
    found = set_options(options, roots)
    problems = []
    for owner, name, _position, _default in options:
        key = f"{owner}.{name}"
        if (owner, name) in found:
            if key in allowlist:
                problems.append(f"option {key} has a caller now: drop its "
                                "OPTION_ALLOWLIST row")
        elif key not in allowlist:
            problems.append(
                f"option {key} is set by no call outside tests/: make it a "
                "constant, or give it an OPTION_ALLOWLIST row with a reason"
            )
    known = {f"{owner}.{name}" for owner, name, _p, _d in options}
    for key in allowlist:
        if key not in known:
            problems.append(f"OPTION_ALLOWLIST row {key} names no facade "
                            "option")
    return problems


def _definitions(node: ast.AST, owner: tuple[str, ...] = (),
                 member: bool = False):
    """``("Owner.name", name, member)`` for every def and class under
    *node*; *member* is true for one defined in a class body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield ".".join(owner + (child.name,)), child.name, member
            yield from _definitions(child, owner + (child.name,),
                                    isinstance(child, ast.ClassDef))
        else:
            yield from _definitions(child, owner, member)


def _names(tree: ast.Module, package_init: bool):
    """``(name, bare)`` for every name *tree* uses: loads and stores
    (*bare*), attributes, imported names (not a package's re-exports)
    and identifier-shaped strings (``getattr`` dispatch) — but not the
    strings of ``__all__`` or of :data:`DEFINITION_ALLOWLIST`."""
    listed = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if any(isinstance(t, ast.Name)
               and t.id in ("__all__", "DEFINITION_ALLOWLIST")
               for t in targets):
            listed.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, False
        elif isinstance(node, ast.ImportFrom) and not package_init:
            yield from ((alias.name, False) for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in listed):
            yield node.value, False


def check_definitions(
    allowlist: dict[str, str] = DEFINITION_ALLOWLIST,
    roots: tuple[pathlib.Path, ...] = tuple(
        REPO_ROOT / d for d in CALLER_DIRS),
    package: pathlib.Path = REPO_ROOT / "src" / "repro",
) -> list[str]:
    """Every def and class under *package* no file under *roots* names."""
    # Names used as a bare name only, and names used otherwise.
    bare: set[str] = set()
    reached: set[str] = set()
    for path, tree in _sources(roots):
        for name, is_bare in _names(tree, path.name == "__init__.py"):
            (bare if is_bare else reached).add(name)
    problems = []
    known = set()
    for path, tree in _sources((package,)):
        for key, name, member in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            known.add(key)
            if name in reached or (not member and name in bare):
                if key in allowlist:
                    problems.append(f"definition {key} has a caller now: "
                                    "drop its DEFINITION_ALLOWLIST row")
            elif key not in allowlist:
                where = path.relative_to(package.parent)
                problems.append(
                    f"definition {key} ({where}) has no caller outside "
                    "tests/: delete it, or give it a DEFINITION_ALLOWLIST "
                    "row with a reason"
                )
    for key in allowlist:
        if key not in known:
            problems.append(f"DEFINITION_ALLOWLIST row {key} names no "
                            "definition")
    return problems


def main() -> int:
    problems = (check_facade() + check_options()
                + check_definitions())
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} facade drift problem(s)", file=sys.stderr)
        return 1
    print("facade check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
