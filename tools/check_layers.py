#!/usr/bin/env python3
"""Layer lint: every import in ``src/repro`` goes down the layer map.

``docs/architecture.md`` states the package order once, as the table
under "The layers": a package may import only the packages the table
names before it (the lower layers).  This lint holds the tree to that
table statically — no imports, so it runs even when the package is
broken:

1. **The order** is read from the table's Package column: every
   backticked ``repro...`` name, row by row and left to right within a
   row (``repro`` alone is the facade, ``repro/__init__.py``).
2. **Every module** under ``src/repro`` is parsed and every ``import``
   / ``from ... import`` is resolved, relative ones included, to the
   package it reaches (``repro.rp.vrp`` belongs to ``repro.rp``).
   Imports inside one package are not checked.

It reports a module whose package the table does not name, an import of
another package that is not strictly above the importer in the table,
and an import of another package inside a function body (which would
hide an edge from a reader of the module's head).

Run directly (``python tools/check_layers.py``, exit 1 on problems) or
via the tier-1 test ``tests/test_layers_lint.py``.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ARCHITECTURE = pathlib.Path("docs") / "architecture.md"
SOURCE = pathlib.Path("src") / "repro"

_NAME = re.compile(r"`(repro(?:\.\w+)?)`")


def layer_order(root: pathlib.Path = REPO_ROOT) -> dict[str, int]:
    """package -> position in the layer table (lower imports nothing higher)."""
    text = (root / ARCHITECTURE).read_text(encoding="utf-8")
    _, found, rest = text.partition("\n## The layers\n")
    order: dict[str, int] = {}
    for line in rest.split("\n## ", 1)[0].splitlines() if found else ():
        cells = line.strip().strip("|").split("|")
        if line.startswith("|") and len(cells) > 1:
            for name in _NAME.findall(cells[1]):
                order.setdefault(name, len(order))
    if not order:
        raise ValueError(f"no layer table found in {root / ARCHITECTURE}")
    return order


def _package_of(module: str) -> str:
    """``repro.rp.vrp`` -> ``repro.rp``; the facade is ``repro``."""
    parts = module.split(".")
    return ".".join(parts[:2])


def _modules(root: pathlib.Path):
    """(dotted module name, path, is package __init__) for every module."""
    base = root / SOURCE
    for path in sorted(base.rglob("*.py")):
        parts = list(path.relative_to(base.parent).with_suffix("").parts)
        is_init = parts[-1] == "__init__"
        if is_init:
            parts.pop()
        yield ".".join(parts), path, is_init


def _targets(node, module: str, is_init: bool, root: pathlib.Path):
    """The ``repro`` modules one import statement reaches."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names
                if alias.name.split(".")[0] == "repro"]
    if node.level:
        package = module.split(".")
        if not is_init:
            package.pop()
        package = package[:len(package) - (node.level - 1)]
        base = ".".join(package + ([node.module] if node.module else []))
    else:
        base = node.module or ""
    if base.split(".")[0] != "repro":
        return []
    if base != "repro":
        return [base]
    # ``from repro import name`` reaches a submodule when one is named.
    src = root / SOURCE
    return [
        f"repro.{alias.name}"
        if (src / f"{alias.name}.py").exists() or (src / alias.name).is_dir()
        else "repro"
        for alias in node.names
    ]


def _imports(tree: ast.Module):
    """(import node, inside a function?) for every import in *tree*."""
    def walk(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, in_function
            yield from walk(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)))
    yield from walk(tree, False)


def check_all(root: pathlib.Path = REPO_ROOT) -> list[str]:
    order = layer_order(root)
    problems = []
    for module, path, is_init in _modules(root):
        where = path.relative_to(root)
        own = _package_of(module)
        if own not in order:
            problems.append(
                f"{where}: package {own} has no row in {ARCHITECTURE}")
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, in_function in _imports(tree):
            for target in _targets(node, module, is_init, root):
                other = _package_of(target)
                if other == own:
                    continue
                if other not in order:
                    problems.append(
                        f"{where}:{node.lineno}: {own} imports {other}, "
                        f"which has no row in {ARCHITECTURE}")
                elif order[other] >= order[own]:
                    problems.append(
                        f"{where}:{node.lineno}: {own} imports {other}, "
                        f"which is not below it in {ARCHITECTURE}")
                if in_function:
                    problems.append(
                        f"{where}:{node.lineno}: {own} imports {other} "
                        "inside a function; imports of another package "
                        "go at module top")
    return problems


def main() -> int:
    problems = check_all()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} layer problem(s)", file=sys.stderr)
        return 1
    order = layer_order()
    modules = sum(1 for _ in _modules(REPO_ROOT))
    print(f"layers ok: {modules} module(s) in {len(order)} package(s), "
          "every cross-package import at module top and going down")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
