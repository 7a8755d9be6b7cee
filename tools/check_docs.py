#!/usr/bin/env python3
"""Docs lint: docstrings present, links resolve, CLI, artifact and
test mentions exist, pages stay within their length.

Seven checks, all cheap enough to live in tier-1:

1. **Docstrings.**  Every module under ``src/repro`` (packages included)
   must open with a non-empty docstring.  The API reference in
   ``docs/API.md`` is generated from those docstrings, so a missing one
   is a hole in the docs site, not a style nit.

2. **Links.**  Every relative markdown link in ``docs/*.md``, README.md,
   and the other top-level markdown pages must point at a file that
   exists (fragments stripped; ``http(s)://`` / ``mailto:`` and
   pure-fragment ``#anchor`` links are skipped).  Docs rot silently —
   this is the tripwire.

3. **CLI drift.**  Every ``python -m repro <subcommand>`` mentioned
   anywhere in the docs pages must name a subcommand that actually
   exists in ``repro.cli`` (read by AST from the ``_COMMANDS`` table, so
   the lint never imports the package).  Placeholders like
   ``python -m repro <cmd>`` are skipped.

4. **CLI docstring drift.**  The command list at the top of the
   ``repro.cli`` module docstring and the ``_COMMANDS`` table name the
   same commands — neither may have one the other lacks.

5. **Artifact drift.**  Every ``artifact `<file>``` / ``artifacts
   `<a>`, `<b>``` named in EXPERIMENTS.md exists under
   ``benchmarks/artifacts/`` (``*`` globs allowed).

6. **Test-id drift.**  Every ``tests/<path>.py::Name`` or
   ``benchmarks/<path>.py::Name`` id (``Name`` may be
   ``Class::method``) named in the docs pages is defined in that file,
   read by AST.  CHANGES.md is exempt: it names tests as they were when
   each change landed.

7. **Line caps.**  Every ``docs/*.md`` page has a row in
   :data:`LINE_CAPS` and is at most that many lines (as ``wc -l``
   counts them).  A page grows only by a change that raises its cap, so
   a run log appended to a design page must first delete as much.

Run directly (``python tools/check_docs.py``, exit 1 on problems) or via
the tier-1 test ``tests/test_docs_lint.py``.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
DOCS_ROOT = REPO_ROOT / "docs"

# Top-level pages that participate in the docs link graph.
TOP_LEVEL_PAGES = (
    "README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "CHANGES.md",
)

# Most lines each docs/*.md page may have (check 7): its length when the
# cap was last set.
LINE_CAPS = {
    "API.md": 892,
    "api_service.md": 179,
    "architecture.md": 217,
    "chaos.md": 115,
    "faults.md": 139,
    "performance.md": 2232,
    "resilience.md": 225,
    "rtr.md": 278,
    "telemetry.md": 314,
}

# [text](target) — target up to the first whitespace or closing paren.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")

# "python -m repro <word>" — the word must be a real subcommand.  Only
# bare command words are captured; placeholders like "<cmd>" don't match.
_CLI_RE = re.compile(r"python\s+-m\s+repro\s+([A-Za-z0-9_-]+)")

# "artifact `a.txt`" / "artifacts\n  `a.txt`, `b.json`" — the run of
# backticked file names after the word, then each name in the run.
_ARTIFACT_RUN_RE = re.compile(
    r"\bartifacts?((?:[\s,]*`[^`\s]+\.(?:txt|json)`)+)")
_ARTIFACT_NAME_RE = re.compile(r"`([^`]+)`")

# "tests/rp/test_x.py::TestClass::test_name" — a file, then its names.
_TEST_ID_RE = re.compile(
    r"\b((?:tests|benchmarks)/[\w/]+\.py)((?:::\w+)+)")


def check_docstrings(src_root: pathlib.Path = SRC_ROOT) -> list[str]:
    """Every module under *src_root* has a non-empty docstring."""
    problems = []
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root.parent.parent)
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError as exc:  # pragma: no cover - tier-1 would fail first
            problems.append(f"{rel}: unparsable ({exc})")
            continue
        doc = ast.get_docstring(tree)
        if not doc or not doc.strip():
            problems.append(f"{rel}: missing module docstring")
    return problems


def markdown_files(repo_root: pathlib.Path = REPO_ROOT) -> list[pathlib.Path]:
    files = sorted((repo_root / "docs").glob("*.md"))
    for name in TOP_LEVEL_PAGES:
        page = repo_root / name
        if page.exists():
            files.append(page)
    return files


def check_links_in(path: pathlib.Path) -> list[str]:
    """Every relative link in one markdown file resolves to a real file."""
    problems = []
    text = path.read_text(encoding="utf-8")
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            rel = path.relative_to(REPO_ROOT) if path.is_relative_to(
                REPO_ROOT) else path
            problems.append(f"{rel}: broken link -> {match.group(1)}")
    return problems


def check_links(repo_root: pathlib.Path = REPO_ROOT) -> list[str]:
    problems = []
    for path in markdown_files(repo_root):
        problems.extend(check_links_in(path))
    return problems


def cli_subcommands(
    cli_path: pathlib.Path | None = None,
) -> set[str]:
    """The command names in ``repro.cli``'s table, read without importing.

    The table is a module-level ``_COMMANDS = ((name, help, handler),
    ...)`` assignment; the first element of each row is the registered
    subcommand.
    """
    if cli_path is None:
        cli_path = SRC_ROOT / "cli.py"
    tree = ast.parse(cli_path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        if "_COMMANDS" not in names or not isinstance(node.value, ast.Tuple):
            continue
        return {
            row.elts[0].value for row in node.value.elts
            if isinstance(row, ast.Tuple) and row.elts
            and isinstance(row.elts[0], ast.Constant)
            and isinstance(row.elts[0].value, str)
        }
    raise LookupError(f"no _COMMANDS table found in {cli_path}")


def check_cli_docstring(cli_path: pathlib.Path | None = None) -> list[str]:
    """The module docstring's command list and the table agree."""
    if cli_path is None:
        cli_path = SRC_ROOT / "cli.py"
    tree = ast.parse(cli_path.read_text(encoding="utf-8"))
    listed = set(_CLI_RE.findall(ast.get_docstring(tree) or ""))
    table = cli_subcommands(cli_path)
    return [
        f"{cli_path.name}: docstring lists `{name}` but _COMMANDS has no "
        "such row" for name in sorted(listed - table)
    ] + [
        f"{cli_path.name}: _COMMANDS row `{name}` is missing from the "
        "module docstring's command list" for name in sorted(table - listed)
    ]


def check_artifact_mentions(repo_root: pathlib.Path = REPO_ROOT) -> list[str]:
    """Every artifact EXPERIMENTS.md names exists in benchmarks/artifacts."""
    page = repo_root / "EXPERIMENTS.md"
    artifacts = repo_root / "benchmarks" / "artifacts"
    problems = []
    for run in _ARTIFACT_RUN_RE.findall(page.read_text(encoding="utf-8")):
        for name in _ARTIFACT_NAME_RE.findall(run):
            if not any(artifacts.glob(name)):
                problems.append(
                    f"{page.name}: names artifact `{name}` but "
                    f"benchmarks/artifacts/ has no such file"
                )
    return problems


def check_cli_mentions(repo_root: pathlib.Path = REPO_ROOT) -> list[str]:
    """Every ``python -m repro X`` in the docs names a real subcommand."""
    commands = cli_subcommands()
    problems = []
    for path in markdown_files(repo_root):
        text = path.read_text(encoding="utf-8")
        rel = path.relative_to(repo_root) if path.is_relative_to(
            repo_root) else path
        for mentioned in _CLI_RE.findall(text):
            if mentioned not in commands:
                problems.append(
                    f"{rel}: unknown CLI subcommand in docs -> "
                    f"python -m repro {mentioned}"
                )
    return problems


def _defines(scope: list[ast.stmt], name: str) -> list[ast.stmt] | None:
    """The body of what *scope* defines as *name* ([] for a value),
    or None if it defines no such name."""
    for node in scope:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name == name:
            return node.body if isinstance(node, ast.ClassDef) else []
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return []
    return None


def check_test_ids(repo_root: pathlib.Path = REPO_ROOT) -> list[str]:
    """Every test id the docs pages name is defined where they say."""
    problems = []
    trees: dict[str, list[ast.stmt] | None] = {}
    for page in markdown_files(repo_root):
        if page.name == "CHANGES.md":
            continue
        rel = page.relative_to(repo_root) if page.is_relative_to(
            repo_root) else page
        for path, names in _TEST_ID_RE.findall(
                page.read_text(encoding="utf-8")):
            if path not in trees:
                source = repo_root / path
                trees[path] = ast.parse(
                    source.read_text(encoding="utf-8")
                ).body if source.is_file() else None
            scope = trees[path]
            for name in names.split("::")[1:]:
                scope = None if scope is None else _defines(scope, name)
            if scope is None:
                problems.append(
                    f"{rel}: names test `{path}{names}`, which does not exist")
    return problems


def check_line_caps(docs_root: pathlib.Path = DOCS_ROOT,
                    caps: dict[str, int] = LINE_CAPS) -> list[str]:
    """Every docs page has a line cap and is within it."""
    problems = []
    for page in sorted(docs_root.glob("*.md")):
        lines = page.read_text(encoding="utf-8").count("\n")
        cap = caps.get(page.name)
        if cap is None:
            problems.append(f"docs/{page.name}: has no LINE_CAPS row")
        elif lines > cap:
            problems.append(
                f"docs/{page.name}: {lines} lines, over its cap of {cap}: "
                "delete before adding, or raise the cap with a reason")
    return problems


def check_all() -> list[str]:
    return (check_docstrings() + check_links() + check_cli_mentions()
            + check_cli_docstring() + check_artifact_mentions()
            + check_test_ids() + check_line_caps())


def main() -> int:
    problems = check_all()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} docs problem(s)", file=sys.stderr)
        return 1
    print("docs lint ok: every module documented, every link resolves, "
          "every CLI, artifact and test mention exists, every page is "
          "within its line cap")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
