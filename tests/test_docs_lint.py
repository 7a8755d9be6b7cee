"""Tier-1 hook for the docs lint (tools/check_docs.py).

Fails the suite if any module under ``src/repro`` lacks a docstring, any
internal markdown link in docs/ (or the top-level pages) is broken, any
``python -m repro <subcommand>`` mentioned in the docs no longer exists
in ``repro.cli``, the ``repro.cli`` docstring's command list and its
table disagree, EXPERIMENTS.md names an artifact that is not in
``benchmarks/artifacts/``, a docs page names a test id that is not
defined, or a docs page is longer than its line cap.
"""

import pathlib
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import check_docs  # noqa: E402


def test_every_module_has_docstring():
    problems = check_docs.check_docstrings()
    assert problems == [], "\n".join(problems)


def test_every_internal_link_resolves():
    problems = check_docs.check_links()
    assert problems == [], "\n".join(problems)


def test_lint_catches_missing_docstring(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "documented.py").write_text('"""Has a docstring."""\nX = 1\n')
    (pkg / "bare.py").write_text("X = 1\n")
    problems = check_docs.check_docstrings(pkg)
    assert len(problems) == 1 and "bare.py" in problems[0]


def test_lint_catches_broken_link(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "[good](real.md) [bad](missing.md) "
        "[ext](https://example.com/x.md) [frag](#section)\n"
    )
    (tmp_path / "real.md").write_text("hi\n")
    problems = check_docs.check_links_in(page)
    assert len(problems) == 1 and "missing.md" in problems[0]


def test_fragments_are_stripped(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("[ok](real.md#anchor)\n")
    (tmp_path / "real.md").write_text("hi\n")
    assert check_docs.check_links_in(page) == []


def test_every_cli_mention_exists():
    problems = check_docs.check_cli_mentions()
    assert problems == [], "\n".join(problems)


def test_cli_subcommands_read_without_import():
    commands = check_docs.cli_subcommands()
    assert "rtr" in commands and "chaos" in commands and "all" in commands


def test_cli_table_parse_matches_registry():
    # The AST reading must agree with the real parser's registry.
    import importlib

    src = str(TOOLS.parent / "src")
    sys.path.insert(0, src)
    try:
        cli = importlib.import_module("repro.cli")
        assert check_docs.cli_subcommands() == {
            name for name, _help, _handler in cli._COMMANDS
        }
    finally:
        sys.path.remove(src)


def test_lint_catches_unknown_subcommand(tmp_path, monkeypatch):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "page.md").write_text(
        "Run `python -m repro rtr` then `python -m repro bogus`.\n"
        "Placeholders like python -m repro <cmd> are skipped.\n"
    )
    problems = check_docs.check_cli_mentions(tmp_path)
    assert len(problems) == 1
    assert "bogus" in problems[0] and "rtr" not in problems[0].split("->")[1]


def test_cli_docstring_matches_table():
    problems = check_docs.check_cli_docstring()
    assert problems == [], "\n".join(problems)


def test_lint_catches_cli_docstring_drift(tmp_path):
    cli = tmp_path / "cli.py"
    cli.write_text(
        '"""::\n\n    python -m repro fig2   # listed and registered\n'
        '    python -m repro ghost  # listed only\n"""\n'
        '_COMMANDS = (("fig2", "help", print), ("rtr", "help", print))\n'
    )
    problems = check_docs.check_cli_docstring(cli)
    assert len(problems) == 2
    assert "`ghost`" in problems[0] and "no such row" in problems[0]
    assert "`rtr`" in problems[1] and "missing from" in problems[1]


def test_every_named_artifact_exists():
    problems = check_docs.check_artifact_mentions()
    assert problems == [], "\n".join(problems)


def test_lint_catches_missing_artifact(tmp_path):
    artifacts = tmp_path / "benchmarks" / "artifacts"
    artifacts.mkdir(parents=True)
    (artifacts / "fig2_model.txt").write_text("x")
    (artifacts / "ablation_cache.txt").write_text("x")
    (tmp_path / "EXPERIMENTS.md").write_text(
        "- **bench**: `b.py` · artifact `fig2_model.txt`\n"
        "- **bench**: `c.py` · artifacts\n"
        "  `ablation_*.txt`, `gone.txt` · docs `docs/x.md`\n"
    )
    problems = check_docs.check_artifact_mentions(tmp_path)
    assert len(problems) == 1 and "`gone.txt`" in problems[0]


def test_every_named_test_id_exists():
    problems = check_docs.check_test_ids()
    assert problems == [], "\n".join(problems)


def test_lint_catches_missing_test_id(tmp_path):
    tests = tmp_path / "tests" / "rp"
    tests.mkdir(parents=True)
    (tests / "test_x.py").write_text(
        "LIMIT = 3\n\n"
        "def test_kept():\n    pass\n\n"
        "class TestKept:\n    def test_method(self):\n        pass\n"
    )
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "page.md").write_text(
        "`tests/rp/test_x.py::test_kept`, `tests/rp/test_x.py::LIMIT`,\n"
        "`tests/rp/test_x.py::TestKept::test_method`,\n"
        "`tests/rp/test_x.py::TestKept::test_gone`,\n"
        "`tests/rp/test_x.py::test_gone`, `tests/rp/test_y.py::test_kept`.\n"
    )
    (tmp_path / "CHANGES.md").write_text(
        "Removed `tests/rp/test_x.py::test_old`.\n")
    problems = check_docs.check_test_ids(tmp_path)
    assert len(problems) == 3
    assert all(problem.startswith("docs/page.md: ") for problem in problems)
    assert "TestKept::test_gone" in problems[0]
    assert "test_x.py::test_gone" in problems[1]
    assert "test_y.py::test_kept" in problems[2]


def test_every_page_is_within_its_line_cap():
    problems = check_docs.check_line_caps()
    assert problems == [], "\n".join(problems)


def test_lint_catches_a_page_over_its_cap(tmp_path):
    (tmp_path / "kept.md").write_text("one\ntwo\n")
    (tmp_path / "grown.md").write_text("one\ntwo\nthree\n")
    (tmp_path / "new.md").write_text("one\n")
    problems = check_docs.check_line_caps(
        tmp_path, {"kept.md": 2, "grown.md": 2})
    assert problems == [
        "docs/grown.md: 3 lines, over its cap of 2: delete before adding, "
        "or raise the cap with a reason",
        "docs/new.md: has no LINE_CAPS row",
    ]
