"""Tier-1 hook for the facade-drift lint (tools/check_facade.py).

Fails the suite when ``repro.__all__`` lists a name that does not
resolve, is missing from docs/API.md, is duplicated, or breaks the
sorted-by-construction invariant — or when an option of a name the
facade or a subpackage exports is set by no call outside ``tests/`` and
has no allowlist row, or when a def or class under ``src/repro`` is
named by no file outside ``tests/`` and has no allowlist row.
"""

import pathlib
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import check_facade  # noqa: E402


def test_facade_has_no_drift():
    problems = check_facade.check_facade()
    assert problems == [], "\n".join(problems)


def test_lint_catches_missing_attribute(monkeypatch):
    import repro

    monkeypatch.setattr(
        repro, "__all__", sorted(repro.__all__ + ["definitely_not_a_name"])
    )
    problems = check_facade.check_facade()
    assert any("definitely_not_a_name" in p and "no such attribute" in p
               for p in problems)
    # The phantom name is also undocumented, and both complaints name it.
    assert any("absent from docs/API.md" in p for p in problems)


def test_lint_catches_unsorted_all(monkeypatch):
    import repro

    shuffled = list(reversed(repro.__all__))
    monkeypatch.setattr(repro, "__all__", shuffled)
    problems = check_facade.check_facade()
    assert any("not sorted" in p for p in problems)


def test_lint_catches_duplicates(monkeypatch):
    import repro

    monkeypatch.setattr(repro, "__all__", repro.__all__ + [repro.__all__[0]])
    problems = check_facade.check_facade()
    assert any("more than once" in p for p in problems)


def test_every_option_has_a_caller():
    problems = check_facade.check_options()
    assert problems == [], "\n".join(problems)


def knob(first, second=2, *, third=3):
    """A facade function whose options the fixture below sets, or not."""


def test_lint_rejects_an_option_only_tests_set(monkeypatch, tmp_path):
    import repro

    monkeypatch.setattr(repro, "knob", knob, raising=False)
    monkeypatch.setattr(repro, "__all__", repro.__all__ + ["knob"])
    (tmp_path / "caller.py").write_text(
        "knob(1, 5)\n"            # sets second, by position
        "repro.knob(1, third=3)\n"  # restates third's default
    )
    problems = check_facade.check_options(
        allowlist={"knob.first": "no such option"}, roots=(tmp_path,)
    )
    knob_problems = [p for p in problems if "knob." in p]
    assert knob_problems == [
        "option knob.third is set by no call outside tests/: make it a "
        "constant, or give it an OPTION_ALLOWLIST row with a reason",
        "OPTION_ALLOWLIST row knob.first names no facade option",
    ]


def test_lint_reads_every_subpackage_all(monkeypatch, tmp_path):
    import repro.core

    monkeypatch.setattr(repro.core, "knob", knob, raising=False)
    monkeypatch.setattr(repro.core, "__all__", repro.core.__all__ + ["knob"])
    assert "knob" not in repro.__all__
    (tmp_path / "caller.py").write_text("knob(1, 5)\n")
    problems = check_facade.check_options(allowlist={}, roots=(tmp_path,))
    assert [p for p in problems if "knob." in p] == [
        "option knob.third is set by no call outside tests/: make it a "
        "constant, or give it an OPTION_ALLOWLIST row with a reason",
    ]


class Pump:
    """A facade class whose method options the fixture below sets, or not."""

    def pump(self, rounds=None, *, limit=None):
        """Set by a bare-name call alone, and by an attribute call."""

    def drain(self, limit=None):
        """Set by no call."""


def test_lint_reaches_a_method_option_only_through_an_attribute(
        monkeypatch, tmp_path):
    import repro

    monkeypatch.setattr(repro, "Pump", Pump, raising=False)
    monkeypatch.setattr(repro, "__all__", repro.__all__ + ["Pump"])
    (tmp_path / "caller.py").write_text(
        "pump(cache, 3)\n"              # a helper of the same name
        "chain.pump(limit=2)\n"         # sets limit, through an attribute
        "chain.drain(None)\n"           # restates limit's default
    )
    problems = check_facade.check_options(allowlist={}, roots=(tmp_path,))
    assert [p for p in problems if "Pump." in p] == [
        "option Pump.pump.rounds is set by no call outside tests/: make it "
        "a constant, or give it an OPTION_ALLOWLIST row with a reason",
        "option Pump.drain.limit is set by no call outside tests/: make it "
        "a constant, or give it an OPTION_ALLOWLIST row with a reason",
    ]


def test_every_definition_has_a_caller():
    problems = check_facade.check_definitions()
    assert problems == [], "\n".join(problems)


def definition_problems(root, files, allowlist=None):
    """Check 5 over a throwaway tree: package ``src/pkg`` and the caller
    directories under *root*, plus a ``tests/`` that is never read."""
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return check_facade.check_definitions(
        allowlist={} if allowlist is None else allowlist,
        roots=tuple(root / d for d in check_facade.CALLER_DIRS),
        package=root / "src" / "pkg",
    )


def unused(key, where):
    return (f"definition {key} ({where}) has no caller outside tests/: "
            "delete it, or give it a DEFINITION_ALLOWLIST row with a reason")


def test_lint_reports_a_function_nothing_calls(tmp_path):
    problems = definition_problems(tmp_path, {
        "src/pkg/mod.py": (
            "def used():\n    pass\n\n"
            "def unused():\n    pass\n\n"
            "class Box:\n"
            "    def __len__(self):\n        return 0\n\n"  # dunder: exempt
            "    def spare(self):\n        pass\n"
        ),
        "tools/run.py": "from pkg.mod import Box, used\nused()\nBox()\n",
    })
    assert problems == [unused("unused", "pkg/mod.py"),
                        unused("Box.spare", "pkg/mod.py")]


def test_lint_reaches_a_member_only_through_an_attribute(tmp_path):
    """Was: a local variable or a builtin of a member's name counted as
    its caller (``GhostbustersRecord.vcard`` rode on a local ``vcard``,
    ``LocalOverrides.filter`` on the builtin ``filter``)."""
    problems = definition_problems(tmp_path, {
        "src/pkg/mod.py": (
            "class Card:\n"
            "    @property\n    def vcard(self):\n        return {}\n\n"
            "    def filter(self):\n        pass\n\n"
            "    def kept(self):\n        pass\n\n"
            "def read():\n"
            "    vcard = {}\n    return vcard, list(filter(None, []))\n\n"
            "def outer():\n"
            "    def inner():\n        pass\n    return inner()\n"
        ),
        "tools/run.py": (
            "from pkg.mod import Card, outer, read\n"
            "read()\nouter()\nCard().kept()\n"),
    })
    assert problems == [unused("Card.vcard", "pkg/mod.py"),
                        unused("Card.filter", "pkg/mod.py")]


def test_lint_does_not_count_all_or_a_package_reexport(tmp_path):
    problems = definition_problems(tmp_path, {
        "src/pkg/__init__.py": (
            "from .mod import exported\n\n__all__ = [\"exported\"]\n"),
        "src/pkg/mod.py": "def exported():\n    pass\n",
    })
    assert problems == [unused("exported", "pkg/mod.py")]


def test_lint_does_not_count_a_use_under_tests(tmp_path):
    problems = definition_problems(tmp_path, {
        "src/pkg/mod.py": "def helper():\n    pass\n",
        "tests/test_mod.py": "from pkg.mod import helper\n\nhelper()\n",
    })
    assert problems == [unused("helper", "pkg/mod.py")]


def test_lint_counts_a_getattr_string(tmp_path):
    problems = definition_problems(tmp_path, {
        "src/pkg/mod.py": "def cmd_run():\n    pass\n",
        "src/pkg/cli.py": (
            "from pkg import mod\n\n"
            "def main():\n    getattr(mod, \"cmd_run\")()\n"),
        "examples/demo.py": "from pkg.cli import main\n\nmain()\n",
    })
    assert problems == []


def test_lint_honours_and_audits_the_allowlist(tmp_path):
    files = {
        "src/pkg/mod.py": (
            "class Owner:\n"
            "    def kept(self):\n        pass\n\n"
            "    def called(self):\n        pass\n"),
        "benchmarks/bench.py": "from pkg.mod import Owner\nOwner().called()\n",
    }
    problems = definition_problems(tmp_path, files, allowlist={
        "Owner.kept": "exercised by tests only, on purpose",
        "Owner.called": "stale: it has a caller",
        "Owner.gone": "stale: no such definition",
    })
    assert problems == [
        "definition Owner.called has a caller now: drop its "
        "DEFINITION_ALLOWLIST row",
        "DEFINITION_ALLOWLIST row Owner.gone names no definition",
    ]
