"""Tier-1 hook for the layer lint (tools/check_layers.py).

Fails the suite if a module under ``src/repro`` imports another package
that is not below its own in the layer table of
``docs/architecture.md``, imports another package inside a function, or
belongs to a package the table does not name.  The lint is AST based:
it must keep working even when the package itself fails to import.
"""

import ast
import pathlib
import sys
import textwrap

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import check_layers  # noqa: E402


def test_repo_imports_go_down_the_layer_table():
    problems = check_layers.check_all()
    assert problems == [], "\n".join(problems)


def _imports_of_the_walk(tree):
    """Every import statement under *tree* that reaches ``repro.rp.walk``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if (node.module == "repro.rp.walk"
                    or (node.level == 1 and node.module == "walk")
                    or (node.level == 1 and node.module is None
                        and "walk" in names)
                    or (node.module == "repro.rp" and "walk" in names)):
                yield node
        elif isinstance(node, ast.Import) and any(
                alias.name.startswith("repro.rp.walk") for alias in node.names):
            yield node


def test_the_judge_imports_the_walk_only_inside_run():
    """The judge (``repro.rp.pathval``) does not know the walk: its one
    import of ``repro.rp.walk`` is in ``PathValidator.run``, which stays
    on the validator while ``benchmarks/e2e/stack.py`` times it there."""
    path = TOOLS.parent / "src" / "repro" / "rp" / "pathval.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    validator = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef)
                     and node.name == "PathValidator")
    run = next(node for node in validator.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    inside = set(map(id, _imports_of_the_walk(run)))
    outside = [node.lineno for node in _imports_of_the_walk(tree)
               if id(node) not in inside]
    assert outside == []
    assert len(inside) == 1


def test_order_is_the_documented_table():
    order = check_layers.layer_order()
    assert list(order)[:3] == ["repro.simtime", "repro.telemetry", "repro.memo"]
    assert order["repro.rp"] < order["repro.api"] < order["repro.bgp"]
    assert order["repro.rpki"] < order["repro.repository"]
    assert order["repro.core"] < order["repro.monitor"] < order["repro.modelgen"]
    assert order["repro.experiments"] < order["repro.profiling"] < order["repro.cli"]
    assert order["repro"] < order["repro.cli"] < order["repro.__main__"]


TABLE = """
    # Architecture

    ## The layers

    | Layer | Package | What it owns |
    |---|---|---|
    | substrate | `repro.low` | the bottom |
    | middle | `repro.mid` | the middle |
    | surface | `repro` (facade), `repro.top` | the top |

    ## Data flow

    `repro.unlisted` is named here, outside the table.
"""


def _fixture_repo(tmp_path, modules):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "architecture.md").write_text(
        textwrap.dedent(TABLE), encoding="utf-8")
    for name, source in modules.items():
        path = tmp_path / "src" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


CLEAN = {
    "repro/__init__.py": "from . import mid\nfrom .low import VALUE\n",
    "repro/top.py": "from . import VALUE\nfrom .mid import helper\n"
                    "import repro.low.base\n",
    "repro/low/__init__.py": "from .base import VALUE\n",
    "repro/low/base.py": '''
        """Docstrings do not count: ``from repro.top import run``."""
        VALUE = 1

        def f():
            from . import base  # inside one package: not checked
            return base
    ''',
    "repro/mid/__init__.py": "from ..low import VALUE\n\n\ndef helper():\n"
                             "    return VALUE\n",
}


def test_order_reads_only_the_layer_table(tmp_path):
    root = _fixture_repo(tmp_path, CLEAN)
    assert check_layers.layer_order(root) == {
        "repro.low": 0, "repro.mid": 1, "repro": 2, "repro.top": 3}


def test_lint_accepts_a_tree_that_goes_down(tmp_path):
    root = _fixture_repo(tmp_path, CLEAN)
    assert check_layers.check_all(root) == []


def test_lint_rejects_an_upward_and_a_function_level_import(tmp_path):
    root = _fixture_repo(tmp_path, {
        **CLEAN,
        "repro/low/base.py": "from ..mid import helper\n",
        "repro/mid/__init__.py": '''
            def helper():
                from repro.low import VALUE
                return VALUE
        ''',
    })
    problems = check_layers.check_all(root)
    assert len(problems) == 2, problems
    upward, nested = problems
    assert upward.startswith("src/repro/low/base.py:1: repro.low imports "
                             "repro.mid, which is not below it")
    assert nested.startswith("src/repro/mid/__init__.py:3: repro.mid "
                             "imports repro.low inside a function")


def test_lint_rejects_a_package_the_table_does_not_name(tmp_path):
    root = _fixture_repo(tmp_path, {
        **CLEAN,
        "repro/unlisted.py": "",
        "repro/top.py": "from . import unlisted\n",
    })
    problems = check_layers.check_all(root)
    assert problems == [
        "src/repro/top.py:1: repro.top imports repro.unlisted, which has no "
        "row in docs/architecture.md",
        "src/repro/unlisted.py: package repro.unlisted has no row in "
        "docs/architecture.md",
    ]


def test_missing_layer_table_is_loud(tmp_path):
    root = _fixture_repo(tmp_path, CLEAN)
    (root / "docs" / "architecture.md").write_text("# nothing\n")
    with pytest.raises(ValueError):
        check_layers.check_all(root)
