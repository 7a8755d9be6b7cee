"""Every ``examples/*.py`` walkthrough runs to completion.

The examples are narrated views of the ``repro.experiments`` scenarios
(and of a few subsystems); each is loaded and its ``main()`` called
in-process — a subprocess apiece would spend its time re-importing the
package.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def test_all_nine_examples_are_collected():
    assert len(EXAMPLES) == 9


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name=path.stem)["main"]()
    assert capsys.readouterr().out.strip()
