"""Tests for the side-effect catalogue (repro.experiments).

The file keeps its name because test ids are pinned; the catalogue left
``repro.core`` for ``repro.experiments``, next to the scenarios it
reuses.
"""

import pytest

from repro import experiments
from repro.core import ScenarioError
from repro.experiments import demonstrate_all

SIDE_EFFECTS = {
    int(name.rpartition("_")[2]): getattr(experiments, name)
    for name in dir(experiments)
    if name.startswith("demonstrate_side_effect_")
}


def demonstrate(number):
    return SIDE_EFFECTS[number]()


class TestCatalog:
    def test_all_seven_present(self):
        assert sorted(SIDE_EFFECTS) == [1, 2, 3, 4, 5, 6, 7]

    @pytest.mark.parametrize("number", sorted(SIDE_EFFECTS))
    def test_each_side_effect_manifests(self, number):
        report = demonstrate(number)
        assert report.number == number
        assert report.claims, "a demonstration must check something"
        text = report.render()
        assert f"Side Effect {number}" in text

    def test_demonstrate_all_ordered(self):
        reports = demonstrate_all()
        assert [r.number for r in reports] == [1, 2, 3, 4, 5, 6, 7]

    def test_check_raises_on_false_claim(self):
        from repro.experiments import SideEffectReport

        report = SideEffectReport(1, "test")
        with pytest.raises(ScenarioError):
            report.check(False, "this never held")
