"""Tier-1 hook for the telemetry lint (tools/check_telemetry_names.py).

Fails the test suite if any module under ``src/repro`` registers a metric
whose name breaks the ``repro_``/snake_case rule, reads the wall clock
(``time.time()`` and friends) instead of the simulated Clock, or
constructs a worker pool at module scope instead of context-managing it
inside a function.
"""

import pathlib
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import check_telemetry_names  # noqa: E402


def test_src_tree_is_clean():
    problems = check_telemetry_names.check_tree()
    assert problems == [], "\n".join(problems)


def test_lint_catches_bad_metric_name(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("registry.counter('fetch_total')\n")
    problems = check_telemetry_names.check_file(bad)
    assert len(problems) == 1 and "snake_case" in problems[0]


def test_lint_catches_missing_unit_suffix(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "registry.counter('repro_memo_hits')\n"
        "registry.trace('repro_refresh_duration', clock)\n"
    )
    problems = check_telemetry_names.check_file(bad)
    assert len(problems) == 2
    assert "'_total'" in problems[0]
    assert "'_seconds'" in problems[1]


def test_lint_catches_wall_clock(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nstart = time.perf_counter()\n")
    problems = check_telemetry_names.check_file(bad)
    assert len(problems) == 1 and "simulated Clock" in problems[0]


def test_wall_clock_exemption_is_only_the_profiler():
    # repro.profiling measures real elapsed time by design; nothing else
    # under src/repro may join the exemption without justification here.
    assert check_telemetry_names.WALL_CLOCK_EXEMPT == {
        "src/repro/profiling.py"
    }


def test_lint_accepts_clean_module(tmp_path):
    good = tmp_path / "good.py"
    good.write_text(
        "registry.counter('repro_fetch_total')\n"
        "with registry.trace('repro_x_seconds', clock):\n"
        "    pass\n"
    )
    assert check_telemetry_names.check_file(good) == []


def test_lint_catches_pool_imports_at_any_scope(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import multiprocessing\n"
        "from concurrent import futures\n"
        "def run(jobs):\n"
        "    from multiprocessing.pool import ThreadPool\n"
    )
    problems = check_telemetry_names.check_file(bad)
    assert len(problems) == 3
    assert all("nothing is pooled" in problem for problem in problems)


def test_lint_accepts_threading_lock(tmp_path):
    # Synchronisation is not a pool: KeyFactory's cache lock stays legal.
    good = tmp_path / "good.py"
    good.write_text(
        "import threading\n"
        "from concurrent_utils import helper\n"
        "_LOCK = threading.Lock()\n"
    )
    assert check_telemetry_names.check_file(good) == []


def test_lint_catches_silent_broad_except(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "try:\n"
        "    risky()\n"
        "except Exception:\n"
        "    pass\n"
    )
    problems = check_telemetry_names.check_file(bad)
    assert len(problems) == 1 and "swallow" in problems[0]


def test_lint_catches_bare_except_pass_and_tuple_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "try:\n"
        "    risky()\n"
        "except:\n"
        "    pass\n"
        "try:\n"
        "    risky()\n"
        "except (ValueError, BaseException):\n"
        "    pass\n"
    )
    problems = check_telemetry_names.check_file(bad)
    assert len(problems) == 2
    assert "bare except" in problems[0]


def test_lint_accepts_broad_except_that_contains(tmp_path):
    good = tmp_path / "good.py"
    good.write_text(
        "for item in items:\n"
        "    try:\n"
        "        handle(item)\n"
        "    except Exception:\n"
        "        continue\n"
        "try:\n"
        "    risky()\n"
        "except ValueError:\n"
        "    pass\n"  # narrow except: pass is allowed
    )
    assert check_telemetry_names.check_file(good) == []
