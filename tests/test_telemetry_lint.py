"""Tier-1 hook for the telemetry lint (tools/check_telemetry_names.py).

Fails the test suite if any module under ``src/repro`` registers a metric
whose name breaks the ``repro_``/snake_case rule, reads the wall clock
(``time.time()`` and friends) instead of the simulated Clock, or
constructs a worker pool at module scope instead of context-managing it
inside a function — or if a metric's registered label names differ from
the ones its row in ``docs/telemetry.md`` lists.
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


def test_lint_catches_a_process_time_read(tmp_path):
    # A registry's timer is process CPU time: only the profiler reads it.
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nstart = time.process_time()\n")
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


def test_docs_list_every_metric_with_its_label_names():
    problems = check_telemetry_names.check_label_docs()
    assert problems == [], "\n".join(problems)


_DOC_HEADER = "| Metric | Type | Labels | Meaning |\n|---|---|---|---|\n"


def _label_docs_problems(tmp_path, source, rows):
    src = tmp_path / "src"
    src.mkdir()
    (src / "service.py").write_text(source)
    doc = tmp_path / "telemetry.md"
    doc.write_text(_DOC_HEADER + rows)
    return check_telemetry_names.check_label_docs(src, doc)


def test_lint_catches_a_row_that_still_lists_a_dropped_label(tmp_path):
    problems = _label_docs_problems(
        tmp_path,
        "registry.counter('repro_api_cache_total', help='lookups',\n"
        "                 labelnames=('result',))\n",
        "| `repro_api_cache_total` | counter | `shard`, `result` = `hit` "
        "\\| `miss` | response-cache lookups |\n",
    )
    assert len(problems) == 1
    assert "['result']" in problems[0] and "'shard'" in problems[0]


def test_lint_catches_undocumented_and_conflicting_registrations(tmp_path):
    problems = _label_docs_problems(
        tmp_path,
        "registry.gauge('repro_api_serial')\n"
        "registry.counter('repro_x_total', labelnames=('kind',))\n"
        "registry.counter('repro_x_total', labelnames=('kind', 'why'))\n"
        "registry.counter('repro_y_total', labelnames=NAMES)\n",
        "| `repro_x_total` | counter | `kind` = `a` \\| `b` | things |\n"
        "| `repro_y_total` | counter | — | things |\n",
    )
    assert len(problems) == 4
    assert "repro_api_serial: no row" in problems[0]
    assert "elsewhere with ('kind',)" in problems[1]
    assert "lists ['kind']" in problems[2]
    assert "literal tuple" in problems[3]


def test_lint_accepts_matching_rows_and_trace_labels(tmp_path):
    assert _label_docs_problems(
        tmp_path,
        "registry.counter('repro_x_total', labelnames=('kind', 'status'))\n"
        "registry.gauge('repro_depth')\n"
        "with registry.trace('repro_phase_seconds', clock, stage='a'):\n"
        "    pass\n",
        "| `repro_x_total` | counter | `kind` = `a` \\| `b`, `status` | x |\n"
        "| `repro_depth` | gauge | — | depth |\n"
        "| `repro_phase_seconds` | histogram | `stage` | time |\n",
    ) == []
