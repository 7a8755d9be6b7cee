"""Tier-1 drift check: docs/API.md matches the live module tree.

``tools/gen_api_docs.py`` generates the API reference from docstrings
and ``__all__`` lists; this test regenerates it in memory and compares
against the committed file.  When it fails, run::

    PYTHONPATH=src python tools/gen_api_docs.py

and commit the result.
"""

import pathlib
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import gen_api_docs  # noqa: E402


def test_api_md_is_up_to_date():
    committed = gen_api_docs.DOC_PATH.read_text(encoding="utf-8")
    generated = gen_api_docs.build()
    assert committed == generated, (
        "docs/API.md is stale — regenerate with "
        "`PYTHONPATH=src python tools/gen_api_docs.py`"
    )


def test_build_covers_facade_and_every_package():
    text = gen_api_docs.build()
    assert "## The facade: `repro`" in text
    for package in ("bgp", "cli", "core", "crypto", "jurisdiction",
                    "modelgen", "monitor", "repository", "resources",
                    "rp", "rpki", "rtr", "simtime", "telemetry"):
        assert f"### `repro.{package}`" in text, package
    # Spot-check the resilience additions made it into the reference.
    assert "`repro.repository.resilience`" in text
    assert "`repro.monitor.stall`" in text
    assert "CircuitBreaker" in text and "StallDetector" in text
