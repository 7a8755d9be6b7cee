#!/usr/bin/env python3
"""Profile one relying-party refresh and archive the hotspot table.

The measurement lives in :mod:`repro.profiling`; this harness is the
archival front end: it runs :func:`repro.profiling.profile_refresh`,
prints the ranked text table, and (with ``--output``) writes the same
report as JSON next to the benchmark artifacts::

    PYTHONPATH=src python tools/profile_refresh.py \\
        --scale internet-small --top 20 \\
        --output benchmarks/artifacts/PROFILE_refresh.json

The JSON artifact is an investigation record, not a regression gate —
wall-clock seconds vary run to run; the pinned gates live in
``benchmarks/test_bench_scale.py``.  ``python -m repro profile`` prints
the same table without writing anything.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile a full refresh, rank the hotspots.",
    )
    parser.add_argument(
        "--scale", default="internet-small",
        help="deployment scale: internet-small/internet/internet-large "
             "or small/medium/large (default: internet-small)",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scale's pinned seed")
    parser.add_argument("--top", type=int, default=20,
                        help="hotspot rows to keep (default 20)")
    parser.add_argument(
        "--output", type=pathlib.Path, default=None, metavar="FILE",
        help="also write the report as JSON to FILE",
    )
    args = parser.parse_args(argv)

    from repro.profiling import profile_refresh

    report = profile_refresh(
        args.scale,
        seed=args.seed,
        top=args.top,
    )
    print(report.render())
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(
            json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8",
        )
        print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
