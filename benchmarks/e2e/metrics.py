"""Metric definitions: names, units, bounds, and formulas.

Two levels, because the driver's contract reads *every* end-to-end
metric of ``BENCHMARK.json`` from *every* workload's run:

* the gated metrics (:func:`contract_metrics`) exist on all four
  workloads: set-up time, the workload's headline operation
  (``op_ms``), its contrasting second operation (``alt_ms``) and peak
  memory.  ``OPERATIONS`` says which timed series plays which role on
  which workload.
* ``NAMED`` holds the end-to-end metrics under the names later issues
  refer to.  Each belongs to one workload; all are printed and stored
  by every run of that workload, checked against their bound by
  ``--check-repeat``, and recorded by the driver among the per-layer
  metrics of a ``--trace 1`` run (measured in its untraced pass).

Every timing is a median of process-CPU seconds at the nominal machine
speed unless its name says otherwise; see ``harness`` for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from harness import Recorder
from workloads import QUERY_BLOCK

# workload -> (headline series, contrasting series)
OPERATIONS = {
    "cold-bootstrap": ("cold_refresh", "warm_rerefresh"),
    "roa-churn": ("publish_to_router", "publish_to_answer"),
    "fleet-sync": ("fleet_full_sync", "bulk_delta_sync"),
    "query-mix": ("query_wide_block", "query_hot_block"),
}


@dataclass(frozen=True)
class Named:
    name: str
    unit: str
    bound: float          # share by which two same-seed runs may differ
    workload: str
    series: str           # the sample series it is computed from
    value: Callable[[Recorder], float]


def _median(name: str, unit: str, bound: float, workload: str, series: str):
    return Named(name, unit, bound, workload, series,
                 lambda rec: rec[series].median())


def _qps(name: str, series: str):
    return Named(name, "1/s", 0.25, "query-mix", series,
                 lambda rec: QUERY_BLOCK / rec[series].median())


# Bounds: what --check-repeat holds two same-seed runs to.
NAMED = [
    _median("cold_refresh_s", "s", 0.2, "cold-bootstrap", "cold_refresh"),
    _median("warm_rerefresh_s", "s", 0.2, "cold-bootstrap", "warm_rerefresh"),
    _median("publish_to_router_p50_s", "s", 0.2, "roa-churn",
            "publish_to_router"),
    Named("publish_to_router_p80_s", "s", 0.25, "roa-churn",
          "publish_to_router",
          lambda rec: rec["publish_to_router"].percentile(80)),
    _median("publish_to_answer_s", "s", 0.2, "roa-churn", "publish_to_answer"),
    _median("idle_refresh_s", "s", 0.2, "roa-churn", "idle_refresh"),
    _median("fleet_full_sync_s", "s", 0.2, "fleet-sync", "fleet_full_sync"),
    _median("bulk_delta_sync_s", "s", 0.2, "fleet-sync", "bulk_delta_sync"),
    _qps("query_hot_qps", "query_hot_block"),
    _qps("query_wide_qps", "query_wide_block"),
    _qps("query_post_epoch_qps", "query_post_epoch_block"),
    Named("query_wide_p99_us", "us", 0.25, "query-mix", "query_wide_latency",
          lambda rec: rec["query_wide_latency"].percentile(99) * 1e6),
]


def named_metrics(workload: str, rec: Recorder) -> dict[str, dict]:
    """This workload's named end-to-end metrics from one untraced pass."""
    out = {
        metric.name: {"value": metric.value(rec), "unit": metric.unit,
                      "n": len(rec[metric.series])}
        for metric in NAMED if metric.workload == workload
    }
    out["failed_ops_ratio"] = {
        "value": rec.failed / rec.attempted if rec.attempted else 1.0,
        "unit": "ratio", "n": rec.attempted,
    }
    return out


def contract_metrics(workload: str, rec: Recorder, setup_s: float,
                     rss_mb: float) -> dict[str, dict]:
    op, alt = OPERATIONS[workload]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms": {"value": rec[op].median() * 1e3, "unit": "ms"},
        "alt_ms": {"value": rec[alt].median() * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
