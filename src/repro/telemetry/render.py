"""Renderers: a registry as exposition text or as JSON.

The text form follows the Prometheus exposition format closely enough to
be instantly readable (``# TYPE`` headers, ``name{label="value"} value``
lines, cumulative ``_bucket``/``_sum``/``_count`` for histograms); the
JSON form is a lossless dict that :func:`registry_from_dict` can load
back into a live registry — the round-trip the telemetry tests assert.

Both renderers sort metrics by name and children by label values, and
nothing here consults the wall clock, so identical runs render
identically — the property the CLI's ``--emit-metrics`` relies on.
"""

from __future__ import annotations

import json

from .tracing import TraceNode

__all__ = ["render_text", "render_json", "registry_to_dict", "registry_from_dict"]


def _format_value(value: float) -> str:
    """Integers without a trailing .0; everything else as repr-ish float."""
    if float(value) == int(value):
        return str(int(value))
    return f"{value:g}"


def _label_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _merged_labels(labels: dict[str, str], extra: dict[str, str]) -> str:
    merged = dict(labels)
    merged.update(extra)
    return _label_text(merged)


def render_text(registry) -> str:
    """The whole registry in Prometheus-style exposition text."""
    lines: list[str] = []
    for name in registry.names():
        metric = registry.get(name)
        if metric.help:
            lines.append(f"# HELP {name} {metric.help}")
        lines.append(f"# TYPE {name} {metric.TYPE}")
        for labels, child in metric.samples():
            if metric.TYPE == "histogram":
                for upper, count in zip(metric.buckets, child.bucket_counts):
                    lines.append(
                        f"{name}_bucket"
                        f"{_merged_labels(labels, {'le': _format_value(upper)})}"
                        f" {count}"
                    )
                lines.append(
                    f"{name}_bucket{_merged_labels(labels, {'le': '+Inf'})}"
                    f" {child.count}"
                )
                lines.append(f"{name}_sum{_label_text(labels)} "
                             f"{_format_value(child.sum)}")
                lines.append(f"{name}_count{_label_text(labels)} {child.count}")
            else:
                lines.append(
                    f"{name}{_label_text(labels)} {_format_value(child.value)}"
                )
    if registry.traces:
        lines.append("# TRACES (simulated seconds, a node per line)")
        for root in registry.traces:
            _tree_lines(root, 0, lines)
    return "\n".join(lines) + "\n" if lines else ""


def _tree_lines(node: TraceNode, depth: int, lines: list[str]) -> None:
    lines.append(f"# trace {'  ' * depth}{node}")
    for child in node.children:
        _tree_lines(child, depth + 1, lines)


def registry_to_dict(registry) -> dict:
    """Lossless plain-data form of every metric and trace."""
    metrics = []
    for name in registry.names():
        metric = registry.get(name)
        entry: dict = {
            "name": name,
            "type": metric.TYPE,
            "help": metric.help,
            "labelnames": list(metric.labelnames),
            "samples": [],
        }
        if metric.TYPE == "histogram":
            entry["buckets"] = list(metric.buckets)
        for labels, child in metric.samples():
            if metric.TYPE == "histogram":
                entry["samples"].append({
                    "labels": labels,
                    "bucket_counts": list(child.bucket_counts),
                    "sum": child.sum,
                    "count": child.count,
                })
            else:
                entry["samples"].append({"labels": labels, "value": child.value})
        metrics.append(entry)
    return {
        "metrics": metrics,
        "traces": [root.to_dict() for root in registry.traces],
    }


def registry_from_dict(registry, data: dict):
    """Load a :func:`registry_to_dict` payload into *registry*."""
    for entry in data.get("metrics", []):
        name = entry["name"]
        labelnames = tuple(entry.get("labelnames", ()))
        kind = entry["type"]
        if kind == "counter":
            metric = registry.counter(name, help=entry.get("help", ""),
                                      labelnames=labelnames)
            for sample in entry["samples"]:
                metric.inc(sample["value"], **sample["labels"])
        elif kind == "gauge":
            metric = registry.gauge(name, help=entry.get("help", ""),
                                    labelnames=labelnames)
            for sample in entry["samples"]:
                metric.set(sample["value"], **sample["labels"])
        elif kind == "histogram":
            metric = registry.histogram(
                name, tuple(entry["buckets"]), help=entry.get("help", ""),
                labelnames=labelnames,
            )
            for sample in entry["samples"]:
                metric.sample(**sample["labels"]).load(
                    sample["bucket_counts"], sample["sum"], sample["count"])
        else:
            raise ValueError(f"unknown metric type {kind!r} for {name!r}")
    for tree in data.get("traces", []):
        root = TraceNode.from_dict(tree)
        registry.traces.append(root)
        registry._sizes.append(sum(1 for _ in root.walk()))
        registry._nodes += registry._sizes[-1]
    return registry


def render_json(registry, *, indent: int | None = None) -> str:
    return json.dumps(registry_to_dict(registry), indent=indent, sort_keys=True)
