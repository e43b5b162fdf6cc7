"""Render a sampler timeline as text sparklines or a single-file HTML page.

Input is the JSON-able document of :meth:`TimeSeriesSampler.dump
<repro.obs.perf.sampler.TimeSeriesSampler.dump>` (either standalone or
embedded as ``extra.timeline`` of an ``Observability.save`` dump).  The
HTML output is fully self-contained — inline CSS and inline SVG polylines,
no scripts, no external assets — so a CI artifact renders anywhere.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Tuple

#: sparkline glyphs, lowest to highest
_SPARKS = " .:-=+*#%@"

#: SVG stroke palette, cycled across series
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
            "#8c564b", "#17becf", "#7f7f7f")

Series = Dict[str, List[Tuple[float, float]]]


def extract_series(timeline: Dict[str, Any]) -> Dict[str, Series]:
    """Per-group named series: ``{group: {name: [(tick, value), ...]}}``.

    Groups are ``colours`` (per-colour counter deltas and latency
    quantiles), ``gauges`` (probed values) and ``process`` (host GC /
    allocation pressure, when sampled).
    """
    groups: Dict[str, Series] = {}

    def put(group: str, name: str, tick: float, value: Any) -> None:
        try:
            number = float(value)
        except (TypeError, ValueError):
            return
        groups.setdefault(group, {}).setdefault(name, []).append(
            (tick, number))

    for point in timeline.get("points", []):
        if not isinstance(point, dict):
            continue
        tick = float(point.get("tick", 0.0))
        for colour, row in (point.get("colours") or {}).items():
            for key, value in row.items():
                put("colours", f"{colour}/{key}", tick, value)
        for section in ("gauges", "process"):
            for key, value in (point.get(section) or {}).items():
                put(section, key, tick, value)
    return groups


def _spark(values: List[float], width: int) -> str:
    if not values:
        return ""
    # squeeze (or stretch) onto `width` buckets, max per bucket
    buckets: List[float] = []
    for index in range(min(width, len(values))):
        lo = index * len(values) // min(width, len(values))
        hi = max(lo + 1, (index + 1) * len(values) // min(width, len(values)))
        buckets.append(max(values[lo:hi]))
    low, high = min(buckets), max(buckets)
    span = (high - low) or 1.0
    top = len(_SPARKS) - 1
    return "".join(_SPARKS[round((v - low) / span * top)] for v in buckets)


def timeline_text(timeline: Dict[str, Any], width: int = 60) -> str:
    """The whole timeline as aligned sparkline rows, one per series."""
    groups = extract_series(timeline)
    points = timeline.get("points", [])
    lines = [f"timeline: {len(points)} point(s), "
             f"interval {timeline.get('interval', '?')} x stride "
             f"{timeline.get('stride', 1)}"]
    if not groups:
        lines.append("  (no series - empty timeline)")
        return "\n".join(lines)
    label_width = max(len(name) for series in groups.values()
                      for name in series)
    for group in sorted(groups):
        lines.append(f"{group}:")
        for name, pairs in sorted(groups[group].items()):
            values = [value for _tick, value in pairs]
            lines.append(
                f"  {name:<{label_width}} |{_spark(values, width)}| "
                f"min {min(values):g} max {max(values):g} "
                f"last {values[-1]:g}")
    return "\n".join(lines)


def _polyline(pairs: List[Tuple[float, float]], t_lo: float, t_hi: float,
              v_lo: float, v_hi: float, w: int, h: int) -> str:
    t_span = (t_hi - t_lo) or 1.0
    v_span = (v_hi - v_lo) or 1.0
    coords = []
    for tick, value in pairs:
        x = (tick - t_lo) / t_span * (w - 2) + 1
        y = h - 1 - (value - v_lo) / v_span * (h - 2)
        coords.append(f"{x:.1f},{y:.1f}")
    return " ".join(coords)


def timeline_html(timeline: Dict[str, Any],
                  title: str = "repro timeline") -> str:
    """A self-contained HTML document: one inline SVG chart per group."""
    groups = extract_series(timeline)
    width, height = 720, 180
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\">",
        f"<title>{html.escape(title)}</title>",
        "<style>",
        "body{font:13px/1.4 monospace;margin:1.5em;background:#fdfdfd;"
        "color:#222}",
        "h1{font-size:16px} h2{font-size:14px;margin:1.2em 0 .3em}",
        "svg{background:#fff;border:1px solid #ccc}",
        ".legend span{display:inline-block;margin-right:1em}",
        ".swatch{display:inline-block;width:10px;height:10px;"
        "margin-right:4px}",
        ".meta{color:#777}",
        "</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f"<p class=\"meta\">{len(timeline.get('points', []))} point(s), "
        f"interval {html.escape(str(timeline.get('interval', '?')))} "
        f"&times; stride {html.escape(str(timeline.get('stride', 1)))}, "
        f"{html.escape(str(timeline.get('decimations', 0)))} "
        f"decimation(s)</p>",
    ]
    if not groups:
        parts.append("<p>(empty timeline)</p>")
    for group in sorted(groups):
        series = groups[group]
        ticks = [tick for pairs in series.values() for tick, _v in pairs]
        values = [value for pairs in series.values() for _t, value in pairs]
        t_lo, t_hi = min(ticks), max(ticks)
        v_lo, v_hi = min(values + [0.0]), max(values)
        parts.append(f"<h2>{html.escape(group)}</h2>")
        parts.append(f"<svg viewBox=\"0 0 {width} {height}\" "
                     f"width=\"{width}\" height=\"{height}\">")
        for index, (name, pairs) in enumerate(sorted(series.items())):
            stroke = _PALETTE[index % len(_PALETTE)]
            parts.append(
                f"<polyline fill=\"none\" stroke=\"{stroke}\" "
                f"stroke-width=\"1.5\" points=\""
                + _polyline(pairs, t_lo, t_hi, v_lo, v_hi, width, height)
                + f"\"><title>{html.escape(name)}</title></polyline>")
        parts.append("</svg>")
        legend = []
        for index, name in enumerate(sorted(series)):
            stroke = _PALETTE[index % len(_PALETTE)]
            legend.append(
                f"<span><span class=\"swatch\" "
                f"style=\"background:{stroke}\"></span>"
                f"{html.escape(name)}</span>")
        parts.append("<div class=\"legend\">" + "".join(legend) + "</div>")
        parts.append(f"<p class=\"meta\">ticks [{t_lo:g}, {t_hi:g}], "
                     f"values [{v_lo:g}, {v_hi:g}]</p>")
    parts.append("</body></html>")
    return "\n".join(parts)
