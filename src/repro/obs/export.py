"""Exporters: Chrome trace-event JSON, plain-text reports, ASCII timelines.

``chrome_trace`` emits the Trace Event Format understood by
``chrome://tracing`` and Perfetto: one complete ("X") event per finished
span, grouped into one "process" per simulated node, with span/parent ids
in ``args`` so the tree survives the round-trip.  Persisting a whole
observation is :mod:`repro.obs.dump`'s job.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Tracer

#: simulated time is unit-less; one tick maps to 1 ms in exported traces so
#: Perfetto's axis shows readable numbers (ts/dur are microseconds).
TICKS_TO_MICROS = 1000.0


def _span_dicts(spans: Union[Tracer, Iterable[Any]]) -> List[Dict[str, Any]]:
    if isinstance(spans, Tracer):
        spans = spans.snapshot()
    out: List[Dict[str, Any]] = []
    for span in spans:
        out.append(span.to_dict() if isinstance(span, Span) else dict(span))
    return out


def chrome_trace(spans: Union[Tracer, Iterable[Any]],
                 tick_scale: float = TICKS_TO_MICROS) -> Dict[str, Any]:
    """Chrome trace-event JSON for the finished spans of ``spans``."""
    records = [s for s in _span_dicts(spans) if s["end"] is not None]
    pids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    for record in records:
        node = record["node"] or "repro"
        pid = pids.setdefault(node, len(pids) + 1)
        events.append({
            "name": record["name"],
            "cat": record["kind"],
            "ph": "X",
            "ts": record["start"] * tick_scale,
            "dur": (record["end"] - record["start"]) * tick_scale,
            "pid": pid,
            "tid": 1,
            "args": {
                "trace_id": record["trace_id"],
                "span_id": record["span_id"],
                "parent_id": record["parent_id"],
                **record["attrs"],
            },
        })
        for event in record["events"]:
            events.append({
                "name": event["name"],
                "cat": record["kind"],
                "ph": "i",
                "s": "t",
                "ts": event["tick"] * tick_scale,
                "pid": pid,
                "tid": 1,
                "args": dict(event["attrs"]),
            })
    metadata = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
         "args": {"name": node}}
        for node, pid in sorted(pids.items(), key=lambda kv: kv[1])
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def span_tree(spans: Union[Tracer, Iterable[Any]],
              trace_id: Optional[str] = None) -> str:
    """ASCII rendering of span parent/child trees, one line per span."""
    records = _span_dicts(spans)
    if trace_id is not None:
        records = [r for r in records if r["trace_id"] == trace_id]
    if not records:
        return "(no spans)"
    by_parent: Dict[Optional[str], List[Dict[str, Any]]] = {}
    known = {r["span_id"] for r in records}
    for record in records:
        parent = record["parent_id"] if record["parent_id"] in known else None
        by_parent.setdefault(parent, []).append(record)
    for children in by_parent.values():
        children.sort(key=lambda r: (r["start"], r["span_id"]))
    lines: List[str] = []

    def walk(record: Dict[str, Any], depth: int) -> None:
        end = record["end"]
        duration = "open" if end is None else f"{end - record['start']:g}"
        node = f" @{record['node']}" if record["node"] else ""
        lines.append(f"{'  ' * depth}{record['name']}{node} "
                     f"[{record['kind']}] t={record['start']:g} dur={duration}")
        for child in by_parent.get(record["span_id"], []):
            walk(child, depth + 1)

    for root in by_parent.get(None, []):
        walk(root, 0)
    return "\n".join(lines)


def _timeline(records: List[Dict[str, Any]], width: int,
              label_of: Callable[[Dict[str, Any]], str],
              suffix_of: Callable[[Dict[str, Any]], str] = lambda r: ""
              ) -> str:
    """Finished span records as bars on one axis, indented by nesting."""
    if not records:
        return "(empty trace)"
    first = min(r["start"] for r in records)
    last = max(r["end"] for r in records)
    scale = max(last - first, 1e-9) / max(1, width - 1)
    depths: Dict[str, int] = {}
    by_id = {r["span_id"]: r for r in records}

    def depth_of(record: Dict[str, Any]) -> int:
        cached = depths.get(record["span_id"])
        if cached is not None:
            return cached
        parent = by_id.get(record["parent_id"])
        depth = 0 if parent is None else depth_of(parent) + 1
        depths[record["span_id"]] = depth
        return depth

    rows = [("  " * depth_of(record) + label_of(record), record)
            for record in sorted(records,
                                 key=lambda r: (r["start"], r["span_id"]))]
    label_width = max(len(label) for label, _ in rows)
    lines = []
    for label, record in rows:
        start_col = int((record["start"] - first) / scale)
        end_col = max(int((record["end"] - first) / scale), start_col + 1)
        bar = " " * start_col + "├" + "─" * max(0, end_col - start_col - 1) + "┤"
        lines.append(f"{label:<{label_width}}  {bar}{suffix_of(record)}")
    lines.append(" " * (label_width + 2) + f"{first:g}"
                 + "." * int((last - first) / scale) + f" t={last:g}")
    return "\n".join(lines)


def span_timeline(spans: Union[Tracer, Iterable[Any]], width: int = 60,
                  trace_id: Optional[str] = None) -> str:
    """ASCII timeline of every finished span, labelled ``name @node``."""
    records = [r for r in _span_dicts(spans) if r["end"] is not None]
    if trace_id is not None:
        records = [r for r in records if r["trace_id"] == trace_id]
    return _timeline(
        records, width,
        lambda r: r["name"] + (f" @{r['node']}" if r["node"] else ""))


def _action_name(record: Dict[str, Any]) -> str:
    return record["name"].removeprefix("action:")


def action_timeline(spans: Union[Tracer, Iterable[Any]], title: str = "",
                    width: int = 60, show_locks: bool = False) -> str:
    """The executed action structure drawn like the paper's figures.

    :func:`span_timeline` restricted to the finished ``kind == "action"``
    spans :meth:`~repro.obs.hub.Observability.action_begun` opens: nesting
    by indentation, colours in brackets, outcome (and, with
    ``show_locks``, the number of lock grants) after the bar.
    """
    def label_of(record: Dict[str, Any]) -> str:
        colours = record["attrs"].get("colours")
        name = _action_name(record)
        return f"{name} [{colours}]" if colours else name

    def suffix_of(record: Dict[str, Any]) -> str:
        suffix = f" {record['attrs'].get('outcome', 'active')}"
        locks = sum(1 for event in record["events"]
                    if event["name"] == "lock.granted")
        return suffix + (f" ({locks} locks)" if show_locks and locks else "")

    art = _timeline([r for r in _span_dicts(spans)
                     if r["kind"] == "action" and r["end"] is not None],
                    width, label_of, suffix_of)
    return f"{title}\n{art}" if title else art


def survival_report(spans: Union[Tracer, Iterable[Any]]) -> Dict[str, str]:
    """Action name -> outcome, for assertions over executed scenarios."""
    return {_action_name(r): r["attrs"].get("outcome", "active")
            for r in _span_dicts(spans) if r["kind"] == "action"}


def text_report(dump: Union[MetricsRegistry, Dict[str, Any]]) -> str:
    """Aligned plain-text rendering of a metrics dump."""
    if isinstance(dump, MetricsRegistry):
        dump = dump.dump()
    lines: List[str] = []

    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:g}"
        return str(value)

    for section in ("counters", "gauges", "histograms"):
        rows = dump.get(section, [])
        if not rows:
            continue
        lines.append(f"== {section} ==")
        for row in rows:
            labels = ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
            head = f"{row['name']}{{{labels}}}" if labels else row["name"]
            if section == "histograms":
                body = "  ".join(
                    f"{key}={fmt(row[key])}"
                    for key in ("count", "sum", "min", "max", "mean", "p50", "p95")
                    if row.get(key) is not None
                )
            else:
                body = fmt(row["value"])
            lines.append(f"  {head:<56} {body}")
        lines.append("")
    return "\n".join(lines).rstrip() or "(no metrics)"
