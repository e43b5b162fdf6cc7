"""The ``repro-obs/1`` dump document: its one writer and its one reader.

Everything that judges a run — every ``python -m repro.obs <command>``
console, the CI gates, a replay after a failed test — reads one artefact,
and this is the only module that knows its shape:

``format``
    the tag below.
``spans``
    ``Span.to_dict()`` records of the run's tracer.
``metrics``
    a ``MetricsRegistry.dump()``: ``counters`` / ``gauges`` /
    ``histograms`` row lists.
``events``
    the retained bus events, ``{seq, tick, kind, labels}`` each.  These
    and ``spans`` are the history layer's; a hub without it writes neither.
``extra``
    one section per other attached layer (``flight_recorder``, ``timeline``,
    ``postmortem``, ``introspection``, ``slo``; soak segments add
    ``segment``).

A soak run rotates its state into a *segment directory*: numbered
``segment-NNNN.trace.json`` documents whose metrics are **deltas** over the
segment window, so summing all segments telescopes back to the totals of
an unrotated run.  :func:`load` takes files and segment directories alike.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.bus import ObsEvent

FORMAT = "repro-obs/1"

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".trace.json"

#: the type each section must have when present, and how to say so
_SECTIONS = {"spans": (list, "a list"), "events": (list, "a list"),
             "metrics": (dict, "an object"), "extra": (dict, "an object")}


class DumpError(Exception):
    """Unusable dump input; ``str(error)`` is the one-line message."""


# -- writing ------------------------------------------------------------------

def document(spans: Optional[List[Dict[str, Any]]] = None,
             metrics: Optional[Dict[str, Any]] = None,
             events: Optional[List[Dict[str, Any]]] = None,
             extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """A dump document holding the given sections (absent ones omitted)."""
    doc: Dict[str, Any] = {"format": FORMAT}
    for key, value in (("spans", spans), ("metrics", metrics),
                       ("events", events)):
        if value is not None:
            doc[key] = value
    if extra:
        doc["extra"] = extra
    return doc


def write(path: str, doc: Dict[str, Any]) -> Dict[str, Any]:
    """Persist ``doc`` at ``path`` as JSON; returns it."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
    return doc


def segment_name(index: int) -> str:
    """``segment-0007.trace.json`` — zero-padded so sorted() = segment order."""
    return f"{_SEGMENT_PREFIX}{index:04d}{_SEGMENT_SUFFIX}"


def segment_paths(directory: str) -> List[str]:
    """Every segment in ``directory``, in segment (= rotation) order."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return [os.path.join(directory, name)
            for name in sorted(names)
            if name.startswith(_SEGMENT_PREFIX)
            and name.endswith(_SEGMENT_SUFFIX)]


# -- reading ------------------------------------------------------------------

def load(paths: List[str]) -> List[Dict[str, Any]]:
    """The validated documents behind ``paths``, in order.

    A directory stands for every segment inside it; a bare metrics dump
    (``benchmarks/bench_util.emit_metrics_dump``) becomes ``{"metrics":
    ...}``.  Raises :class:`DumpError` for a missing or malformed file, a
    directory without segments, a top level that is not an object, or a
    section of the wrong type.
    """
    documents: List[Dict[str, Any]] = []
    for path in paths:
        if os.path.isdir(path):
            segments = segment_paths(path)
            if not segments:
                raise DumpError(f"{path} is a directory without "
                                f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX} files")
            documents.extend(_load_file(segment) for segment in segments)
        else:
            documents.append(_load_file(path))
    return documents


def _load_file(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as error:
        raise DumpError(f"cannot read {path}: {error}") from error
    if not isinstance(raw, dict):
        raise DumpError(f"{path}: expected a JSON object "
                        f"(got {type(raw).__name__})")
    if "metrics" not in raw and "spans" not in raw and any(
            key in raw for key in ("counters", "gauges", "histograms")):
        raw = {"metrics": raw}
    for key, (kind, kind_name) in _SECTIONS.items():
        if key in raw and not isinstance(raw[key], kind):
            raise DumpError(f"{path}: \"{key}\" must be {kind_name} "
                            f"(got {type(raw[key]).__name__})")
    return raw


def sections(documents: List[Dict[str, Any]], name: str
             ) -> List[Dict[str, Any]]:
    """Every ``extra[name]`` object across ``documents``, in order."""
    found = (doc.get("extra", {}).get(name) for doc in documents)
    return [section for section in found if isinstance(section, dict)]


def events(doc: Dict[str, Any]) -> Iterator[ObsEvent]:
    """The retained bus events of ``doc``, rebuilt as :class:`ObsEvent`.

    Raises :class:`DumpError` when the document has no ``events`` list.
    """
    if "events" not in doc:
        raise DumpError("no \"events\" list in the dump — was it written "
                        "by Observability.save() with the history layer "
                        "bound?")
    for index, entry in enumerate(doc["events"], start=1):
        if not isinstance(entry, dict):
            continue
        labels = entry.get("labels")
        seq = entry.get("seq")
        yield ObsEvent(
            tick=float(entry.get("tick", 0.0)),
            kind=str(entry.get("kind", "")),
            labels=dict(labels) if isinstance(labels, dict) else {},
            seq=seq if isinstance(seq, int) else index,
        )


def aggregate_documents(documents: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge the metrics of several dump documents into one.

    Counters and gauges with the same name and labels are summed (across
    runs, both are totals); histograms are merged exactly on count / sum /
    min / max with the mean recomputed — percentiles are dropped because
    they cannot be derived from summaries.  Returns a ``{"metrics": ...}``
    document.
    """
    def key_of(row: Dict[str, Any]):
        return (row["name"], tuple(sorted(row.get("labels", {}).items())))

    sums: Dict[str, Dict[Any, Dict[str, Any]]] = {"counters": {}, "gauges": {}}
    merged_hists: Dict[Any, Dict[str, Any]] = {}
    for doc in documents:
        metrics = doc.get("metrics", doc)
        for section in ("counters", "gauges"):
            for row in metrics.get(section, []):
                slot = sums[section].setdefault(key_of(row), {
                    "name": row["name"],
                    "labels": dict(row.get("labels", {})), "value": 0.0,
                })
                slot["value"] += row.get("value", 0.0)
        for row in metrics.get("histograms", []):
            slot = merged_hists.get(key_of(row))
            if slot is None:
                merged_hists[key_of(row)] = {
                    "name": row["name"],
                    "labels": dict(row.get("labels", {})),
                    "count": row.get("count", 0),
                    "sum": row.get("sum", 0.0),
                    "min": row.get("min"),
                    "max": row.get("max"),
                    "merged_from": 1,
                }
                continue
            slot["count"] += row.get("count", 0)
            slot["sum"] += row.get("sum", 0.0)
            for bound, pick in (("min", min), ("max", max)):
                value = row.get(bound)
                if value is not None:
                    slot[bound] = (value if slot[bound] is None
                                   else pick(slot[bound], value))
            slot["merged_from"] += 1
    histograms = []
    for _key, slot in sorted(merged_hists.items()):
        slot["mean"] = (slot["sum"] / slot["count"]) if slot["count"] else None
        histograms.append(slot)
    return {"metrics": {
        "counters": [sums["counters"][k] for k in sorted(sums["counters"])],
        "gauges": [sums["gauges"][k] for k in sorted(sums["gauges"])],
        "histograms": histograms,
    }}
