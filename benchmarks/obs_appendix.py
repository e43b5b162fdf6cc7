"""Render the EXPERIMENTS.md "Observability appendix" from metrics dumps.

Workflow::

    REPRO_OBS_DUMP=obs-dumps pytest benchmarks/test_ablation_2pc.py \
        --benchmark-only -s
    python benchmarks/obs_appendix.py obs-dumps

Each benchmark that calls :func:`bench_util.emit_metrics_dump` drops a
``<name>.metrics.json`` into the dump directory; this script turns those
into the appendix's markdown tables — per-colour commit/abort outcomes
and coordinator-observed 2PC latency — ready to paste into
EXPERIMENTS.md.  Exit codes: 0 = appendix printed, 1 = no usable dumps.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

#: colours per dump shown individually; the rest fold into one "(+N more)"
#: row so a wide sweep cannot flood the appendix
MAX_COLOURS = 8


def load_dumps(directory: str) -> Dict[str, Dict[str, Any]]:
    """name -> parsed dump, for every readable ``*.metrics.json``."""
    dumps: Dict[str, Dict[str, Any]] = {}
    try:
        entries = sorted(os.listdir(directory))
    except OSError as error:
        print(f"error: cannot list {directory}: {error}", file=sys.stderr)
        return dumps
    for entry in entries:
        if not entry.endswith(".metrics.json"):
            continue
        path = os.path.join(directory, entry)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"warning: skipping {path}: {error}", file=sys.stderr)
            continue
        if isinstance(raw, dict):
            dumps[entry[:-len(".metrics.json")]] = raw
    return dumps


def markdown_table(headers: Sequence[str],
                   rows: Sequence[Sequence[Any]]) -> str:
    lines = ["| " + " | ".join(str(h) for h in headers) + " |",
             "|" + "---|" * len(headers)]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _counter_by_colour(dump: Dict[str, Any], name: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for row in dump.get("counters", []):
        if row.get("name") != name:
            continue
        colour = row.get("labels", {}).get("colour", "")
        out[colour] = out.get(colour, 0) + row.get("value", 0)
    return out


def colour_outcome_rows(dump: Dict[str, Any]) -> List[List[Any]]:
    """Per-colour committed/aborted/permanent counts, busiest first."""
    committed = _counter_by_colour(dump, "actions_committed_total")
    aborted = _counter_by_colour(dump, "actions_aborted_total")
    permanent = _counter_by_colour(dump, "colour_permanent_total")
    colours = sorted(set(committed) | set(aborted) | set(permanent),
                     key=lambda c: (-(committed.get(c, 0)
                                      + aborted.get(c, 0)), c))
    rows = [
        [colour or "(uncoloured)", int(committed.get(colour, 0)),
         int(aborted.get(colour, 0)), int(permanent.get(colour, 0))]
        for colour in colours[:MAX_COLOURS]
    ]
    hidden = colours[MAX_COLOURS:]
    if hidden:
        rows.append([
            f"(+{len(hidden)} more)",
            int(sum(committed.get(c, 0) for c in hidden)),
            int(sum(aborted.get(c, 0) for c in hidden)),
            int(sum(permanent.get(c, 0) for c in hidden)),
        ])
    return rows


def _fmt(value: Optional[float]) -> str:
    return f"{value:.2f}" if isinstance(value, (int, float)) else "-"


def twopc_rows(dump: Dict[str, Any]) -> List[List[Any]]:
    """Coordinator-observed 2PC latency histograms, one row per metric."""
    rows: List[List[Any]] = []
    for row in dump.get("histograms", []):
        if row.get("name") not in ("twopc_prepare_time",
                                   "commit_fanout_time"):
            continue
        labels = row.get("labels", {})
        label = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        rows.append([row["name"], label or "-", row.get("count", 0),
                     _fmt(row.get("mean")), _fmt(row.get("p95")),
                     _fmt(row.get("max"))])
    return rows


def render(directory: str, names: Optional[Sequence[str]] = None) -> str:
    dumps = load_dumps(directory)
    if names:
        dumps = {name: dump for name, dump in dumps.items()
                 if any(name.startswith(prefix) for prefix in names)}
    if not dumps:
        return ""
    sections: List[str] = []
    for name, dump in sorted(dumps.items()):
        parts = [f"### `{name}`"]
        outcomes = colour_outcome_rows(dump)
        if outcomes:
            parts.append("Per-colour action outcomes:\n\n" + markdown_table(
                ("colour", "committed", "aborted", "made permanent"),
                outcomes))
        latencies = twopc_rows(dump)
        if latencies:
            parts.append("Two-phase-commit latency (simulated ticks, "
                         "coordinator-observed):\n\n" + markdown_table(
                             ("metric", "labels", "samples", "mean", "p95",
                              "max"), latencies))
        if len(parts) == 1:
            parts.append("(no per-colour or 2PC metrics in this dump)")
        sections.append("\n\n".join(parts))
    return "\n\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    directory = argv[0] if argv else os.environ.get("REPRO_OBS_DUMP", "")
    if not directory:
        print("usage: python benchmarks/obs_appendix.py <dump-dir> "
              "[name-prefix ...]  (or set REPRO_OBS_DUMP)", file=sys.stderr)
        return 1
    appendix = render(directory, names=argv[1:] or None)
    if not appendix:
        print(f"error: no usable *.metrics.json dumps under {directory}",
              file=sys.stderr)
        return 1
    print(appendix)
    return 0


if __name__ == "__main__":
    sys.exit(main())
