"""Shared helpers for the per-figure benchmark harness.

Every benchmark both *times* its scenario (pytest-benchmark) and *checks
the paper's qualitative claim* (assertions on the returned metrics), then
prints the rows it reproduced so ``pytest benchmarks/ --benchmark-only -s``
regenerates the figure data.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, Iterable, List, Sequence


def emit_metrics_dump(name: str, cluster) -> None:
    """Write the cluster's metrics registry next to the figure output.

    Opt-in: set ``REPRO_OBS_DUMP`` to a directory and each benchmark that
    calls this drops a ``<name>.metrics.json`` there for offline analysis
    with ``python -m repro.obs report``.
    """
    out_dir = os.environ.get("REPRO_OBS_DUMP")
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", name)
    path = os.path.join(out_dir, f"{slug}.metrics.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cluster.metrics_dump(), fh, indent=2, sort_keys=True)


def print_figure(title: str, rows: Iterable[Sequence[Any]],
                 headers: Sequence[str]) -> None:
    """Render one figure's data as an aligned text table."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print(f"\n### {title}")
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def outcome_row(label: str, metrics: Dict[str, Any]) -> List[Any]:
    return [label] + [metrics[key] for key in sorted(metrics)]
