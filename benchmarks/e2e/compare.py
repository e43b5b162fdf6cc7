"""``--compare A.json B.json``: one row per (workload, end-to-end metric).

``A`` is the base (the parent commit), ``B`` the change; both are suite
documents written by ``python -m benchmarks.e2e --out``.  A row is

* ``regressed`` / ``improved`` when B's median is worse / better than A's
  by more than the metric's bound,
* ``unresolved`` when the run-to-run spread of either side is wider than
  the bound *and* the two sides' runs overlap, so the medians cannot
  settle it,
* ``missing`` when B lacks a workload or a metric that A has,
* ``unchanged`` otherwise; for ``setup_s`` also whenever the medians are
  within ``SETUP_FLOOR_S`` of each other (a sim deployment takes 1-10 ms).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from .metrics import SCHEMA

#: the issue's absolute floor under the relative bound of ``setup_s``
SETUP_FLOOR_S = 0.05


def load(path: str) -> Dict[str, Any]:
    """Read a suite document, refusing anything else."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} document")
    return document


def verdict(base: Dict[str, Any], change: Dict[str, Any],
            floor: float = 0.0) -> str:
    """Classify one metric given both sides' ``median``/``values`` rows."""
    bound = base["bound"]
    a, b = base["median"], change["median"]
    if abs(b - a) <= floor:
        return "unchanged"
    worse = (b - a) / a if base["better"] == "lower" else (a - b) / a
    spread = max((max(row["values"]) - min(row["values"])) / row["median"]
                 for row in (base, change))
    overlap = (min(base["values"]) <= max(change["values"])
               and min(change["values"]) <= max(base["values"]))
    if spread > bound and overlap:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(base: Dict[str, Any],
            change: Dict[str, Any]) -> List[Tuple[str, str, float, float, str]]:
    """Rows ``(workload, metric, base median, change median, verdict)``;
    the change median of a ``missing`` row is NaN."""
    rows = []
    for workload, entry in base["workloads"].items():
        others = change["workloads"].get(workload, {}).get("end_to_end", {})
        for metric, row in entry["end_to_end"].items():
            other = others.get(metric)
            if other is None:
                rows.append((workload, metric, row["median"], float("nan"),
                             "missing"))
                continue
            floor = SETUP_FLOOR_S if metric == "setup_s" else 0.0
            rows.append((workload, metric, row["median"], other["median"],
                         verdict(row, other, floor)))
    return rows


def main(base_path: str, change_path: str) -> int:
    """Print the table; exit 1 if any row is regressed, unresolved or
    missing."""
    base, change = load(base_path), load(change_path)
    rows = compare(base, change)
    print(f"base A = {base_path}\nchange B = {change_path}")
    print(f"{'workload':<16} {'metric':<22} {'A median':>14} "
          f"{'B median':>14} {'B/A':>8}  verdict")
    for workload, metric, a, b, outcome in rows:
        unit = base["workloads"][workload]["end_to_end"][metric]["unit"]
        print(f"{workload:<16} {metric:<22} {a:>14.4f} {b:>14.4f} "
              f"{b / a:>8.3f}  {outcome} ({unit}, base A)")
    bad = [row for row in rows
           if row[4] in ("regressed", "unresolved", "missing")]
    print(f"{len(rows)} rows, {len(bad)} regressed, unresolved or missing")
    return 1 if bad else 0
