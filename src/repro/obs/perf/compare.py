"""Perf-regression gate: diff scenario runs against checked-in baselines.

Baselines are ``BENCH_<scenario>.json`` files at the repository root
(regenerated with ``python benchmarks/scenarios.py --out .``); a candidate
run writes the same files to another directory, and :func:`compare_trees`
diffs the two with tolerance bands:

- every numeric entry under a document's ``metrics`` key is *gated*: it
  must stay within ``rel_tolerance`` of the baseline (two-sided — the
  scenarios run on simulated time, so drift in either direction means the
  system's behaviour changed, not the weather);
- per-metric overrides live in the baseline's ``tolerances`` map;
- entries under ``info`` (overhead shares and the like) are never gated —
  they measure the machine as much as the system; time, memory and wall
  latency are the repo benchmark's business (``python3 -m benchmarks.e2e``);
- a scenario present in the baselines but absent from the run fails the
  gate (coverage loss is a regression too); a new scenario in the run is
  reported but passes (its baseline lands with the PR that adds it).
"""

from __future__ import annotations

import glob
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: default two-sided relative tolerance band
DEFAULT_REL_TOLERANCE = 0.10
#: absolute slack so zero-valued baselines don't demand exact zeros
DEFAULT_ABS_TOLERANCE = 1e-9

#: deviation kinds that fail the gate
FAILING_KINDS = frozenset(("regression", "missing-metric", "missing-scenario"))


@dataclass(frozen=True)
class Deviation:
    """One difference between a run and its baseline."""

    scenario: str
    kind: str                    # regression | missing-metric | new-metric | ...
    metric: str = ""
    baseline: Optional[float] = None
    current: Optional[float] = None
    tolerance: Optional[float] = None

    @property
    def failing(self) -> bool:
        return self.kind in FAILING_KINDS

    def describe(self) -> str:
        if self.kind == "regression":
            delta = ""
            if self.baseline:
                delta = f" ({(self.current - self.baseline) / self.baseline:+.1%})"
            return (f"[{self.scenario}] {self.metric}: "
                    f"{self.current:g} vs baseline {self.baseline:g}{delta}, "
                    f"tolerance ±{self.tolerance:.0%}")
        if self.kind == "missing-metric":
            return (f"[{self.scenario}] {self.metric}: in baseline "
                    f"({self.baseline:g}) but absent from the run")
        if self.kind == "new-metric":
            return (f"[{self.scenario}] {self.metric}: new metric "
                    f"({self.current:g}), no baseline yet")
        if self.kind == "missing-scenario":
            return f"[{self.scenario}] baseline exists but the run skipped it"
        if self.kind == "new-scenario":
            return f"[{self.scenario}] new scenario, no baseline yet"
        return f"[{self.scenario}] {self.kind} {self.metric}"


def gated_metrics(doc: Dict[str, Any]) -> Dict[str, float]:
    """The numeric entries of a document that the gate checks."""
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return {}
    return {
        key: float(value) for key, value in metrics.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def scenario_name(doc: Dict[str, Any], path: str = "") -> str:
    name = doc.get("scenario")
    if name:
        return str(name)
    stem = os.path.basename(path)
    if stem.startswith("BENCH_"):
        stem = stem[len("BENCH_"):]
    return stem.rsplit(".json", 1)[0] or "unnamed"


def load_bench_files(root: str) -> Dict[str, Tuple[str, Dict[str, Any]]]:
    """scenario name -> (path, document) for every BENCH_*.json under root."""
    found: Dict[str, Tuple[str, Dict[str, Any]]] = {}
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            continue
        found[scenario_name(doc, path)] = (path, doc)
    return found


def compare_documents(scenario: str, current: Dict[str, Any],
                      baseline: Dict[str, Any],
                      rel_tolerance: float = DEFAULT_REL_TOLERANCE,
                      abs_tolerance: float = DEFAULT_ABS_TOLERANCE,
                      ) -> List[Deviation]:
    """Deviations of one scenario run against its baseline document."""
    overrides = baseline.get("tolerances", {})
    base_metrics = gated_metrics(baseline)
    run_metrics = gated_metrics(current)
    deviations: List[Deviation] = []
    for metric in sorted(base_metrics):
        expected = base_metrics[metric]
        tolerance = float(overrides.get(metric, rel_tolerance))
        if metric not in run_metrics:
            deviations.append(Deviation(scenario=scenario, kind="missing-metric",
                                        metric=metric, baseline=expected))
            continue
        actual = run_metrics[metric]
        if not math.isclose(actual, expected, rel_tol=tolerance,
                            abs_tol=abs_tolerance):
            deviations.append(Deviation(
                scenario=scenario, kind="regression", metric=metric,
                baseline=expected, current=actual, tolerance=tolerance,
            ))
    for metric in sorted(set(run_metrics) - set(base_metrics)):
        deviations.append(Deviation(scenario=scenario, kind="new-metric",
                                    metric=metric, current=run_metrics[metric]))
    return deviations


def compare_trees(baseline_root: str, current_root: str,
                  rel_tolerance: float = DEFAULT_REL_TOLERANCE,
                  abs_tolerance: float = DEFAULT_ABS_TOLERANCE,
                  ) -> List[Deviation]:
    """Deviations of every scenario in ``current_root`` vs the baselines."""
    baselines = load_bench_files(baseline_root)
    runs = load_bench_files(current_root)
    deviations: List[Deviation] = []
    for scenario in sorted(baselines):
        if scenario not in runs:
            deviations.append(Deviation(scenario=scenario,
                                        kind="missing-scenario"))
            continue
        _, run_doc = runs[scenario]
        _, base_doc = baselines[scenario]
        deviations.extend(compare_documents(
            scenario, run_doc, base_doc,
            rel_tolerance=rel_tolerance, abs_tolerance=abs_tolerance,
        ))
    for scenario in sorted(set(runs) - set(baselines)):
        deviations.append(Deviation(scenario=scenario, kind="new-scenario"))
    return deviations
