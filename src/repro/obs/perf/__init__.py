"""The performance observatory: time-series metrics, flight recorder and
the perf-regression gate.

Point-in-time dumps (PR 1) show *where* a run ended up; this package shows
how it *evolved* and whether it *regressed*:

- :class:`TimeSeriesSampler` — driven by the sim kernel clock
  (:meth:`repro.sim.kernel.Kernel.every`), periodically snapshots hub
  metrics into compact per-colour timelines: commit/abort throughput,
  lock-wait and 2PC-round latency quantiles, and probed gauges such as
  in-doubt object counts.
- :class:`FlightRecorder` — an always-on bounded ring buffer over the obs
  event bus with deterministic probabilistic sampling, so observability
  stays attached under heavy load at fixed memory; the ring is dumped on
  any auditor finding or test failure.
- :mod:`repro.obs.perf.compare` — diffs a scenario run's ``BENCH_*.json``
  against checked-in baselines with tolerance bands; the
  ``python -m repro.obs perf compare`` CLI exits non-zero on regression
  and is wired into CI as a perf gate (see ``benchmarks/scenarios.py``).
"""

from repro.obs.perf.compare import (
    Deviation,
    compare_documents,
    compare_trees,
    load_bench_files,
)
from repro.obs.perf.recorder import FlightRecorder
from repro.obs.perf.sampler import TimeSeriesSampler
from repro.obs.perf.timeline_view import timeline_html, timeline_text

__all__ = [
    "Deviation",
    "FlightRecorder",
    "TimeSeriesSampler",
    "compare_documents",
    "compare_trees",
    "load_bench_files",
    "timeline_html",
    "timeline_text",
]
