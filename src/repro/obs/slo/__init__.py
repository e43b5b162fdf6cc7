"""Service-level objectives: layer 6 of the observability stack.

Declarative per-colour objectives (:mod:`repro.obs.slo.objectives`)
evaluated over sliding windows of sampler points with multi-window
burn-rate alerting (:mod:`repro.obs.slo.engine`).  Attach to a cluster
with ``cluster.attach_slo()`` (requires ``attach_perf`` first — the
sampler is the engine's clock); inspect saved ledgers and evaluate old
dumps offline with ``python -m repro.obs slo``.
"""

from repro.obs.slo.engine import MAX_BREACHES, SLOEngine, evaluate_timeline
from repro.obs.slo.objectives import KINDS, Objective, default_objectives

__all__ = [
    "KINDS",
    "MAX_BREACHES",
    "Objective",
    "SLOEngine",
    "default_objectives",
    "evaluate_timeline",
]
