"""Service-level objectives: layer 6 of the observability stack.

Declarative per-colour objectives (:mod:`repro.obs.slo.objectives`)
evaluated over sliding windows of sampler points with multi-window
burn-rate alerting (:mod:`repro.obs.slo.engine`).  Turn on with
``cluster.observe(slo=True)`` (which brings the sampler, the engine's
clock, along); inspect saved ledgers and evaluate old dumps offline with
``python -m repro.obs slo``.
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
