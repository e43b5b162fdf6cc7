"""Service-level objectives: layer 6 of the observability stack.

Declarative per-colour objectives (:mod:`repro.obs.slo.objectives`)
evaluated over sliding windows of sampler points with multi-window
burn-rate alerting (:mod:`repro.obs.slo.engine`).  Turn on with
``cluster.observe(slo=True)`` (which brings along the sampler whose
timeline it judges); judge a saved timeline with ``python -m repro.obs
slo``, through the same frames.
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
