"""Declarative service-level objectives over the observability stack.

An :class:`Objective` names one promise the system makes and how to check
it against hub metrics.  Four kinds cover the fault-tolerance story of the
paper's applications:

``latency``
    A windowed-mean ceiling on a labelled histogram (e.g. ``commit_latency``
    per colour).  The *burn rate* is ``window_mean / target`` — 1.0 means
    running exactly at target, 2.0 means twice over budget.
``abort_rate``
    A ceiling on ``aborted / (aborted + committed)`` over the window,
    normalised by ``target`` the same way.
``zero``
    Zero tolerance for a counter (auditor findings, introspection drift):
    any increase inside the short window is a breach.
``health``
    A ceiling on the worst ``cluster_health`` gauge rank
    (0 = healthy, 1 = degraded, 2 = stalled); ``target`` is the worst
    tolerated rank.

Windows are counted in sampler points, not ticks, because the engine
judges one frame per :class:`~repro.obs.perf.sampler.TimeSeriesSampler`
point.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List

#: the objective kinds the engine knows how to evaluate
KINDS = ("latency", "abort_rate", "zero", "health")


@dataclass(frozen=True)
class Objective:
    """One declarative promise, checked over sliding sampler windows."""

    name: str
    kind: str
    #: metric the objective watches (histogram for ``latency``, counter for
    #: ``zero``, gauge for ``health``; unused for ``abort_rate`` which
    #: always reads the action-outcome counter pair)
    metric: str = ""
    #: restrict to one colour label value ("" = aggregate over all colours)
    colour: str = ""
    target: float = 0.0
    #: burn-rate multiple at which latency/abort objectives trip (1.0 =
    #: breach as soon as the windowed value crosses the target)
    burn_threshold: float = 1.0
    #: fast window (points): catches sharp regressions, clears recoveries
    short_window: int = 3
    #: slow window (points): must *also* burn before alerting, so one noisy
    #: interval cannot page — the classic multi-window burn-rate rule
    long_window: int = 12
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("objective needs a name")
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown objective kind {self.kind!r} (expected one of "
                f"{', '.join(KINDS)})")
        if self.kind in ("latency", "zero") and not self.metric:
            raise ValueError(
                f"objective {self.name!r}: kind {self.kind!r} needs a metric")
        if self.kind in ("latency", "abort_rate") and self.target <= 0:
            raise ValueError(
                f"objective {self.name!r}: target must be > 0, "
                f"got {self.target}")
        if self.short_window < 1:
            raise ValueError(
                f"objective {self.name!r}: short_window must be >= 1")
        if self.long_window < self.short_window:
            raise ValueError(
                f"objective {self.name!r}: long_window ({self.long_window}) "
                f"must be >= short_window ({self.short_window})")
        if self.burn_threshold <= 0:
            raise ValueError(
                f"objective {self.name!r}: burn_threshold must be > 0")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "Objective":
        known = {f.name for f in fields(Objective)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown objective fields: {', '.join(unknown)}")
        return Objective(**raw)


def default_objectives(latency_target: float = 25.0,
                       abort_budget: float = 0.25,
                       latency_metric: str = "commit_latency",
                       colour: str = "",
                       include_health: bool = True,
                       ) -> List[Objective]:
    """The stock objective set a cluster soak watches.

    ``latency_target`` is in sim ticks; ``abort_budget`` is a fraction of
    terminated actions.  The two zero-tolerance objectives (auditor
    findings, introspection drift) always apply; ``cluster-health``
    tolerates ``degraded`` but breaches on any ``stalled`` server.
    """
    objectives = [
        Objective("commit-latency", "latency", metric=latency_metric,
                  colour=colour, target=latency_target,
                  short_window=3, long_window=9,
                  description="windowed mean commit latency vs target"),
        Objective("abort-rate", "abort_rate", colour=colour,
                  target=abort_budget, short_window=6, long_window=12,
                  description="aborted fraction of terminated actions"),
        Objective("audit-findings", "zero", metric="audit_findings_total",
                  description="online invariant auditor findings"),
        Objective("introspect-drift", "zero",
                  metric="introspect_drift_total",
                  description="live-introspection drift reports"),
    ]
    if include_health:
        objectives.append(Objective(
            "cluster-health", "health", metric="cluster_health", target=1.0,
            description="worst server health rank (breach on stalled)"))
    return objectives
