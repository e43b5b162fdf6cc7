"""The SLO engine: multi-window burn-rate evaluation of objectives.

The engine judges a sampler timeline point by point.  Each point becomes
one *frame* of cumulative measures per objective
(:meth:`SLOEngine.observe_point`), appended to a bounded per-objective
history, and each objective's short and long windows are re-evaluated.
Latency and abort-rate measures are summed from the point's per-colour
deltas; a zero-tolerance counter and the worst health rank are read from
the point's gauges, which the engine probes into the sampler when it is
bound (:func:`probes`).

Bound to a hub, the engine is a *view* over its sampler's timeline: it
subscribes to nothing, and :meth:`SLOEngine.catch_up` judges the points
taken since it last read.  Its dump catches it up, and so does the hub
before it writes a segment.  Offline, ``python -m repro.obs slo`` judges
a saved timeline through the same frames (:func:`evaluate_timeline`), so
a run and its dump get one verdict.

A breach opens when **both** windows burn past the objective's threshold
(one noisy interval cannot page; a sustained regression pages within
``short_window`` points) and closes when the short window recovers.
Every breach lands in a bounded ledger that travels in
``Observability.save`` dumps under this layer's ``extra`` section.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.perf.sampler import COLOUR_HISTOGRAMS, TimeSeriesSampler
from repro.obs.slo.objectives import Objective, default_objectives

#: ledger entries retained per engine; older breaches are dropped counted
MAX_BREACHES = 256

#: histogram metric -> per-colour point-key prefix in sampler timelines
POINT_PREFIXES = {metric: key for key, metric in COLOUR_HISTOGRAMS}


def _health_metric(objective: Objective) -> str:
    return objective.metric or "cluster_health"


def probes(metrics, objectives: List[Objective]
           ) -> List[Tuple[str, Callable[[], Any]]]:
    """The sampler probes ``objectives`` read from ``metrics``: each
    ``zero`` objective's counter total under its metric's name, and a
    ``health`` objective's worst gauge rank under its metric's name with
    the node that holds it under ``<metric>_node``."""
    def total(metric: str) -> float:
        return float(sum(counter.value
                         for _, counter in metrics.series(metric)))

    def worst(metric: str) -> Tuple[float, str]:
        rank, node = 0.0, ""
        for labels, gauge in metrics.series(metric):
            if gauge.value > rank:
                rank, node = gauge.value, labels.get("node", "")
        return rank, node

    found: Dict[str, Callable[[], Any]] = {}
    for objective in objectives:
        metric = objective.metric
        if objective.kind == "zero":
            found[metric] = lambda metric=metric: total(metric)
        elif objective.kind == "health":
            metric = _health_metric(objective)
            found[metric] = lambda metric=metric: worst(metric)[0]
            found[f"{metric}_node"] = lambda metric=metric: worst(metric)[1]
    return list(found.items())


class SLOEngine:
    """Evaluates declarative objectives over sliding sampler windows."""

    section = "slo"
    #: the sampler's timeline is what the engine judges
    requires = (TimeSeriesSampler.section,)

    def __init__(self, objectives: Optional[List[Objective]] = None):
        self.hub = None
        self._objectives = None if objectives is None else list(objectives)
        names = [objective.name for objective in self._objectives or ()]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names in {names}")
        self._sampler: Optional[TimeSeriesSampler] = None
        #: the sampler's decimations when its points were last read
        self._decimations = 0
        self._reset()

    def _reset(self) -> None:
        self.frames = 0
        self.breaches: List[Dict[str, Any]] = []
        self.dropped_breaches = 0
        #: objective name -> open ledger entry while breaching
        self._active: Dict[str, Dict[str, Any]] = {}
        #: objective name -> deque of (tick, measure tuple)
        self._history: Dict[str, Deque[Tuple[float, Tuple]]] = {}
        #: objective name -> running cumulative latency (count, sum) or
        #: outcomes (aborted, committed), summed from points' deltas
        self._running: Dict[str, List[float]] = {}
        #: how many of the sampler's points have been judged
        self._read = 0

    @property
    def objectives(self) -> List[Objective]:
        """The objectives evaluated; without an explicit list, the stock
        set — with the cluster-health objective iff an inspector feeds the
        gauge it watches.  Decided at first use (the first frame at the
        latest), so the inspector may be bound before or after the engine.
        """
        if self._objectives is None:
            from repro.obs.introspect.inspector import ClusterInspector

            self._objectives = default_objectives(
                include_health=self.hub is None
                or ClusterInspector.section in self.hub.layers)
        return self._objectives

    # -- wiring ---------------------------------------------------------------

    def bind(self, hub, cluster=None) -> None:
        """Judge ``hub``'s sampler timeline, into which the objectives'
        :func:`probes` go; the stock set's include cluster-health, since an
        inspector may yet be bound.  Without a sampler, points are fed by
        hand (:meth:`observe_point`)."""
        self.hub = hub
        self._sampler = hub.layers.get(TimeSeriesSampler.section)
        if self._sampler is not None:
            for name, probe in probes(
                    hub.metrics, self._objectives or default_objectives()):
                self._sampler.add_probe(name, probe)

    def catch_up(self) -> None:
        """Judge the sampler's points taken since the last catch-up.  A
        decimation since then folded judged points into later ones, so the
        folded timeline is judged again from its start."""
        sampler = self._sampler
        if sampler is None:
            return
        if sampler.decimations != self._decimations:
            self._decimations = sampler.decimations
            self._reset()
        points = sampler.points
        for point in points[self._read:]:
            self.observe_point(point)
        self._read = len(points)

    # -- frames ----------------------------------------------------------------

    def observe_point(self, point: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Judge one sampler point (see :meth:`observe_frame`)."""
        return self.observe_frame(point.get("tick", 0.0), self._frame(point))

    def _frame(self, point: Dict[str, Any]) -> Dict[str, Tuple]:
        """Cumulative measures per objective as of ``point``; an objective
        whose measure the point does not carry is left out."""
        colours = point.get("colours", {})
        gauges = point.get("gauges", {})
        frame: Dict[str, Tuple] = {}
        for objective in self.objectives:
            if objective.kind == "zero":
                if objective.metric in gauges:
                    frame[objective.name] = (gauges[objective.metric],)
                continue
            if objective.kind == "health":
                metric = _health_metric(objective)
                if metric in gauges:
                    frame[objective.name] = (
                        gauges[metric], gauges.get(f"{metric}_node", ""))
                continue
            totals = self._running.setdefault(objective.name, [0.0, 0.0])
            if objective.kind == "latency":
                prefix = POINT_PREFIXES.get(objective.metric)
                if prefix is None:
                    continue
                for colour, row in colours.items():
                    if objective.colour and colour != objective.colour:
                        continue
                    count = row.get(f"{prefix}_count", 0.0)
                    mean = row.get(f"{prefix}_mean")
                    if not count or mean is None:
                        continue
                    totals[0] += count
                    totals[1] += count * mean
            else:
                for colour, row in colours.items():
                    if objective.colour and colour != objective.colour:
                        continue
                    totals[0] += row.get("aborted", 0.0)
                    totals[1] += row.get("committed", 0.0)
            frame[objective.name] = tuple(totals)
        return frame

    # -- evaluation ------------------------------------------------------------

    def observe_frame(self, tick: float,
                      measures: Dict[str, Tuple]) -> List[Dict[str, Any]]:
        """Append one frame of cumulative measures and re-evaluate.

        Returns the ledger entries *opened* by this frame."""
        self.frames += 1
        opened: List[Dict[str, Any]] = []
        for objective in self.objectives:
            if objective.name not in measures:
                continue
            history = self._history.setdefault(
                objective.name, deque(maxlen=objective.long_window + 1))
            history.append((tick, measures[objective.name]))
            entry = self._evaluate(objective, history, tick)
            if entry is not None:
                opened.append(entry)
        return opened

    def _burn(self, objective: Objective,
              history: Deque[Tuple[float, Tuple]],
              window: int) -> Tuple[Optional[float], Optional[float]]:
        """(burn rate, windowed value) over the last ``window`` frames."""
        if len(history) < 2:
            return None, None
        lo = history[max(0, len(history) - 1 - window)][1]
        hi = history[-1][1]
        if objective.kind == "latency":
            count = hi[0] - lo[0]
            if count <= 0:
                return None, None
            mean = (hi[1] - lo[1]) / count
            return mean / objective.target, mean
        if objective.kind == "abort_rate":
            aborted = hi[0] - lo[0]
            total = aborted + (hi[1] - lo[1])
            if total <= 0:
                return None, None
            fraction = aborted / total
            return fraction / objective.target, fraction
        if objective.kind == "zero":
            new = hi[0] - lo[0]
            return new, new
        # health: not a rate — the current worst rank plays both roles
        return hi[0], hi[0]

    def _breaching(self, objective: Objective, short: Optional[float],
                   long: Optional[float]) -> bool:
        if objective.kind in ("latency", "abort_rate"):
            return (short is not None and long is not None
                    and short >= objective.burn_threshold
                    and long >= objective.burn_threshold)
        if objective.kind == "zero":
            return short is not None and short > 0
        return short is not None and short > objective.target

    def _recovered(self, objective: Objective,
                   short: Optional[float]) -> bool:
        if short is None:
            return False
        if objective.kind in ("latency", "abort_rate"):
            return short < objective.burn_threshold
        if objective.kind == "zero":
            return short <= 0
        return short <= objective.target

    def _evaluate(self, objective: Objective,
                  history: Deque[Tuple[float, Tuple]],
                  tick: float) -> Optional[Dict[str, Any]]:
        short, value = self._burn(objective, history, objective.short_window)
        long, _ = self._burn(objective, history, objective.long_window)
        active = self._active.get(objective.name)
        if active is not None:
            active["burn_short"] = short
            active["burn_long"] = long
            if short is not None and short > active["peak_burn"]:
                active["peak_burn"] = short
                active["value"] = value
            if self._recovered(objective, short):
                active["end_tick"] = tick
                del self._active[objective.name]
            return None
        if not self._breaching(objective, short, long):
            return None
        entry = {
            "objective": objective.name,
            "kind": objective.kind,
            "colour": objective.colour,
            "metric": objective.metric,
            "start_tick": tick,
            "end_tick": None,
            "target": objective.target,
            "burn_short": short,
            "burn_long": long,
            "peak_burn": short,
            "value": value,
        }
        if objective.kind == "health":
            # name the worst server so the breach is actionable on its own
            entry["node"] = history[-1][1][1]
        self._record(entry)
        self._active[objective.name] = entry
        return entry

    def _record(self, entry: Dict[str, Any]) -> None:
        if len(self.breaches) >= MAX_BREACHES:
            self.dropped_breaches += 1
            return
        self.breaches.append(entry)

    # -- queries ---------------------------------------------------------------

    @property
    def breach_total(self) -> int:
        return len(self.breaches) + self.dropped_breaches

    def active(self) -> List[str]:
        """Names of objectives currently in breach."""
        return sorted(self._active)

    def window_status(self) -> List[Dict[str, Any]]:
        """Per-objective verdict as of the latest frame."""
        out = []
        for objective in self.objectives:
            history = self._history.get(objective.name, ())
            short, value = self._burn(objective, history,
                                      objective.short_window)
            long, _ = self._burn(objective, history, objective.long_window)
            if objective.name in self._active:
                state = "breaching"
            elif short is None:
                state = "no-data"
            else:
                state = "ok"
            out.append({"objective": objective.name, "state": state,
                        "burn_short": short, "burn_long": long,
                        "value": value})
        return out

    def dump(self) -> Dict[str, Any]:
        """JSON-able section for ``Observability.save``."""
        self.catch_up()
        return {
            "objectives": [objective.to_dict()
                           for objective in self.objectives],
            "frames": self.frames,
            "breach_total": self.breach_total,
            "dropped_breaches": self.dropped_breaches,
            "active": self.active(),
            "breaches": [dict(entry) for entry in self.breaches],
            "status": self.window_status(),
        }

    def rotate(self, start: float, end: float) -> Dict[str, Any]:
        """One segment's section: the ledger slice that overlaps ``(start,
        end]`` (a breach spanning a rotation rides both segments).  The
        ledger itself is bounded and stays whole for the end-of-run
        verdict."""
        return dict(self.dump(), breaches=[
            dict(entry) for entry in self.breaches
            if entry["start_tick"] <= end
            and (entry["end_tick"] is None or entry["end_tick"] > start)])


def evaluate_timeline(points: List[Dict[str, Any]],
                      objectives: Optional[List[Objective]] = None,
                      ) -> SLOEngine:
    """A fresh engine that has judged ``points``, a saved sampler timeline
    (``python -m repro.obs slo``): the frames a bound engine builds."""
    engine = SLOEngine(objectives=objectives)
    for point in points:
        engine.observe_point(point)
    return engine
