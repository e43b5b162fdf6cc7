"""The SLO engine: multi-window burn-rate evaluation of objectives.

The engine rides the :class:`~repro.obs.perf.sampler.TimeSeriesSampler` —
every sampled point triggers one *frame*: cumulative measures are read
from the metrics registry, appended to a bounded per-objective history,
and each objective's short and long windows are re-evaluated.

A breach opens when **both** windows burn past the objective's threshold
(one noisy interval cannot page; a sustained regression pages within
``short_window`` points) and closes when the short window recovers.  Each
transition is observable three ways at once:

* a ``slo.breach`` / ``slo.recovered`` event on the hub bus (critical
  kinds — the flight recorder always retains them);
* a ``slo_breach_total{objective=...}`` counter increment;
* a frozen flight-recorder snapshot (the black box as of the breach);

and every breach lands in a bounded ledger that travels in
``Observability.save`` dumps under this layer's ``extra`` section.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.perf.recorder import FlightRecorder
from repro.obs.perf.sampler import COLOUR_HISTOGRAMS, TimeSeriesSampler
from repro.obs.slo.objectives import Objective, default_objectives

#: ledger entries retained per engine; older breaches are dropped counted
MAX_BREACHES = 256

#: histogram metric -> per-colour point-key prefix in sampler timelines
POINT_PREFIXES = {metric: key for key, metric in COLOUR_HISTOGRAMS}


class SLOEngine:
    """Evaluates declarative objectives over sliding sampler windows."""

    section = "slo"
    #: the sampler is the engine's clock: one frame per sampled point
    requires = (TimeSeriesSampler.section,)

    def __init__(self, objectives: Optional[List[Objective]] = None):
        self.hub = None
        self._objectives = None if objectives is None else list(objectives)
        names = [objective.name for objective in self._objectives or ()]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names in {names}")
        self.frames = 0
        self.breaches: List[Dict[str, Any]] = []
        self.dropped_breaches = 0
        #: objective name -> open ledger entry while breaching
        self._active: Dict[str, Dict[str, Any]] = {}
        #: objective name -> deque of (tick, measure tuple)
        self._history: Dict[str, Deque[Tuple[float, Tuple]]] = {}

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
        """Signal into ``hub`` and evaluate one frame per point of its
        sampler (frames can also be fed by hand, :meth:`observe_frame`)."""
        self.hub = hub
        sampler = hub.layers.get(TimeSeriesSampler.section)
        if sampler is not None:
            sampler.add_point_listener(self._on_point)

    def _on_point(self, point: Dict[str, Any]) -> None:
        self.observe_frame(point["tick"], self._measure())

    # -- measurement -----------------------------------------------------------

    def _measure(self) -> Dict[str, Tuple]:
        """Cumulative measures per objective, straight from the registry."""
        metrics = self.hub.metrics
        out: Dict[str, Tuple] = {}
        for objective in self.objectives:
            if objective.kind == "latency":
                count = total = 0.0
                for labels, histogram in metrics.series(objective.metric):
                    if objective.colour and \
                            labels.get("colour") != objective.colour:
                        continue
                    count += histogram.count
                    total += histogram.total
                out[objective.name] = (count, total)
            elif objective.kind == "abort_rate":
                pair = []
                for metric in ("actions_aborted_total",
                               "actions_committed_total"):
                    value = 0.0
                    for labels, counter in metrics.series(metric):
                        if objective.colour and \
                                labels.get("colour") != objective.colour:
                            continue
                        value += counter.value
                    pair.append(value)
                out[objective.name] = tuple(pair)
            elif objective.kind == "zero":
                out[objective.name] = (sum(
                    counter.value
                    for _, counter in metrics.series(objective.metric)),)
            else:  # health
                worst, node = 0.0, ""
                for labels, gauge in metrics.series(
                        objective.metric or "cluster_health"):
                    if gauge.value > worst:
                        worst, node = gauge.value, labels.get("node", "")
                out[objective.name] = (worst, node)
        return out

    # -- evaluation ------------------------------------------------------------

    def observe_frame(self, tick: float,
                      measures: Dict[str, Tuple]) -> List[Dict[str, Any]]:
        """Append one frame of cumulative measures and re-evaluate.

        Returns the ledger entries *opened* by this frame (tests and the
        soak runner use this to correlate breaches with fault windows).
        """
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
                self._signal("slo.recovered", objective, active)
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
        self._signal("slo.breach", objective, entry)
        return entry

    def _record(self, entry: Dict[str, Any]) -> None:
        if len(self.breaches) >= MAX_BREACHES:
            self.dropped_breaches += 1
            return
        self.breaches.append(entry)

    def _signal(self, kind: str, objective: Objective,
                entry: Dict[str, Any]) -> None:
        if self.hub is None:
            return
        self.hub.emit(kind, objective=objective.name,
                      objective_kind=objective.kind,
                      colour=objective.colour,
                      burn=f"{entry['burn_short'] or 0.0:.3f}",
                      value=f"{entry['value'] or 0.0:.3f}",
                      target=f"{objective.target:g}")
        if kind == "slo.breach":
            self.hub.count("slo_breach_total", objective=objective.name)
            flight = self.hub.layers.get(FlightRecorder.section)
            if flight is not None:
                flight.freeze(
                    f"slo breach: {objective.name} "
                    f"(burn {entry['burn_short'] or 0.0:.2f}x)",
                    kind="slo-breach")

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
        end]`` (a breach spanning a rotation rides both segments; the
        ``slo`` console merges them).  The ledger itself is bounded and
        stays whole for the end-of-run verdict."""
        return dict(self.dump(), breaches=[
            dict(entry) for entry in self.breaches
            if entry["start_tick"] <= end
            and (entry["end_tick"] is None or entry["end_tick"] > start)])


def evaluate_timeline(points: List[Dict[str, Any]],
                      objectives: Optional[List[Objective]] = None,
                      ) -> SLOEngine:
    """Offline evaluation of latency/abort objectives from saved points.

    Rebuilds cumulative frames from a sampler timeline's per-colour
    deltas, so dumps written *without* a live engine can still get a
    verdict after the fact.  ``zero``/``health`` objectives need registry
    state that points do not carry and are skipped here (the CLI checks
    them against the dump's final counters instead).
    """
    engine = SLOEngine(objectives=objectives)
    supported = [objective for objective in engine.objectives
                 if objective.kind in ("latency", "abort_rate")]
    # objective name -> running cumulative tuple
    running: Dict[str, List[float]] = {
        objective.name: [0.0, 0.0] for objective in supported}
    for point in points:
        colours = point.get("colours", {})
        frame: Dict[str, Tuple] = {}
        for objective in supported:
            totals = running[objective.name]
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
        engine.observe_frame(point.get("tick", 0.0), frame)
    return engine
