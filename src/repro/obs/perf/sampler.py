"""Time-series sampling of hub metrics on the simulated clock.

A :class:`TimeSeriesSampler` rides a :meth:`Kernel.every
<repro.sim.kernel.Kernel.every>` periodic timer and, at each firing,
appends one *point* to its timeline: per-colour commit/abort/permanence
throughput over the interval (counter deltas), latency quantiles of the
lock-wait and 2PC-prepare histograms, and whatever gauges the owner probed
in (in-doubt object counts, live mirrors, pending RPCs).

Everything is derived from the metrics registry and the sim clock, so the
timeline of a seeded run is bit-for-bit reproducible — unless the opt-in
``process_probes`` are on, which add host-interpreter GC/allocation
pressure (real memory, not simulated) to each point.  Memory is bounded:
when the timeline reaches ``max_points`` it is decimated (every second
point folded into the next, the newest kept, sampling stride doubled),
trading resolution for a fixed footprint without losing a count — the
same run always decimates at the same firings.
"""

from __future__ import annotations

import gc
import sys
from typing import Any, Callable, Dict, List, Tuple

from repro.obs.history import History

#: counters summarised per colour at each point (label -> metric name)
_COLOUR_COUNTERS = (
    ("committed", "actions_committed_total"),
    ("aborted", "actions_aborted_total"),
    ("permanent", "colour_permanent_total"),
    ("inherited", "colour_inherited_total"),
)

#: (point-key prefix, histogram) pairs: the histograms whose
#: colour-labelled quantiles enter each point
COLOUR_HISTOGRAMS = (
    ("lock_wait", "lock_wait_time"),
    ("twopc_prepare", "twopc_prepare_time"),
    ("commit_latency", "commit_latency"),
)


class TimeSeriesSampler:
    """Periodic snapshots of an Observability hub into per-colour timelines."""

    section = "timeline"
    #: its rows are per colour: the series it samples are split by colour
    requires = (History.section,)

    def __init__(self, interval: float = 5.0, max_points: int = 2048,
                 process_probes: bool = False):
        if max_points < 2:
            raise ValueError(f"max_points must be >= 2, got {max_points}")
        self.hub = None
        self.interval = interval
        self.max_points = max_points
        #: opt-in host-process pressure probes (``process`` section per
        #: point): GC generation counters, cumulative collections, live
        #: tracked objects and allocated blocks.  Off by default because
        #: the values come from the *host* interpreter, not the simulation
        #: — a timeline with them is no longer bit-for-bit reproducible.
        self.process_probes = process_probes
        self.points: List[Dict[str, Any]] = []
        #: current sampling stride (1 = every firing; doubled on decimation)
        self.stride = 1
        self.decimations = 0
        self._fires = 0
        self._probes: List[Tuple[str, Callable[[], Any]]] = []
        self._point_listeners: List[Callable[[Dict[str, Any]], None]] = []
        #: (metric, colour) -> cumulative value at the previous point
        self._last_counts: Dict[Tuple[str, str], float] = {}

    # -- wiring ---------------------------------------------------------------

    def bind(self, hub, cluster=None) -> None:
        """Sample ``hub``'s registry; with a ``cluster``, on its clock (the
        execution backend's: wall-clock intervals on asyncio, virtual ones
        on sim) and with its cluster-level gauges probed in.  Without one
        the owner calls :meth:`sample` itself."""
        self.hub = hub
        if cluster is None:
            return
        self.add_probe("in_doubt_objects", lambda: float(sum(
            len(s.in_doubt_objects) for s in cluster.servers.values())))
        self.add_probe("action_mirrors", lambda: float(sum(
            len(s.mirrors) for s in cluster.servers.values())))
        self.add_probe("prepared_txns", lambda: float(sum(
            len(n.txns.prepared) for n in cluster.nodes.values())))
        self.add_probe("pending_rpcs", lambda: float(sum(
            t.pending_count() for t in cluster.transports.values())))
        cluster.kernel.every(self.interval, self._tick)

    def add_probe(self, name: str, fn: Callable[[], Any]) -> None:
        """Sample ``fn()`` into the ``gauges`` section of every point: a
        JSON value, graphed when it is a number."""
        self._probes.append((name, fn))

    def add_point_listener(self, fn: Callable[[Dict[str, Any]], None]) -> None:
        """Call ``fn(point)`` after every sampled point; listener
        exceptions propagate."""
        self._point_listeners.append(fn)

    def _tick(self) -> None:
        self._fires += 1
        if self._fires % self.stride == 0:
            self.sample()

    # -- sampling -------------------------------------------------------------

    def sample(self) -> Dict[str, Any]:
        """Take one point now (also callable manually, e.g. at run end)."""
        metrics = self.hub.metrics
        point: Dict[str, Any] = {"tick": self.hub.now()}
        colours: Dict[str, Dict[str, Any]] = {}
        for key, metric in _COLOUR_COUNTERS:
            for labels, instrument in sorted(
                    metrics.series(metric), key=lambda kv: sorted(kv[0].items())):
                colour = labels.get("colour")
                if colour is None:
                    continue
                total = instrument.value
                last = self._last_counts.get((metric, colour), 0.0)
                self._last_counts[(metric, colour)] = total
                delta = total - last
                if delta:
                    row = colours.setdefault(colour, {})
                    row[key] = row.get(key, 0.0) + delta
        for key, metric in COLOUR_HISTOGRAMS:
            merged: Dict[str, List] = {}
            for labels, histogram in metrics.series(metric):
                colour = labels.get("colour")
                if colour is None:
                    continue
                merged.setdefault(colour, []).append(histogram)
            for colour, histograms in sorted(merged.items()):
                count = sum(h.count for h in histograms)
                total = sum(h.total for h in histograms)
                last = self._last_counts.get((metric, colour), 0.0)
                last_sum = self._last_counts.get((metric + "/sum", colour), 0.0)
                self._last_counts[(metric, colour)] = count
                self._last_counts[(metric + "/sum", colour)] = total
                if count == last:
                    continue  # no new samples this interval: stay compact
                row = colours.setdefault(colour, {})
                row[f"{key}_count"] = count - last
                # window mean: exact over just this interval's observations
                row[f"{key}_mean"] = (total - last_sum) / (count - last)
                # cumulative quantiles over the widest labelled series —
                # cheap, deterministic, and good enough for a trend line
                widest = max(histograms, key=lambda h: h.count)
                row[f"{key}_p50"] = widest.percentile(50)
                row[f"{key}_p95"] = widest.percentile(95)
        if colours:
            point["colours"] = {c: colours[c] for c in sorted(colours)}
        if self._probes:
            point["gauges"] = {name: fn() for name, fn in self._probes}
        if self.process_probes:
            point["process"] = self._process_sample()
        self.points.append(point)
        for listener in self._point_listeners:
            listener(point)
        if len(self.points) >= self.max_points:
            self._decimate()
        return point

    @staticmethod
    def _process_sample() -> Dict[str, float]:
        """Host-interpreter allocation pressure at this instant.

        ``gc_gen*`` are the collector's per-generation allocation counters,
        ``gc_collections`` the cumulative collection count across
        generations, ``objects`` the number of live GC-tracked objects
        (the expensive probe — a full ``gc.get_objects()`` walk) and
        ``alloc_blocks`` the interpreter's allocated memory blocks.
        """
        counts = gc.get_count()
        collections = float(sum(s.get("collections", 0)
                                for s in gc.get_stats()))
        return {
            "gc_gen0": float(counts[0]),
            "gc_gen1": float(counts[1]),
            "gc_gen2": float(counts[2]),
            "gc_collections": collections,
            "objects": float(len(gc.get_objects())),
            "alloc_blocks": float(sys.getallocatedblocks()),
        }

    def _decimate(self) -> None:
        """Halve the timeline, the newest point kept: every other point is
        folded into the next one kept, so sums over the timeline stay the
        registry's totals."""
        newest_first = self.points[::-1]
        kept = [_folded(earlier, later) for later, earlier
                in zip(newest_first[::2], newest_first[1::2])]
        kept += newest_first[2 * len(kept)::2]
        self.points = kept[::-1]
        self.stride *= 2
        self.decimations += 1

    # -- export ---------------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        """JSON-able view of the whole timeline."""
        return {
            "interval": self.interval,
            "stride": self.stride,
            "decimations": self.decimations,
            "points": list(self.points),
        }

    def rotate(self, start: float, end: float) -> Dict[str, Any]:
        """The timeline restricted to the points of ``(start, end]``; the
        points stay (decimation, not rotation, bounds them)."""
        return dict(self.dump(), points=[
            point for point in self.points if start < point["tick"] <= end])


def _folded(earlier: Dict[str, Any], later: Dict[str, Any]) -> Dict[str, Any]:
    """``later`` with ``earlier``'s per-colour deltas added in: counts are
    summed, window means weighted by their counts; cumulative quantiles,
    gauges and the tick are ``later``'s (``earlier``'s quantiles where
    ``later`` has none)."""
    colours = {colour: dict(row)
               for colour, row in later.get("colours", {}).items()}
    for colour, row in earlier.get("colours", {}).items():
        into = colours.setdefault(colour, {})
        for key, _metric in _COLOUR_COUNTERS:
            if key in row:
                into[key] = into.get(key, 0.0) + row[key]
        for key, _metric in COLOUR_HISTOGRAMS:
            count = row.get(f"{key}_count")
            if count is None:
                continue
            other = into.get(f"{key}_count", 0)
            mean = (row[f"{key}_mean"] * count
                    + into.get(f"{key}_mean", 0.0) * other) / (count + other)
            into[f"{key}_count"] = count + other
            into[f"{key}_mean"] = mean
            for quantile in ("p50", "p95"):
                into.setdefault(f"{key}_{quantile}", row[f"{key}_{quantile}"])
    if not colours:
        return later
    return dict(later, colours={c: colours[c] for c in sorted(colours)})
