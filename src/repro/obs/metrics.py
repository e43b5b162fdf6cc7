"""Labelled metrics: counters, gauges, and histograms.

A :class:`MetricsRegistry` owns every instrument of one observed system
(a runtime, a cluster, a benchmark run).  Instruments are identified by a
name plus a label set — ``registry.counter("actions_committed_total",
colour="c1")`` — so the same logical metric fans out per colour, node,
message kind or action structure without pre-registration.

Everything is thread-safe (the local runtime is multi-threaded); in the
simulated cluster the registry is also deterministic: nothing here reads
wall-clock time or randomness, timestamps come from the owner's
``tick_source`` (usually ``lambda: kernel.now``).

A count a component already keeps in a plain int need not be pushed in
one report per increment: the component registers a *collector*
(:meth:`MetricsRegistry.collect`, Prometheus's collector pattern) and
the registry pulls its totals whenever it is read.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: labels are carried as a sorted tuple of (key, value) pairs — hashable,
#: deterministic, JSON-friendly.
LabelSet = Tuple[Tuple[str, str], ...]

#: label *value* that high-cardinality series fold into once a metric hits
#: its per-metric series cap.  The label keys are preserved so per-key
#: aggregations (e.g. summing a counter across every ``colour``) still see
#: the folded series.
OVERFLOW_LABEL = "__overflow__"

#: raw samples a histogram retains for its percentiles
MAX_SAMPLES = 4096


def _labelset(labels: Dict[str, Any]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter decrement ({amount}) not allowed")
        self.value += amount

    def summary(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """A value that can go up and down (queue depths, live objects)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def summary(self) -> Dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """Sampled distribution with exact count/sum/min/max and percentiles.

    Retains up to :data:`MAX_SAMPLES` raw samples for percentile queries.  The
    aggregate statistics stay exact beyond that; the retained set is then a
    uniform *reservoir* over the whole stream (Vitter's Algorithm R, driven
    by a fixed-seed PRNG so the same observation sequence always keeps the
    same samples), and ``truncated`` flags the summary as approximate.
    Memory is therefore bounded for arbitrarily long runs without biasing
    percentiles toward the warm-up prefix.
    """

    __slots__ = ("count", "total", "min", "max", "samples", "_rng")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: List[float] = []
        #: the reservoir's PRNG, made on the first overflow: most series
        #: never see :data:`MAX_SAMPLES` observations
        self._rng: Optional[random.Random] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self.samples) < MAX_SAMPLES:
            self.samples.append(value)
        else:
            if self._rng is None:
                self._rng = random.Random(0x5EED)
            slot = self._rng.randrange(self.count)
            if slot < MAX_SAMPLES:
                self.samples[slot] = value

    def percentile(self, p: float) -> Optional[float]:
        """Linear-interpolated percentile over the retained samples."""
        if not self.samples:
            return None
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] + (ordered[high] - ordered[low]) * fraction

    @property
    def mean(self) -> Optional[float]:
        return (self.total / self.count) if self.count else None

    def summary(self) -> Dict[str, Any]:
        summary = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }
        if self.count > len(self.samples):
            summary["truncated"] = True
        return summary


class MetricsRegistry:
    """All instruments of one observed system, keyed by (name, labels)."""

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self, tick_source: Optional[Callable[[], float]] = None,
                 max_series_per_metric: Optional[int] = None,
                 folded_labels: Iterable[str] = ()):
        if max_series_per_metric is not None and max_series_per_metric < 1:
            raise ValueError(
                f"max_series_per_metric must be >= 1, got "
                f"{max_series_per_metric}")
        self._tick_source = tick_source
        self._mutex = threading.Lock()
        self.max_series_per_metric = max_series_per_metric
        #: label keys that split no series: a report carrying one lands in
        #: the series of its other labels, so sums over the key stay exact
        #: while a key with unbounded values (a hub's ``colour``: fresh per
        #: top-level action) costs no series per value
        self.folded_labels = frozenset(folded_labels)
        #: kind -> name -> labelset -> instrument
        self._instruments: Dict[str, Dict[str, Dict[LabelSet, Any]]] = {
            kind: {} for kind in self._KINDS
        }
        #: (kind, name) -> how many *lookups* were folded into overflow (a
        #: label set used twice past the cap adds 2: remembering which sets
        #: were seen is what the cap exists to avoid)
        self._folded: Dict[Tuple[str, str], int] = {}
        #: lookups already resolved, as they were made less their folded
        #: labels: (kind, name, *label keys in call order, *``str`` of the
        #: values) -> instrument.  Never holds a lookup that folded into
        #: overflow, so a capped or folding registry stays bounded.
        self._resolved: Dict[Tuple, Any] = {}
        #: each source :meth:`collect` registered, with the totals of the
        #: rows it yielded at the last read
        self._collectors: List[Tuple[Callable[[], Iterable[Tuple]],
                                     Dict[Tuple, float]]] = []

    def now(self) -> float:
        """The registry's clock (simulated time when given a tick source)."""
        if self._tick_source is not None:
            return self._tick_source()
        return 0.0

    # -- instrument access ---------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        self._pull()  # the caller may read it: pulled counts are counters
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get("histogram", name, labels)

    def collect(self, source: Callable[[], Iterable[Tuple]]) -> None:
        """Pull counters from ``source`` instead of being told each step.

        ``source()`` yields ``(name, labels, total)`` rows: the running
        total of its share of the counter ``name{labels}`` (several
        sources may count one series).  Every read of the registry
        first adds what each total gained since the previous read, so a
        dump, a query or a sample sees what one report per increment
        would have made — except that a label set folded into overflow is
        counted in ``metrics_series_folded_total`` once per read, not per
        increment.  A source may leave a row out of a read once the
        previous read saw its current total, and neither side keeps it
        then: a row that comes back counts from zero.  So a label whose
        values are unbounded (a colour) costs nothing once it goes quiet.
        """
        self._collectors.append((source, {}))

    def _pull(self) -> None:
        for index, (source, pulled) in enumerate(self._collectors):
            seen: Dict[Tuple, float] = {}
            for name, labels, total in source():
                key = (name, *labels, *map(str, labels.values()))
                seen[key] = total
                gained = total - pulled.get(key, 0)
                if gained:
                    self._get("counter", name, dict(labels)).inc(gained)
            self._collectors[index] = (source, seen)

    def _get(self, kind: str, name: str, labels: Dict[str, Any]):
        # the report path: a repeated lookup is one dict read, taken without
        # the lock.  A folded label is dropped first (``labels`` is the
        # caller's keyword dict, ours to trim): the lookup is that of the
        # other labels, values unbounded or not.  ``str`` of the values
        # keeps 1, 1.0 and True apart, as ``_labelset`` does.
        for key in self.folded_labels:
            labels.pop(key, None)
        call = (kind, name, *labels, *map(str, labels.values()))
        instrument = self._resolved.get(call)
        if instrument is not None:
            return instrument
        key = _labelset(labels)
        with self._mutex:
            per_name = self._instruments[kind].setdefault(name, {})
            instrument = per_name.get(key)
            if instrument is None:
                cap = self.max_series_per_metric
                if cap is not None and key and len(per_name) >= cap:
                    # fold new label sets into one overflow series per label
                    # *shape*, keeping keys so cross-label sums stay exact.
                    self._folded[(kind, name)] = (
                        self._folded.get((kind, name), 0) + 1)
                    overflow = tuple((k, OVERFLOW_LABEL) for k, _ in key)
                    instrument = per_name.get(overflow)
                    if instrument is None:
                        instrument = per_name[overflow] = self._KINDS[kind]()
                    return instrument
                instrument = per_name[key] = self._KINDS[kind]()
            self._resolved[call] = instrument
            return instrument

    # -- queries ---------------------------------------------------------------

    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter or gauge (0.0 if never touched)."""
        self._pull()
        key = _labelset(labels)
        with self._mutex:
            for kind in ("counter", "gauge"):
                instrument = self._instruments[kind].get(name, {}).get(key)
                if instrument is not None:
                    return instrument.value
        return 0.0

    def series(self, name: str) -> List[Tuple[Dict[str, str], Any]]:
        """Every (labels, instrument) pair recorded under ``name``."""
        self._pull()
        with self._mutex:
            found: List[Tuple[Dict[str, str], Any]] = []
            for per_kind in self._instruments.values():
                for key, instrument in per_kind.get(name, {}).items():
                    found.append((dict(key), instrument))
            return found

    def dump(self) -> Dict[str, List[Dict[str, Any]]]:
        """JSON-able snapshot of every instrument, deterministically ordered."""
        self._pull()
        with self._mutex:
            out: Dict[str, List[Dict[str, Any]]] = {}
            for kind, per_kind in self._instruments.items():
                rows: List[Dict[str, Any]] = []
                for name in sorted(per_kind):
                    for key in sorted(per_kind[name]):
                        entry = {"name": name, "labels": dict(key)}
                        entry.update(per_kind[name][key].summary())
                        rows.append(entry)
                out[f"{kind}s"] = rows
            # synthetic accounting rows: how many lookups each capped
            # metric folded into its overflow series (absent when no cap or
            # no overflow, keeping uncapped dumps byte-identical).
            for (kind, name), folds in sorted(self._folded.items()):
                out["counters"].append({
                    "name": "metrics_series_folded_total",
                    "labels": {"kind": kind, "metric": name},
                    "value": float(folds),
                })
            return out

    def clear(self) -> None:
        self._pull()  # what was counted before the clear goes with it
        with self._mutex:
            for per_kind in self._instruments.values():
                per_kind.clear()
            self._folded.clear()
            self._resolved.clear()

    def series_count(self) -> int:
        """Total number of live instruments across every metric."""
        self._pull()
        with self._mutex:
            return sum(len(per_name)
                       for per_kind in self._instruments.values()
                       for per_name in per_kind.values())


def _row_key(row: Dict[str, Any]) -> Tuple[str, LabelSet]:
    return row["name"], _labelset(row.get("labels", {}))


def dump_delta(current: Dict[str, List[Dict[str, Any]]],
               baseline: Dict[str, List[Dict[str, Any]]],
               ) -> Dict[str, List[Dict[str, Any]]]:
    """The change between two :meth:`MetricsRegistry.dump` snapshots.

    This is snapshot-and-diff rather than snapshot-and-reset: the live
    registry is never mutated (resetting would corrupt consumers that track
    cumulative values, like the time-series sampler), yet summing the deltas
    of consecutive segments telescopes back to the final cumulative dump.

    Counters and gauges carry ``value`` differences; histograms carry
    ``count``/``sum`` differences with a recomputed ``mean`` (percentiles
    are cumulative-reservoir artefacts and are omitted, exactly as the
    multi-dump merge in :func:`repro.obs.dump.aggregate_documents`
    drops them).  Rows that did
    not change within the window are omitted.
    """
    out: Dict[str, List[Dict[str, Any]]] = {}
    for kind in ("counters", "gauges", "histograms"):
        base_rows = {_row_key(row): row for row in baseline.get(kind, [])}
        rows: List[Dict[str, Any]] = []
        for row in current.get(kind, []):
            before = base_rows.get(_row_key(row))
            if kind == "histograms":
                count = row["count"] - (before["count"] if before else 0)
                if count <= 0:
                    continue
                total = row["sum"] - (before["sum"] if before else 0.0)
                rows.append({
                    "name": row["name"], "labels": dict(row["labels"]),
                    "count": count, "sum": total,
                    "min": row["min"], "max": row["max"],
                    "mean": total / count,
                })
            else:
                value = row["value"] - (before["value"] if before else 0.0)
                if value == 0.0 and before is not None:
                    continue
                rows.append({"name": row["name"],
                             "labels": dict(row["labels"]), "value": value})
        out[kind] = rows
    return out
