"""Metric names, units, directions and bounds, and how each is computed.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names:
``BENCHMARK.json`` lists exactly these (``test_quick.py`` checks it), and
later issues quote them verbatim.  End-to-end values come from untraced
runs, per-layer values from the traced run (see ``tracing.py``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

if TYPE_CHECKING:  # names only: this module must import without ``src/``
    from .workloads import Deployment, Measured

#: schema tag of the suite document (``--out``), checked by ``--compare``
SCHEMA = "repro-e2e/1"

#: (name, unit, better, bound): ``bound`` is the share of the parent's
#: median by which the metric may worsen before it counts as a regression
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("commits_per_s", "1/s", "higher", 0.20),
    ("cpu_ms_per_commit", "ms", "lower", 0.20),
    ("commit_units_p50", "units", "lower", 0.10),
    ("msgs_per_commit", "count", "lower", 0.08),
    ("attempts_per_commit", "count", "lower", 0.03),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: the repo's modules, in the order the README tables list them; every
#: span belongs to one, and all but ``harness`` have a ``<layer>.share``
LAYERS = ("kernel", "network", "transport", "locking", "deadlock", "store",
          "client", "server", "obs", "harness")
_LAYER_SHARES = LAYERS[:-1]

#: (name, unit, better); no bounds: these explain, they do not gate
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("kernel.dispatch_self_us_per_commit", "us", "lower"),
    ("kernel.callbacks_per_commit", "count", "lower"),
    ("kernel.share", "ratio", "lower"),
    ("network.send_self_us_per_commit", "us", "lower"),
    ("network.sends_per_commit", "count", "lower"),
    ("network.dropped_share", "ratio", "lower"),
    ("network.duplicated_share", "ratio", "lower"),
    ("network.share", "ratio", "lower"),
    ("transport.self_us_per_commit", "us", "lower"),
    ("transport.rpcs_per_commit", "count", "lower"),
    ("transport.batched_share", "ratio", "higher"),
    ("transport.timeouts_per_commit", "count", "lower"),
    ("transport.share", "ratio", "lower"),
    ("locking.request_self_us_per_commit", "us", "lower"),
    ("locking.release_self_us_per_commit", "us", "lower"),
    ("locking.requests_per_commit", "count", "lower"),
    ("locking.waited_share", "ratio", "lower"),
    ("locking.wait_units_mean", "units", "lower"),
    ("locking.share", "ratio", "lower"),
    ("deadlock.probe_msgs_per_commit", "count", "lower"),
    ("deadlock.cycles", "count", "lower"),
    ("deadlock.fast_aborts", "count", "lower"),
    ("deadlock.share", "ratio", "lower"),
    ("store.wal_append_us_per_commit", "us", "lower"),
    ("store.wal_appends_per_commit", "count", "lower"),
    ("store.wal_scan_us_per_commit", "us", "lower"),
    ("store.wal_scans_per_commit", "count", "lower"),
    ("store.wal_depth_end", "count", "lower"),
    ("store.state_write_us_per_commit", "us", "lower"),
    ("store.state_writes_per_commit", "count", "lower"),
    ("store.bytes_per_commit", "bytes", "lower"),
    ("store.share", "ratio", "lower"),
    ("client.invoke_self_us_per_commit", "us", "lower"),
    ("client.commit_self_us_per_commit", "us", "lower"),
    ("client.path_share.classic", "ratio", "lower"),
    ("client.path_share.one_phase", "ratio", "higher"),
    ("client.path_share.piggyback", "ratio", "higher"),
    ("client.path_share.read_only", "ratio", "higher"),
    ("client.path_share.commute", "ratio", "higher"),
    ("client.share", "ratio", "lower"),
    ("server.invoke_self_us_per_commit", "us", "lower"),
    ("server.prepare_self_us_per_commit", "us", "lower"),
    ("server.decide_self_us_per_commit", "us", "lower"),
    ("server.recover_ms_p50", "ms", "lower"),
    ("server.recoveries", "count", "lower"),
    ("server.share", "ratio", "lower"),
    ("obs.self_us_per_commit", "us", "lower"),
    ("obs.calls_per_commit", "count", "lower"),
    ("obs.events_per_commit", "count", "lower"),
    ("obs.share", "ratio", "lower"),
    ("harness.trace_overhead", "ratio", "lower"),
    ("harness.unattributed_share", "ratio", "lower"),
    ("harness.idle_share", "ratio", "lower"),
    ("harness.sustain_ratio", "ratio", "lower"),
    ("harness.gc_share", "ratio", "lower"),
    ("harness.failed_share", "ratio", "lower"),
    ("harness.commit_wall_p50_ms", "ms", "lower"),
    ("harness.commit_wall_p99_ms", "ms", "lower"),
    ("harness.commit_units_p99", "units", "lower"),
)

#: what a traced run copies from its untraced reference run: end-to-end
#: numbers too unsteady to carry a bound (README, *Measured steadiness*)
DEMOTED = ("sustain_ratio", "commit_wall_p50_ms", "commit_wall_p99_ms",
           "commit_units_p99")

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def commit_latencies(measured: "Measured") -> Tuple[List[float], List[float]]:
    """Per committed action: wall seconds at reference speed, and time
    units (at reference speed too where a unit is wall time; exact on sim)."""
    stats = measured.stats
    wall = [measured.at_reference(seconds, scale) for seconds, scale
            in zip(stats.commit_wall_s, stats.commit_scale)]
    units = stats.commit_units
    if measured.wall_clock:
        units = [measured.at_reference(value, scale) for value, scale
                 in zip(units, stats.commit_scale)]
    return wall, units


def end_to_end(measured: "Measured", setup_s: float,
               rss_mb: float) -> Dict[str, float]:
    """The user-visible numbers of one untraced run; the times of the
    measured phase are at reference speed (``Measured.cpu_scale``)."""
    stats = measured.stats
    committed = stats.committed
    wall_s = measured.at_reference(measured.wall_s, measured.cpu_scale)
    return {
        "setup_s": setup_s,
        "commits_per_s": committed / wall_s,
        "cpu_ms_per_commit":
            measured.cpu_s * measured.cpu_scale * 1e3 / committed,
        "commit_units_p50": percentile(commit_latencies(measured)[1], 50),
        "msgs_per_commit": measured.messages / committed,
        "attempts_per_commit": stats.attempts / committed,
        "peak_rss_mb": rss_mb,
    }


def demoted(measured: "Measured") -> Dict[str, float]:
    """The ``DEMOTED`` numbers of one untraced run."""
    wall, units = commit_latencies(measured)
    return {
        "sustain_ratio": measured.sustain_ratio,
        "commit_wall_p50_ms": percentile(wall, 50) * 1e3,
        "commit_wall_p99_ms": percentile(wall, 99) * 1e3,
        "commit_units_p99": percentile(units, 99),
    }


def _series_sum(registry: Any, name: str, field: str = "value",
                **match: str) -> float:
    """Sum ``field`` over the series of ``name`` whose labels match."""
    return sum(
        getattr(instrument, field)
        for labels, instrument in registry.series(name)
        if all(labels.get(key) == value for key, value in match.items()))


def per_layer(deployment: "Deployment", measured: "Measured",
              tracer: Any, rows: List[Dict[str, Any]],
              reference: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer numbers of one traced run.

    ``rows`` is ``tracer.aggregate()`` (self time and calls per span name).

    ``reference`` is the raw result of an untraced run of the same
    (workload, seed, size): it supplies the ``DEMOTED`` numbers and the
    base of ``harness.trace_overhead``.  Times are at reference speed, like
    the end-to-end ones.
    """
    cluster = deployment.cluster
    registry = cluster.obs.metrics
    stats = measured.stats
    committed = stats.committed
    wall = measured.wall_s

    def self_s(**match: str) -> float:
        return sum(row["self_s"] for row in rows
                   if all(row[k] == v for k, v in match.items()))

    def calls(**match: str) -> int:
        return sum(row["calls"] for row in rows
                   if all(row[k] == v for k, v in match.items()))

    def us_per_commit(seconds: float) -> float:
        return seconds * measured.cpu_scale * 1e6 / committed

    layer_self = {layer: self_s(layer=layer) for layer in _LAYER_SHARES}
    # on the wall-clock backend kernel.run sleeps between timers: that is
    # idle, not dispatch cost (sim: the event heap never waits)
    idle = 0.0
    if cluster.backend.wall_clock:
        idle = max(0.0, min(wall - measured.cpu_s, layer_self["kernel"]))
        layer_self["kernel"] -= idle
    attributed = sum(layer_self.values()) + idle

    rpcs = calls(layer="transport", bucket="call")
    batches = calls(layer="transport", bucket="call_many")
    batched = _series_sum(registry, "rpc_batch_size", "total")
    requests = calls(bucket="request", layer="locking")
    waits = _series_sum(registry, "lock_wait_time", "count")
    # one vote per participant and commit round; a "prepared" record is
    # what only the classic path logs
    paths = {kind: _series_sum(registry, "twopc_fast_path_total", kind=kind)
             for kind in ("one_phase", "piggyback", "read_only", "commute")}
    paths["classic"] = float(tracer.wal_kinds.get("prepared", 0))
    votes = sum(paths.values())
    recoveries = tracer.durations("server.recover")
    probes = sum(_series_sum(registry, "messages_sent_total", kind=kind)
                 for kind in ("dl_probe", "dl_victim", "dl_cancel_wait"))

    values = {
        "kernel.dispatch_self_us_per_commit":
            us_per_commit(layer_self["kernel"]),
        "kernel.callbacks_per_commit": measured.callbacks / committed,
        "network.send_self_us_per_commit":
            us_per_commit(self_s(name="network.send")),
        "network.sends_per_commit": measured.messages / committed,
        "network.dropped_share": measured.dropped / measured.messages,
        "network.duplicated_share": measured.duplicated / measured.messages,
        "transport.self_us_per_commit": us_per_commit(layer_self["transport"]),
        "transport.rpcs_per_commit": (rpcs + batches) / committed,
        "transport.batched_share":
            batched / (rpcs + batched) if rpcs + batched else 0.0,
        "transport.timeouts_per_commit":
            _series_sum(registry, "rpc_timeouts_total") / committed,
        "locking.request_self_us_per_commit":
            us_per_commit(self_s(layer="locking", bucket="request")),
        "locking.release_self_us_per_commit":
            us_per_commit(self_s(layer="locking", bucket="release")),
        "locking.requests_per_commit": requests / committed,
        "locking.waited_share":
            sum(s.lock_waits for s in cluster.servers.values()) / requests
            if requests else 0.0,
        "locking.wait_units_mean":
            _series_sum(registry, "lock_wait_time", "total") / waits
            if waits else 0.0,
        "deadlock.probe_msgs_per_commit": probes / committed,
        "deadlock.cycles": _series_sum(registry, "deadlock_cycles_total"),
        "deadlock.fast_aborts":
            _series_sum(registry, "lock_fast_aborts_total"),
        "store.wal_append_us_per_commit":
            us_per_commit(self_s(bucket="wal_append")),
        "store.wal_appends_per_commit":
            calls(bucket="wal_append") / committed,
        "store.wal_scan_us_per_commit":
            us_per_commit(self_s(bucket="wal_scan")),
        "store.wal_scans_per_commit": calls(bucket="wal_scan") / committed,
        "store.wal_depth_end":
            float(sum(len(node.wal) for node in cluster.nodes.values())),
        "store.state_write_us_per_commit":
            us_per_commit(self_s(bucket="state_write")),
        "store.state_writes_per_commit":
            calls(bucket="state_write") / committed,
        "store.bytes_per_commit": tracer.store_bytes / committed,
        "client.invoke_self_us_per_commit":
            us_per_commit(self_s(layer="client", bucket="invoke")),
        "client.commit_self_us_per_commit":
            us_per_commit(self_s(layer="client", bucket="commit")),
        "server.invoke_self_us_per_commit":
            us_per_commit(self_s(layer="server", bucket="invoke")),
        "server.prepare_self_us_per_commit":
            us_per_commit(self_s(layer="server", bucket="prepare")),
        "server.decide_self_us_per_commit":
            us_per_commit(self_s(layer="server", bucket="decide")),
        "server.recover_ms_p50":
            percentile(recoveries, 50) * measured.cpu_scale * 1e3
            if recoveries else 0.0,
        "server.recoveries": float(len(recoveries)),
        "obs.self_us_per_commit": us_per_commit(layer_self["obs"]),
        "obs.calls_per_commit": calls(layer="obs", bucket="call") / committed,
        "obs.events_per_commit":
            calls(layer="obs", bucket="event") / committed,
        "harness.trace_overhead":
            measured.at_reference(wall, measured.cpu_scale)
            / reference["wall_at_reference_s"],
        "harness.unattributed_share": (wall - attributed) / wall,
        "harness.idle_share": idle / wall,
        "harness.gc_share": tracer.gc_seconds / wall,
        "harness.failed_share":
            (stats.attempts - committed) / stats.attempts,
    }
    for name in DEMOTED:
        values[f"harness.{name}"] = reference[name]
    for layer in _LAYER_SHARES:
        values[f"{layer}.share"] = layer_self[layer] / wall
    for kind, count in paths.items():
        values[f"client.path_share.{kind}"] = count / votes if votes else 0.0
    return values


def with_units(values: Dict[str, float],
               units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    """``{name: {"value", "unit"}}`` in the table's order, all names present."""
    missing = set(units) ^ set(values)
    if missing:
        raise KeyError(f"metric tables and values disagree on {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}
