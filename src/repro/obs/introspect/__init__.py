"""Live cluster introspection: health probes, snapshots, operator console.

The fifth observability layer.  The other four answer questions about a
*finished* run (report/audit/perf/why over a saved dump); this one answers
"what is the cluster doing *right now*": every server serves a read-only
``status_query`` RPC off its live structures, and a
:class:`ClusterInspector` stitches the answers into cluster snapshots with
per-server health verdicts and coordinator-vs-server drift detection.
``python -m repro.obs top`` is the console on top.
"""

from repro.obs.introspect.inspector import (
    DEGRADED,
    EPOCH_DRIFT,
    FINISHED_IN_FLIGHT,
    HEALTHY,
    STALLED,
    ClusterInspector,
    Drift,
    ServerHealth,
)
from repro.obs.introspect.render import (
    hottest_colours,
    hottest_objects,
    oldest_in_flight,
    render_drift,
    render_snapshot,
)

__all__ = [
    "ClusterInspector",
    "Drift",
    "ServerHealth",
    "HEALTHY",
    "DEGRADED",
    "STALLED",
    "EPOCH_DRIFT",
    "FINISHED_IN_FLIGHT",
    "render_snapshot",
    "render_drift",
    "hottest_objects",
    "hottest_colours",
    "oldest_in_flight",
]
