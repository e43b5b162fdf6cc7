"""The observability layers a cluster can turn on by section name.

``Cluster.observe(<section>=True | {constructor options})`` looks the
class up here.  The order is the binding order within one call, and every
layer comes after the sections it ``requires``.
"""

from repro.obs.history import History
from repro.obs.introspect.inspector import ClusterInspector
from repro.obs.perf.recorder import FlightRecorder
from repro.obs.perf.sampler import TimeSeriesSampler
from repro.obs.postmortem.engine import PostmortemEngine
from repro.obs.slo.engine import SLOEngine

#: section name -> layer class
LAYERS = {cls.section: cls for cls in (
    History, TimeSeriesSampler, FlightRecorder, PostmortemEngine, ClusterInspector,
    SLOEngine)}
