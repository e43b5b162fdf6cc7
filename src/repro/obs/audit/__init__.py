"""Online invariant auditing over the observability event bus.

Every :class:`~repro.obs.hub.Observability` hub owns an
:class:`InvariantAuditor` over the :class:`~repro.obs.world.World` its bus
feeds, so any instrumented run — a test, a chaos schedule, a benchmark —
is continuously checked against the paper's per-colour invariants.  Use
``hub.auditor.report()`` for the findings, ``python -m repro.obs audit``
to replay a saved dump, and
:func:`repro.obs.audit.testing.install_online_audit` to turn findings
into hard test failures.
"""

from repro.obs.audit.auditor import InvariantAuditor
from repro.obs.audit.findings import ALL_KINDS, Finding
from repro.obs.audit.graph import SerializationGraph

__all__ = [
    "ALL_KINDS",
    "Finding",
    "InvariantAuditor",
    "SerializationGraph",
]
