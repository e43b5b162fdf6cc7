"""Compensation over the cluster (§3.4, distributed).

Same contract as :class:`repro.structures.compensation.CompensationScope`
and the same core (:class:`repro.structures.schemes.Compensations`), in
generator form: register a compensator per committed piece of work — here
a factory that, given its fresh top-level action, returns the generator
body to run under it; if the governing action ends up aborted,
:meth:`ClusterCompensationScope.settle` runs each inside a fresh top-level
cluster action, in reverse registration order.

Explicitness note: the local scope hooks action outcome listeners; cluster
application code is generator-structured, so the scope is settled
explicitly (``yield from scope.settle()``) once the governing action has
ended.  Settling earlier raises and leaves every compensator armed.
"""

from __future__ import annotations

from repro.actions.status import Outcome
from repro.cluster.client import ClusterAction, ClusterClient
from repro.structures.schemes import CompensationRecord, Compensations

ClusterCompensationRecord = CompensationRecord


class ClusterCompensationScope(Compensations):
    """Compensators armed against one governing cluster action."""

    def __init__(self, client: ClusterClient, governing: ClusterAction):
        super().__init__(governing)
        self.client = client

    def settle(self):
        """Generator: run the compensators iff the governing action aborted.

        Each compensator runs in its own top-level action; one failing
        (its action aborts) does not stop the rest.  Raises
        :class:`~repro.errors.InvalidActionState` while the governing
        action is still running.
        """
        pending = self.take()
        for record in pending:
            action = self.client.top_level(f"compensate:{record.description}")
            try:
                yield from self.client.run_scope(
                    action, record.compensator(action)
                )
                record.outcome = Outcome.COMMITTED
            except Exception:  # noqa: BLE001 - best effort per item
                record.outcome = Outcome.ABORTED
            record.ran = True
        return pending
