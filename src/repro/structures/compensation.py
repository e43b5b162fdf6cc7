"""Compensating actions (§3.4).

"Once a top-level action commits, its effects can only be 'undone' by
running one or more application specific compensating actions."  The paper
leaves mechanisms for this as further research; this module provides the
obvious one for the structures implemented here: register a compensator
alongside each committed piece of work, and if the *governing* action
(e.g. a serializing control action, or a bulletin-board poster's
application action) ends up aborting, run the compensators — each inside a
fresh top-level action, in reverse registration order.

The record/register/discard/take core is
:class:`repro.structures.schemes.Compensations`; here is the local calling
convention: the governing action's outcome listener fires the run.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.actions.action import Action
from repro.structures.schemes import CompensationRecord, Compensations

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import LocalRuntime


class CompensationScope(Compensations):
    """Run registered compensators if the governing action aborts.

    A compensator is called with its own fresh top-level action.
    """

    def __init__(self, runtime: "LocalRuntime", governing: Action):
        super().__init__(governing)
        self.runtime = runtime
        governing.on_outcome(lambda _action, _outcome: self.run_all())

    def run_all(self) -> List[CompensationRecord]:
        """Run what the ended governing action leaves to run, last first.

        A compensator that raises marks its record ABORTED and the rest
        still run — compensation is best-effort per item, as each
        compensates an independently committed action.
        """
        pending = self.take()
        for record in pending:
            scope = self.runtime.top_level(name=f"compensate:{record.description}")
            try:
                with scope as action:
                    record.compensator(action)
            except Exception:  # noqa: BLE001 - recorded, not propagated
                pass
            record.ran = True
            record.outcome = scope.outcome
        return pending
