"""Actions: nested atomic actions and multi-coloured actions (§2, §5).

The tree is :class:`ActionNode` — identity, nesting, the static colour set,
status and the paper's structural rules: for each colour, locks and undo
responsibility go to the *closest ancestor possessing that colour*, or
become permanent when no such ancestor exists (§5.2); colour-disjoint
children survive their invoker (§3.3).  What an action holds and how it
commits is per runtime: :class:`Action` (undo ledger, write sets;
:mod:`repro.runtime` locally) and
:class:`~repro.cluster.client.ClusterAction` (involvement maps;
:mod:`repro.cluster` under simulation) both subclass it.
"""

from repro.actions.status import ActionStatus, Outcome
from repro.actions.record import UndoRecord
from repro.actions.node import ActionNode
from repro.actions.action import Action

__all__ = ["ActionStatus", "Outcome", "UndoRecord", "ActionNode", "Action"]
