"""Top-level independent actions (§3.3), via the fig. 13(b) colouring.

The invoked action is structurally nested inside its invoker — so it can be
granted locks the invoker holds, avoiding the fig. 13(a) deadlock — but is
coloured with a single *fresh* colour
(:func:`repro.structures.schemes.independent_action`).  Having no
same-coloured ancestor it behaves top-level: its commit is immediately
permanent, and the invoker's abort neither undoes it (no shared undo
responsibility) nor kills it when running asynchronously (colour-disjoint
children are detached, not aborted).

Synchronous invocation is just a ``with`` block (fig. 7(a)); asynchronous
invocation (:class:`AsyncIndependent`) runs the body in its own thread
(fig. 7(b)) and exposes the outcome for the invoker to consult, as the
paper suggests ("subsequent activities of A can be made to depend upon the
outcome of B").
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from repro.actions.action import Action
from repro.actions.status import Outcome
from repro.runtime.runtime import AMBIENT, LocalRuntime
from repro.runtime.scope import ActionScope
from repro.structures.schemes import independent_action


def independent_top_level(runtime: LocalRuntime, parent=AMBIENT,
                          name: str = "independent") -> ActionScope:
    """A synchronous top-level independent action (fig. 7(a)).

    ``parent`` defaults to the ambient action (that is the point of the
    structure: invoking a top-level action from *within* an action); pass
    ``parent=None`` for a plain top-level action.
    """
    return ActionScope(runtime, independent_action(runtime, parent, name))


class AsyncIndependent:
    """An asynchronous top-level independent action (fig. 7(b)).

    ``body`` receives the new action and runs in a separate thread inside
    an action scope (clean return commits, exception aborts).  The invoker
    may continue immediately; :meth:`wait` joins and returns the outcome.
    """

    def __init__(self, runtime: LocalRuntime,
                 body: Callable[[Action], Any], parent=AMBIENT,
                 name: str = "async-independent"):
        self.runtime = runtime
        self.action = independent_action(runtime, parent, name)
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.outcome: Optional[Outcome] = None
        self._thread = threading.Thread(target=self._run, args=(body,), daemon=True)
        self._thread.start()

    def _run(self, body: Callable[[Action], Any]) -> None:
        scope = ActionScope(self.runtime, self.action)
        try:
            with scope:
                self.result = body(self.action)
        except BaseException as error:  # noqa: BLE001 - reported via .error
            self.error = error
        finally:
            self.outcome = scope.outcome

    def wait(self, timeout: Optional[float] = None) -> Optional[Outcome]:
        """Join the invoked action; returns its outcome (None on timeout)."""
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            return None
        return self.outcome

    @property
    def running(self) -> bool:
        return self._thread.is_alive()
