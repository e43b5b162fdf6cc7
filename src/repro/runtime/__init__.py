"""The local runtime: actions, locks and persistence in one process.

This is the library's primary programming surface — the paper's trial
implementation was likewise non-distributed (§6).  Application threads open
action scopes (``with runtime.top_level(): ...``), operate on
:class:`~repro.objects.lockable.LockableObject` instances, and the runtime
supplies blocking lock acquisition, deadlock detection and stable-store
persistence.  The distributed case is served by :mod:`repro.cluster`.
"""

from repro.runtime.context import current_action, require_current_action
from repro.runtime.scope import ActionScope
from repro.runtime.runtime import AMBIENT, LocalRuntime

__all__ = ["LocalRuntime", "AMBIENT", "ActionScope", "current_action",
           "require_current_action"]
