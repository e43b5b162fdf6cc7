"""Concurrency control: lock modes, grant rules, the table, the waits-for walk.

One :class:`~repro.locking.table.LockTable` per object, driven by a rule
set.  Two interchangeable data-mode rule sets are provided (§5.2 of the
paper), and a third makes an object's lock modes its type's operation
groups (§2):

- :class:`~repro.locking.rules.ConventionalRules` — Moss-style nested atomic
  action locking (read shared; write/exclusive-read require every holder to
  be an ancestor).
- :class:`~repro.locking.rules.ColouredRules` — the paper's modified rules:
  an action locks in one of its own colours, and a WRITE lock additionally
  requires every existing WRITE lock on the object to carry the same colour.
- :class:`~repro.locking.semantic.SemanticRules` — type-specific locking:
  a request names an operation group and is blocked by every non-ancestor
  holder whose group the type's :class:`SemanticSpec` does not declare
  compatible.

The grant logic is a pure synchronous state machine driven through
callbacks, so the same table serves the threaded local runtime and the
discrete-event cluster simulator.
"""

from repro.locking.modes import LockMode
from repro.locking.owner import LockOwner, StubOwner
from repro.locking.lock import LockRecord
from repro.locking.request import LockRequest, RequestStatus
from repro.locking.rules import ColouredRules, ConventionalRules, LockRules
from repro.locking.semantic import SemanticRules, SemanticSpec
from repro.locking.table import LockTable
from repro.locking.registry import LockRegistry
from repro.locking.deadlock import cycle_through

__all__ = [
    "LockMode",
    "LockOwner",
    "StubOwner",
    "LockRecord",
    "LockRequest",
    "RequestStatus",
    "LockRules",
    "ConventionalRules",
    "ColouredRules",
    "SemanticRules",
    "SemanticSpec",
    "LockTable",
    "LockRegistry",
    "cycle_through",
]
