"""repro — multi-coloured actions for fault-tolerant distributed applications.

A full reproduction of Shrivastava & Wheater, "Implementing Fault-Tolerant
Distributed Applications Using Objects and Multi-Coloured Actions"
(ICDCS 1990): nested atomic actions over persistent objects, the coloured
locking rules, the serializing / glued / (n-level) independent action
structures with automatic colour assignment, a deterministic cluster
simulator with two-phase commit and crash recovery, object replication,
and the paper's example applications (distributed make, meeting
scheduling, bulletin boards, billing, name service).

Quickstart::

    from repro import LocalRuntime, Counter

    runtime = LocalRuntime()
    counter = Counter(runtime, value=0)
    with runtime.top_level():
        counter.increment(5)       # committed and stable
    assert counter.value == 5

See README.md for the architecture tour, DESIGN.md for the paper mapping,
and EXPERIMENTS.md for the per-figure reproduction record.
"""

from repro.actions.action import Action
from repro.actions.status import ActionStatus, Outcome
from repro.colours.colour import Colour, ColourAllocator
from repro.errors import (
    ActionAborted,
    ColourError,
    CommitError,
    DeadlockDetected,
    InvalidActionState,
    LockRefused,
    LockTimeout,
    NoCurrentAction,
    ObjectNotFound,
    ReproError,
    RpcTimeout,
)
from repro.locking.modes import LockMode
from repro.objects.lockable import LockableObject, operation
from repro.objects.state import ObjectState
from repro.objects.state_manager import StateManager
from repro.runtime.context import current_action
from repro.runtime.runtime import AMBIENT, LocalRuntime
from repro.stdobjects import (
    Account,
    CommutingCounter,
    Counter,
    Diary,
    DiarySlot,
    Directory,
    FifoQueue,
    FileObject,
    Register,
)
from repro.structures import (
    AsyncIndependent,
    CompensationScope,
    GluedGroup,
    SerializingAction,
    independence_markers,
    independent_relative_to,
    independent_top_level,
)

__version__ = "1.0.0"

__all__ = [
    # runtime and actions
    "LocalRuntime",
    "AMBIENT",
    "Action",
    "ActionStatus",
    "Outcome",
    "current_action",
    "Colour",
    "ColourAllocator",
    "LockMode",
    # objects
    "StateManager",
    "LockableObject",
    "operation",
    "ObjectState",
    "Counter",
    "Register",
    "Account",
    "CommutingCounter",
    "Directory",
    "FifoQueue",
    "FileObject",
    "Diary",
    "DiarySlot",
    # structures
    "SerializingAction",
    "GluedGroup",
    "independent_top_level",
    "AsyncIndependent",
    "independence_markers",
    "independent_relative_to",
    "CompensationScope",
    # errors
    "ReproError",
    "ActionAborted",
    "InvalidActionState",
    "ColourError",
    "CommitError",
    "LockRefused",
    "LockTimeout",
    "DeadlockDetected",
    "NoCurrentAction",
    "ObjectNotFound",
    "RpcTimeout",
]
