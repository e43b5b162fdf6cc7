"""Lock modes.

The paper uses three modes (§5.2): READ (shared), WRITE (fully exclusive)
and EXCLUSIVE_READ — an exclusive read that exists *purely* so a coloured
system can pin objects for later constituents without claiming the right to
modify them (serializing/glued control actions hold these).

An object with type-specific concurrency control (§2) is locked in one of
its type's *operation groups* instead; a request's or a record's ``mode``
is therefore a :class:`LockMode` or a group name (``str``), and the helpers
below are the only places that tell the two apart.
"""

from __future__ import annotations

import enum
from typing import Union


class LockMode(enum.Enum):
    """The mode in which a lock is requested or held."""

    READ = "read"
    EXCLUSIVE_READ = "exclusive_read"
    WRITE = "write"

    @property
    def is_exclusive(self) -> bool:
        """True for modes that exclude non-ancestor holders entirely."""
        return self is not LockMode.READ

    @property
    def strength(self) -> int:
        """Total order used when merging locks: READ < EXCLUSIVE_READ < WRITE."""
        return _STRENGTH[self]


_STRENGTH = {
    LockMode.READ: 0,
    LockMode.EXCLUSIVE_READ: 1,
    LockMode.WRITE: 2,
}

#: what a lock is requested or held in: a data mode or an operation group
Mode = Union[LockMode, str]

#: reserved operation group, incompatible with every group including itself:
#: how a control action pins an object locked by groups (EXCLUSIVE_READ's
#: counterpart — it claims no operation, it only keeps others out)
RETAIN_GROUP = "__retain__"


def mode_label(mode: Mode) -> str:
    """The name ``mode`` goes by in events, snapshots and on the wire."""
    return mode.value if isinstance(mode, LockMode) else mode


def mode_from_label(label: str) -> Mode:
    """Inverse of :func:`mode_label`: a label that names no data mode is an
    operation group (whether the object has such a group is for its rule
    set to say)."""
    return _BY_LABEL.get(label, label)


_BY_LABEL = {mode.value: mode for mode in LockMode}


def companion_mode(mode: Mode) -> Mode:
    """The §5.3 companion rule: how a lock taken in a data colour is
    shadowed in the control colour so the control action retains the object.

    READ stays READ (later constituents may still read), the exclusive data
    modes become EXCLUSIVE_READ (pinned, but no right to modify), and any
    operation group becomes the reserved :data:`RETAIN_GROUP`.
    """
    if isinstance(mode, LockMode):
        return LockMode.READ if mode is LockMode.READ else LockMode.EXCLUSIVE_READ
    return RETAIN_GROUP
