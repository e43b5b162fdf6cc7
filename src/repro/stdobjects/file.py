"""A simulated file with content and a logical timestamp, for make (§4(iv)).

"Each file has a timestamp associated with it, which is updated
automatically every time the file is changed."  Timestamps here are logical
instants supplied by the caller (simulated time or a logical clock), so
make's consistency rule — a target is consistent if it is newer than all
its prerequisites — is fully deterministic.
"""

from __future__ import annotations

from typing import ClassVar

from repro.locking.modes import LockMode
from repro.objects.lockable import LockableObject, operation
from repro.objects.state import ObjectState


class FileObject(LockableObject):
    """name + content + timestamp; writes bump the timestamp."""

    type_name: ClassVar[str] = "file"

    def __init__(self, runtime, name: str = "", content: str = "",
                 timestamp: float = 0.0, uid=None, persist: bool = True):
        self.name = name
        self.content = content
        self.timestamp = float(timestamp)
        super().__init__(runtime, uid=uid, persist=persist)

    def save_state(self, state: ObjectState) -> None:
        state.pack_string(self.name)
        state.pack_string(self.content)
        state.pack_float(self.timestamp)

    def restore_state(self, state: ObjectState) -> None:
        self.name = state.unpack_string()
        self.content = state.unpack_string()
        self.timestamp = state.unpack_float()

    # -- operations -----------------------------------------------------------

    @operation(LockMode.READ)
    def read(self) -> str:
        return self.content

    @operation(LockMode.READ)
    def stat(self) -> float:
        """The file's timestamp (make's phase (ii)/(iii) reads)."""
        return self.timestamp

    @operation(LockMode.WRITE)
    def write(self, content: str, timestamp: float) -> None:
        self.content = content
        self.timestamp = float(timestamp)

    @operation(LockMode.WRITE)
    def touch(self, timestamp: float) -> None:
        self.timestamp = float(timestamp)
