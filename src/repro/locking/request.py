"""Lock requests and their lifecycle.

A request is asynchronous: the table either grants it immediately or queues
it; on grant/refusal/cancellation the request's callback fires exactly once.
Blocking semantics (threads, simulated processes) are layered on top by the
runtimes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.colours.colour import Colour
from repro.locking.modes import Mode
from repro.locking.owner import LockOwner
from repro.util.uid import Uid


class RequestStatus(enum.Enum):
    PENDING = "pending"
    GRANTED = "granted"
    REFUSED = "refused"
    CANCELLED = "cancelled"


#: callback(request) — invoked exactly once when the request leaves PENDING.
CompletionCallback = Callable[["LockRequest"], None]


@dataclass
class LockRequest:
    """A pending or settled request to lock one object."""

    request_uid: Uid
    owner: LockOwner
    object_uid: Uid
    mode: Mode
    colour: Colour
    on_complete: Optional[CompletionCallback] = None
    status: RequestStatus = RequestStatus.PENDING
    #: human-readable refusal reason (rule violation, deadlock victim, ...)
    refusal: str = ""
    #: failure to raise in the waiter, when refusal carries an exception
    error: Optional[BaseException] = field(default=None, repr=False)

    @property
    def settled(self) -> bool:
        return self.status is not RequestStatus.PENDING

    def _finish(self, status: RequestStatus, refusal: str = "",
                error: Optional[BaseException] = None) -> None:
        if self.settled:
            return
        self.status = status
        self.refusal = refusal
        self.error = error
        if self.on_complete is not None:
            self.on_complete(self)

    def grant(self) -> None:
        self._finish(RequestStatus.GRANTED)

    def refuse(self, reason: str, error: Optional[BaseException] = None) -> None:
        self._finish(RequestStatus.REFUSED, refusal=reason, error=error)

    def cancel(self, reason: str = "cancelled") -> None:
        self._finish(RequestStatus.CANCELLED, refusal=reason)
