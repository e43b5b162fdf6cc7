"""The observability event bus.

Instrumentation points publish small structured :class:`ObsEvent`s; any
number of subscribers consume them — the invariant auditor, the lock
hold-time tracker, the flight recorder and the postmortem engine are all
subscribers over this one stream.  Publishing is synchronous and
exception-isolated: a failing subscriber never breaks the publisher.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List


@dataclass(frozen=True)
class ObsEvent:
    """One observed occurrence."""

    tick: float
    kind: str                          # e.g. "action.begin", "lock.granted"
    labels: Dict[str, Any] = field(default_factory=dict)

    def label(self, key: str, default: Any = None) -> Any:
        return self.labels.get(key, default)


Subscriber = Callable[[ObsEvent], None]


class EventBus:
    """Synchronous fan-out of ObsEvents to subscribers (thread-safe)."""

    def __init__(self):
        self._mutex = threading.Lock()
        self._subscribers: List[Subscriber] = []

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        with self._mutex:
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        with self._mutex:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    def publish(self, event: ObsEvent) -> None:
        with self._mutex:
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            try:
                subscriber(event)
            except Exception:
                # Observability must never take the system down with it.
                pass

    def emit(self, tick: float, kind: str, **labels: Any) -> ObsEvent:
        event = ObsEvent(tick=tick, kind=kind, labels=labels)
        self.publish(event)
        return event
