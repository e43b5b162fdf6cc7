"""The observability event bus.

Instrumentation points publish small structured :class:`ObsEvent`s; any
number of subscribers consume them — the invariant auditor, the lock
hold-time tracker, the flight recorder and the postmortem engine are all
subscribers over this one stream.  Publishing is synchronous and
exception-isolated: a failing subscriber never breaks the publisher, but
it is never silent either — the bus keeps the first exception of each
failing subscriber (:attr:`EventBus.errors`) and reports every one to its
``on_error`` callback, so "the auditor found nothing" cannot mean "the
auditor crashed on the first event".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


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

    def __init__(self, on_error: Optional[Callable[[str], None]] = None):
        self._mutex = threading.Lock()
        self._subscribers: List[Subscriber] = []
        #: called with the subscriber's name each time one raises
        self._on_error = on_error
        #: subscriber name -> the first exception it raised
        self.errors: Dict[str, BaseException] = {}

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
            except Exception as error:
                # Observability must never take the system down with it,
                # but a dead subscriber must not pass for a quiet one.
                name = getattr(subscriber, "__qualname__", repr(subscriber))
                with self._mutex:
                    self.errors.setdefault(name, error)
                if self._on_error is not None:
                    self._on_error(name)

    def emit(self, tick: float, kind: str, **labels: Any) -> ObsEvent:
        event = ObsEvent(tick=tick, kind=kind, labels=labels)
        self.publish(event)
        return event
