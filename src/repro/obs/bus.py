"""The observability event bus.

Instrumentation points publish small structured :class:`ObsEvent`s; any
number of subscribers consume them — the invariant auditor, the lock
hold-time tracker, the flight recorder and the postmortem engine are all
subscribers over this one stream.  A subscriber may declare the event
kinds it reads (``subscribe(consume, kinds=...)``) and is then called for
those only; one that retains the stream (the auditor, the flight recorder)
subscribes unfiltered.  Publishing is synchronous, takes no lock and is
exception-isolated: a failing subscriber never breaks the publisher, but
it is never silent either — the bus keeps the first exception of each
failing subscriber (:attr:`EventBus.errors`) and reports every one to its
``on_error`` callback, so "the auditor found nothing" cannot mean "the
auditor crashed on the first event".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Tuple)


@dataclass
class ObsEvent:
    """One observed occurrence: a value, shared by every subscriber.

    Slots and a plain ``__init__`` rather than ``frozen=True`` (whose
    ``__init__`` is three ``object.__setattr__`` calls): one is built per
    report and the auditor retains every one.
    """

    __slots__ = ("tick", "kind", "labels")

    tick: float
    kind: str                          # e.g. "action.begin", "lock.granted"
    labels: Dict[str, Any]

    def label(self, key: str, default: Any = None) -> Any:
        return self.labels.get(key, default)


Subscriber = Callable[[ObsEvent], None]


class EventBus:
    """Synchronous fan-out of ObsEvents to subscribers (thread-safe)."""

    def __init__(self, on_error: Optional[Callable[[str], None]] = None):
        self._mutex = threading.Lock()
        #: (subscriber, the kinds it reads or None for all), in
        #: subscription order
        self._subscriptions: List[
            Tuple[Subscriber, Optional[FrozenSet[str]]]] = []
        #: what :meth:`publish` reads: (kind -> its subscribers, the
        #: subscribers of every kind nobody named), each in subscription
        #: order.  Replaced whole under the mutex, never mutated.
        self._routes: Tuple[Dict[str, Tuple[Subscriber, ...]],
                            Tuple[Subscriber, ...]] = ({}, ())
        #: called with the subscriber's name each time one raises
        self._on_error = on_error
        #: subscriber name -> the first exception it raised
        self.errors: Dict[str, BaseException] = {}

    def subscribe(self, subscriber: Subscriber,
                  kinds: Optional[Iterable[str]] = None) -> Subscriber:
        """Call ``subscriber`` for every event, or only for those whose
        kind is in ``kinds``; takes effect from the next event published."""
        with self._mutex:
            self._subscriptions.append(
                (subscriber, None if kinds is None else frozenset(kinds)))
            self._reroute()
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        with self._mutex:
            for index, (subscribed, _kinds) in enumerate(self._subscriptions):
                if subscribed == subscriber:
                    del self._subscriptions[index]
                    self._reroute()
                    break

    def _reroute(self) -> None:
        """Rebuild the routing table.  Caller holds the mutex."""
        def readers(kind: Optional[str]) -> Tuple[Subscriber, ...]:
            return tuple(subscriber
                         for subscriber, kinds in self._subscriptions
                         if kinds is None or kind in kinds)

        named = set().union(*(kinds for _, kinds in self._subscriptions
                              if kinds is not None))
        self._routes = ({kind: readers(kind) for kind in named},
                        readers(None))

    def publish(self, event: ObsEvent) -> None:
        by_kind, unfiltered = self._routes
        for subscriber in by_kind.get(event.kind, unfiltered):
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
        event = ObsEvent(tick, kind, labels)
        self.publish(event)
        return event
