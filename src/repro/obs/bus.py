"""The observability event bus.

Instrumentation points publish small structured :class:`ObsEvent`s; any
number of subscribers consume them — the reconstructed world under the
invariant auditor and the postmortem engine, the history layer and the
flight recorder are all subscribers over this one stream.  A subscriber
may declare the event kinds it reads (``subscribe(consume, kinds=...)``)
and is then called for those only; one that retains the stream (the
history layer, the flight recorder) subscribes unfiltered.  An event of
a kind nobody reads is never built (:meth:`EventBus.emit`); every event
that is published carries its sequence number in the stream.  Publishing
is synchronous, takes no lock and is exception-isolated: a failing
subscriber never breaks the publisher, but it is never silent either —
the bus keeps the first exception of each failing subscriber
(:attr:`EventBus.errors`) and reports every one to its ``on_error``
callback, so "the auditor found nothing" cannot mean "the auditor
crashed on the first event".
"""

from __future__ import annotations

import itertools
import threading
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Tuple)


class ObsEvent:
    """One observed occurrence: a value, shared by every subscriber.

    Slots and a plain ``__init__``: one is built per report that has a
    reader and the history layer retains every one.
    """

    __slots__ = ("tick", "kind", "labels", "seq")

    def __init__(self, tick: float, kind: str, labels: Dict[str, Any],
                 seq: int = 0):
        self.tick = tick
        self.kind = kind               # e.g. "action.begin", "lock.granted"
        self.labels = labels
        #: its place in the stream, stamped by :meth:`EventBus.publish` (a
        #: replay carries the number the dump recorded)
        self.seq = seq

    def __repr__(self) -> str:
        return (f"ObsEvent(tick={self.tick!r}, kind={self.kind!r}, "
                f"labels={self.labels!r}, seq={self.seq!r})")

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
        #: sequence numbers of the published events, from 1
        self._seqs = itertools.count(1)

    def subscribe(self, subscriber: Subscriber,
                  kinds: Optional[Iterable[str]] = None) -> Subscriber:
        """Call ``subscriber`` for every event, or only for those whose
        kind is in ``kinds``; takes effect from the next event published."""
        with self._mutex:
            by_kind, unfiltered = self._routes
            if kinds is None:
                self._routes = (
                    {kind: readers + (subscriber,)
                     for kind, readers in by_kind.items()},
                    unfiltered + (subscriber,))
            else:
                kinds = frozenset(kinds)
                by_kind = dict(by_kind)
                for kind in kinds:
                    by_kind[kind] = by_kind.get(kind, unfiltered) + (
                        subscriber,)
                self._routes = (by_kind, unfiltered)
            self._subscriptions.append((subscriber, kinds))
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        with self._mutex:
            for index, (subscribed, _kinds) in enumerate(self._subscriptions):
                if subscribed == subscriber:
                    del self._subscriptions[index]
                    self._reroute()
                    break

    def _reroute(self) -> None:
        """Rebuild the routing table :meth:`subscribe` extends in place of
        a rebuild (a hub subscribes its World on every construction).
        Caller holds the mutex."""
        def readers(kind: Optional[str]) -> Tuple[Subscriber, ...]:
            return tuple(subscriber
                         for subscriber, kinds in self._subscriptions
                         if kinds is None or kind in kinds)

        named = set().union(*(kinds for _, kinds in self._subscriptions
                              if kinds is not None))
        self._routes = ({kind: readers(kind) for kind in named},
                        readers(None))

    def publish(self, event: ObsEvent) -> None:
        event.seq = next(self._seqs)
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

    def emit(self, tick: float, kind: str, **labels: Any) -> None:
        """Publish an event of ``kind``, if anybody reads that kind."""
        by_kind, unfiltered = self._routes
        if by_kind.get(kind, unfiltered):
            self.publish(ObsEvent(tick, kind, labels))
