"""Span-based distributed tracing.

A :class:`Span` is one timed unit of work (an action's lifetime, one RPC,
one server-side handler execution).  Spans form trees via ``parent_id`` and
share a ``trace_id`` — one trace per top-level action, stitched across
nodes by piggybacking a :class:`SpanContext` on cluster message payloads
(see :meth:`Tracer.inject` / :meth:`Tracer.extract`; the transport layer
carries it under the ``"_trace"`` payload key).

Ids are allocated from deterministic counters, never randomness, so traces
of a seeded cluster simulation are reproducible bit-for-bit.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: payload key the transport uses to carry a span context across the wire.
TRACE_KEY = "_trace"


@dataclass(frozen=True)
class SpanContext:
    """The portable identity of a span: enough to parent a remote child."""

    trace_id: str
    span_id: str

    def to_wire(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @staticmethod
    def from_wire(raw: Optional[Dict[str, Any]]) -> Optional["SpanContext"]:
        if not raw:
            return None
        return SpanContext(str(raw["trace_id"]), str(raw["span_id"]))


class Span:
    """One timed unit of work inside a trace."""

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "kind", "node", "start", "end", "attrs", "events")

    def __init__(self, tracer: "Tracer", trace_id: str, span_id: str,
                 parent_id: Optional[str], name: str, kind: str,
                 node: str, start: float):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind              # "action" | "client" | "server" | "internal"
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self.events: List[Tuple[float, str, Dict[str, Any]]] = []

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: Any) -> None:
        """A point-in-time annotation inside the span (e.g. a retransmit)."""
        self.events.append((self.tracer.now(), name, attrs))

    def finish(self, at: Optional[float] = None) -> "Span":
        """Idempotently close the span."""
        if self.end is None:
            self.end = at if at is not None else self.tracer.now()
            self.tracer._finished()
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
            "events": [
                {"tick": tick, "name": name, "attrs": dict(attrs)}
                for tick, name, attrs in self.events
            ],
        }

    def __repr__(self) -> str:
        state = "open" if self.end is None else f"{self.duration:g}"
        return f"<Span {self.name} [{self.span_id}] {state}>"


def _forget(*_span: Any) -> None:
    """What a tracer nobody asked to :meth:`~Tracer.retain` does with a
    span it started or saw finish."""


class Tracer:
    """Creates spans, and keeps them once asked to :meth:`retain`.

    ``tick_source`` provides timestamps (``lambda: kernel.now`` for the
    cluster; a logical counter otherwise).  The tracer is shared across
    simulated nodes — each span records which node it ran on — which is
    what a collector would see after export in a real deployment.

    Until :meth:`retain` is called :attr:`spans` stays empty: a span lives
    as long as its creator holds it (the history layer is what calls it on
    a hub).
    """

    def __init__(self, tick_source: Optional[Callable[[], float]] = None):
        self._tick_source = tick_source
        self._logical = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._mutex = threading.Lock()
        self.spans: List[Span] = []
        self.max_finished_spans: Optional[int] = None
        self.on_drop: Optional[Callable[[int], None]] = None
        self.dropped = 0
        self._finished_count = 0
        #: where a started / a finished span is reported; see :meth:`retain`
        self._started: Callable[[Span], None] = _forget
        self._finished: Callable[[], None] = _forget

    def retain(self, max_finished_spans: Optional[int] = None,
               on_drop: Optional[Callable[[int], None]] = None) -> None:
        """Keep every span started from now on in :attr:`spans`.

        ``max_finished_spans`` bounds retention for long soaks: once the
        number of *finished* spans exceeds the cap by half a cap (amortised
        batches, so finish stays O(1)), the oldest finished spans are
        evicted ring-style and counted in ``dropped`` / reported via
        ``on_drop``.  Runs that stay under the cap keep the span list — and
        therefore every dump — byte-identical to an unbounded tracer;
        eviction order is deterministic (insertion order), never randomised.
        """
        if max_finished_spans is not None and max_finished_spans < 1:
            raise ValueError(
                f"max_finished_spans must be >= 1, got {max_finished_spans}")
        self.max_finished_spans = max_finished_spans
        self.on_drop = on_drop
        self._started = self._keep
        self._finished = self._note_finished

    def now(self) -> float:
        if self._tick_source is not None:
            return self._tick_source()
        return float(next(self._logical))

    # -- span lifecycle ------------------------------------------------------

    def start_span(self, name: str, parent: Optional[Any] = None,
                   kind: str = "internal", node: str = "",
                   **attrs: Any) -> Span:
        """Open a span; ``parent`` is a Span, a SpanContext, or None.

        Without a parent the span roots a fresh trace.
        """
        with self._mutex:
            if isinstance(parent, (Span, SpanContext)):
                trace_id = parent.trace_id
                parent_id: Optional[str] = parent.span_id
            else:
                trace_id = f"t{next(self._trace_ids)}"
                parent_id = None
            span = Span(self, trace_id, f"s{next(self._span_ids)}",
                        parent_id, name, kind, node, self.now())
            self._started(span)
        span.attrs.update(attrs)
        return span

    # -- bounded retention ---------------------------------------------------

    def _keep(self, span: Span) -> None:
        self.spans.append(span)

    def _note_finished(self) -> None:
        """Called by :meth:`Span.finish`; evicts in amortised batches."""
        drop_count = 0
        with self._mutex:
            self._finished_count += 1
            cap = self.max_finished_spans
            if cap is not None:
                excess = self._finished_count - cap
                # batch evictions so each finish is amortised O(1), at the
                # cost of briefly retaining up to 1.5x the cap.
                if excess >= max(1, cap // 2):
                    drop_count = self._evict_locked(excess)
        if drop_count and self.on_drop is not None:
            self.on_drop(drop_count)

    def _evict_locked(self, count: int) -> int:
        """Drop the ``count`` oldest finished spans.  Caller holds the lock."""
        kept: List[Span] = []
        dropped = 0
        for span in self.spans:
            if dropped < count and span.finished:
                dropped += 1
                continue
            kept.append(span)
        self.spans = kept
        self._finished_count -= dropped
        self.dropped += dropped
        return dropped

    def drain_finished(self) -> List[Span]:
        """Remove and return every finished span (open spans stay).

        Segment rotation uses this to stream spans out while a soak is
        still running, keeping in-memory retention proportional to one
        segment rather than the whole horizon.
        """
        with self._mutex:
            finished = [span for span in self.spans if span.finished]
            self.spans = [span for span in self.spans if not span.finished]
            self._finished_count = 0
            return finished

    # -- context propagation -------------------------------------------------

    @staticmethod
    def inject(span: Optional[Span], payload: Dict[str, Any]) -> Dict[str, Any]:
        """Attach ``span``'s context to an outgoing message payload."""
        if span is not None:
            payload[TRACE_KEY] = span.context.to_wire()
        return payload

    @staticmethod
    def extract(payload: Dict[str, Any]) -> Optional[SpanContext]:
        """Recover the sender's span context from a message payload."""
        return SpanContext.from_wire(payload.get(TRACE_KEY))

    # -- queries -----------------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        with self._mutex:
            return [span for span in self.spans if span.finished]

    def trace(self, trace_id: str) -> List[Span]:
        with self._mutex:
            return [span for span in self.spans if span.trace_id == trace_id]

    def children_of(self, span: Span) -> List[Span]:
        with self._mutex:
            return [s for s in self.spans
                    if s.trace_id == span.trace_id
                    and s.parent_id == span.span_id]

    def snapshot(self) -> List[Span]:
        with self._mutex:
            return list(self.spans)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.snapshot()]

    def clear(self) -> None:
        with self._mutex:
            self.spans.clear()
            self._finished_count = 0
