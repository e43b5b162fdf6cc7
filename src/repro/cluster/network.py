"""The simulated message network.

Failure model (§2): messages may be lost, duplicated or delayed; corrupted
messages are assumed to be detected and dropped by checksums, so corruption
is folded into loss.  Nodes that are crashed or partitioned away receive
nothing — silently, as a real network gives no receipt.

Payloads are **copied at send time**: sender and receiver can never
share mutable state by accident, keeping the simulation honest about
distribution.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Set, Tuple

from repro.cluster.message import Message
from repro.errors import ClusterError
from repro.sim.kernel import Kernel
from repro.util.rng import SplitRandom


#: wire values that cannot change after the send, so are shared
_PLAIN = frozenset((str, int, float, bool, type(None), bytes))


def copy_wire(value: Any) -> Any:
    """A copy of ``value`` sharing no mutable state with it.

    What crosses the wire is plain data (``message.py`` encodes colours,
    uids and ancestry as such): ``dict``s, ``list``s and ``tuple``s of
    exactly the ``_PLAIN`` types are rebuilt directly, a tuple staying a
    tuple; a value of any other type is deep-copied.
    """
    kind = type(value)
    if kind is dict:
        return {(key if type(key) in _PLAIN else copy_wire(key)):
                (item if type(item) in _PLAIN else copy_wire(item))
                for key, item in value.items()}
    if kind is list:
        return [item if type(item) in _PLAIN else copy_wire(item)
                for item in value]
    if kind is tuple:
        return tuple([item if type(item) in _PLAIN else copy_wire(item)
                      for item in value])
    if kind in _PLAIN:
        return value
    return copy.deepcopy(value)


@dataclass
class NetworkConfig:
    """Tunable fault injection for the network."""

    min_delay: float = 0.5
    max_delay: float = 2.0
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0

    def validate(self) -> None:
        if self.min_delay < 0 or self.max_delay < self.min_delay:
            raise ClusterError("invalid delay bounds")
        for p in (self.drop_probability, self.duplicate_probability):
            if not 0.0 <= p < 1.0:
                raise ClusterError("probabilities must be in [0, 1)")


class Network:
    """Message delivery between named endpoints."""

    def __init__(self, kernel: Kernel, rng: SplitRandom,
                 config: Optional[NetworkConfig] = None,
                 observability=None):
        self.kernel = kernel
        #: delay draws (one per delivered copy)
        self.rng = rng.split("network")
        #: drop/duplicate decision draws — a *separate* stream consuming
        #: exactly two draws per send, so the Nth message's fate depends
        #: only on (seed, N), never on how many copies earlier messages
        #: produced or on the other probability's setting.
        self.fault_rng = rng.split("network.faults")
        self.config = config or NetworkConfig()
        self.config.validate()
        self._endpoints: Dict[str, Callable[[Message], None]] = {}
        self._up: Dict[str, bool] = {}
        self._partitions: Set[frozenset] = set()
        self._msg_ids = itertools.count(1)
        # observability: aggregate counts plus per message kind counts, which
        # a hub's registry pulls as ``messages_<fate>_total{kind}`` counters
        # (nothing is reported per message)
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        self.duplicated_count = 0
        #: fate -> message kind -> messages
        self.by_kind: Dict[str, Dict[str, int]] = {
            "sent": {}, "delivered": {}, "dropped": {}}
        if observability is not None:
            observability.metrics.collect(self._kind_counts)

    # -- topology --------------------------------------------------------------

    def attach(self, name: str, deliver: Callable[[Message], None]) -> None:
        """Register an endpoint; ``deliver`` is called for each arriving message."""
        self._endpoints[name] = deliver
        self._up[name] = True

    def set_up(self, name: str, up: bool) -> None:
        """Mark an endpoint reachable/unreachable (node crash/restart)."""
        if name not in self._endpoints:
            raise ClusterError(f"unknown endpoint {name}")
        self._up[name] = up

    def partition(self, a: str, b: str) -> None:
        """Sever the link between two endpoints (both directions)."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._partitions.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        self._partitions.clear()

    def is_reachable(self, src: str, dst: str) -> bool:
        return (
            self._up.get(dst, False)
            and frozenset((src, dst)) not in self._partitions
        )

    # -- sending -----------------------------------------------------------------

    def fresh_msg_id(self) -> int:
        return next(self._msg_ids)

    def send(self, message: Message) -> None:
        """Fire-and-forget: schedule delivery, subject to the fault model."""
        self.sent_count += 1
        sent = self.by_kind["sent"]
        sent[message.kind] = sent.get(message.kind, 0) + 1
        if message.dst not in self._endpoints:
            raise ClusterError(f"message to unknown endpoint {message.dst}")
        # Both draws happen unconditionally: the old ``elif`` consumed the
        # duplicate draw only when the drop draw failed, which entangled
        # the two probabilities' RNG streams (changing one config knob
        # reshuffled the other's outcomes under the same seed).  A dropped
        # message still cannot be duplicated — the drop decision wins —
        # but its duplicate draw is consumed regardless.
        drop_roll = self.fault_rng.random()
        duplicate_roll = self.fault_rng.random()
        copies = 1
        if drop_roll < self.config.drop_probability:
            copies = 0
        elif duplicate_roll < self.config.duplicate_probability:
            copies = 2
            self.duplicated_count += 1
        if copies == 0:
            self._dropped(message)
            return
        for _ in range(copies):
            delay = self.rng.uniform(self.config.min_delay, self.config.max_delay)
            # Payload copied at send time: the receiver sees the message as
            # it was when sent, never a later mutation.
            frozen = Message(
                src=message.src, dst=message.dst, kind=message.kind,
                payload=copy_wire(message.payload),
                msg_id=message.msg_id, reply_to=message.reply_to,
            )
            self.kernel.schedule(delay, self._deliver, frozen)

    def _deliver(self, message: Message) -> None:
        # Reachability is evaluated at delivery time: a message in flight
        # to a node that crashes meanwhile is lost, as on a real network.
        if not self.is_reachable(message.src, message.dst):
            self._dropped(message)
            return
        self.delivered_count += 1
        delivered = self.by_kind["delivered"]
        delivered[message.kind] = delivered.get(message.kind, 0) + 1
        self._endpoints[message.dst](message)

    def _dropped(self, message: Message) -> None:
        self.dropped_count += 1
        dropped = self.by_kind["dropped"]
        dropped[message.kind] = dropped.get(message.kind, 0) + 1

    # -- metrics -------------------------------------------------------------------

    def _kind_counts(self) -> Iterator[Tuple[str, Dict[str, str], int]]:
        """The per-kind counts as counter rows (a registry collector)."""
        for fate, counts in self.by_kind.items():
            name = f"messages_{fate}_total"
            for kind, count in counts.items():
                yield name, {"kind": kind}, count

    def stats(self) -> Dict[str, int]:
        return {
            "sent": self.sent_count,
            "delivered": self.delivered_count,
            "dropped": self.dropped_count,
            "duplicated": self.duplicated_count,
        }
