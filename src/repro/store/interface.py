"""The object-store contract.

A store maps object uids to committed state buffers, plus a shadow slot per
object for prepared-but-undecided states (Arjuna's "hidden" states).  The
commit protocols only ever move whole buffers, so a store never interprets
payloads — type information rides along for activation-time checking.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.errors import ObjectNotFound
from repro.util.uid import Uid


@dataclass(frozen=True)
class StoredState:
    """An opaque, immutable object state as kept by a store."""

    object_uid: Uid
    type_name: str
    payload: bytes
    #: a shadow's writer: the transaction whose log record it precedes
    owner: str = ""


class ObjectStore(ABC):
    """Uid -> committed state, with a shadow slot per uid."""

    # -- committed states ---------------------------------------------------

    @abstractmethod
    def read_committed(self, object_uid: Uid) -> StoredState:
        """Return the committed state; raise :class:`ObjectNotFound` if absent."""

    @abstractmethod
    def write_committed(self, state: StoredState) -> None:
        """Install a committed state, replacing any previous one."""

    @abstractmethod
    def remove(self, object_uid: Uid) -> bool:
        """Delete committed (and shadow) state; True if something existed."""

    @abstractmethod
    def contains(self, object_uid: Uid) -> bool:
        ...

    @abstractmethod
    def uids(self) -> Iterable[Uid]:
        """All uids with a committed state."""

    # -- shadow (uncommitted) states -------------------------------------------

    @abstractmethod
    def write_shadow(self, state: StoredState) -> None:
        """Stage an uncommitted state next to the committed one."""

    @abstractmethod
    def read_shadow(self, object_uid: Uid) -> Optional[StoredState]:
        ...

    @abstractmethod
    def commit_shadow(self, object_uid: Uid) -> bool:
        """Promote the shadow to committed; True if a shadow existed."""

    @abstractmethod
    def discard_shadow(self, object_uid: Uid) -> bool:
        """Drop the shadow; True if one existed."""


class DictBackedStore(ObjectStore):
    """Shared dict-backed implementation; subclasses define crash behaviour."""

    def __init__(self):
        self._committed: Dict[Uid, StoredState] = {}
        self._shadows: Dict[Uid, StoredState] = {}

    def read_committed(self, object_uid: Uid) -> StoredState:
        try:
            return self._committed[object_uid]
        except KeyError:
            raise ObjectNotFound(f"no committed state for {object_uid}") from None

    def write_committed(self, state: StoredState) -> None:
        self._committed[state.object_uid] = state

    def remove(self, object_uid: Uid) -> bool:
        existed = object_uid in self._committed
        self._committed.pop(object_uid, None)
        self._shadows.pop(object_uid, None)
        return existed

    def contains(self, object_uid: Uid) -> bool:
        return object_uid in self._committed

    def uids(self) -> Iterable[Uid]:
        return sorted(self._committed)

    def write_shadow(self, state: StoredState) -> None:
        self._shadows[state.object_uid] = state

    def read_shadow(self, object_uid: Uid) -> Optional[StoredState]:
        return self._shadows.get(object_uid)

    def commit_shadow(self, object_uid: Uid) -> bool:
        shadow = self._shadows.pop(object_uid, None)
        if shadow is None:
            return False
        self._committed[object_uid] = shadow
        return True

    def discard_shadow(self, object_uid: Uid) -> bool:
        return self._shadows.pop(object_uid, None) is not None
