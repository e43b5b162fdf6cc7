"""Grant rules: conventional (Moss) and coloured (§5.2).

A rule set answers three questions for the one
:class:`~repro.locking.table.LockTable`:

- :meth:`LockRules.validate` — is the request *well-formed* (outright
  refusal, independent of contention)?  Coloured systems refuse requests in
  a colour the requester does not possess.
- :meth:`LockRules.blockers` — which held records currently prevent the
  grant?  An empty answer means the request may be granted now.
- :meth:`LockRules.join` — when are two grants to one owner in one colour
  a single record?

Every rule set treats ancestry inclusively (an action never blocks itself),
which is what makes lock retention, upgrades and re-acquisition work.  The
two here lock by data mode; type-specific locking by operation group is a
third, :class:`~repro.locking.semantic.SemanticRules`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from repro.locking.lock import LockRecord
from repro.locking.modes import LockMode, Mode
from repro.locking.owner import is_ancestor
from repro.locking.request import LockRequest


def foreign_colour(request: LockRequest) -> Optional[str]:
    """The refusal of a request in a colour its owner does not possess."""
    if request.colour in request.owner.colours:
        return None
    return (
        f"action {request.owner.uid} does not possess colour "
        f"{request.colour} (has: {sorted(str(c) for c in request.owner.colours)})"
    )


def not_a_data_mode(request: LockRequest) -> Optional[str]:
    """The refusal of an operation-group request on an object locked by
    data modes.  Modes arrive off the wire, so this is input validation."""
    if isinstance(request.mode, LockMode):
        return None
    return (
        f"{request.object_uid} is locked by data modes "
        f"({', '.join(mode.value for mode in LockMode)}), not by "
        f"operation group {request.mode!r}"
    )


class LockRules(ABC):
    """Strategy interface for grant decisions."""

    @abstractmethod
    def validate(self, request: LockRequest) -> Optional[str]:
        """Return a refusal reason if the request is ill-formed, else None."""

    @abstractmethod
    def blockers(self, request: LockRequest, holders: List[LockRecord]) -> List[LockRecord]:
        """Records among ``holders`` that prevent granting ``request`` now."""

    def may_grant(self, request: LockRequest, holders: List[LockRecord]) -> bool:
        return not self.blockers(request, holders)

    def join(self, held: Mode, mode: Mode) -> Optional[Mode]:
        """The mode of the one record covering both a record held in
        ``held`` and a grant of ``mode`` to the same owner in the same
        colour, or None when the two stay separate records.

        Data modes are totally ordered, so the stronger absorbs the weaker:
        a result equal to ``held`` is a re-acquisition, anything else an
        upgrade in place.
        """
        return held if held.strength >= mode.strength else mode


class ConventionalRules(LockRules):
    """Moss-style nested atomic action rules (§5.2, first list).

    - READ: every holder either holds READ or is an ancestor of the
      requester.
    - WRITE / EXCLUSIVE_READ: every holder is an ancestor of the requester.

    Colours are carried on records but ignored by the rules; a conventional
    system is exactly a coloured system in which every action has the same
    single colour (§5.1), and the reduction is tested property-style.
    """

    def validate(self, request: LockRequest) -> Optional[str]:
        return not_a_data_mode(request)

    def blockers(self, request: LockRequest, holders: List[LockRecord]) -> List[LockRecord]:
        if request.mode is LockMode.READ:
            return [
                record for record in holders
                if record.mode.is_exclusive and not is_ancestor(record.owner, request.owner)
            ]
        return [
            record for record in holders
            if not is_ancestor(record.owner, request.owner)
        ]


class ColouredRules(LockRules):
    """The paper's coloured locking rules (§5.2, second list).

    - An action may only request locks in colours it possesses.
    - WRITE in colour *a*: every holder (any colour, any mode) is an
      ancestor, **and** every WRITE record on the object is coloured *a* —
      so write responsibility for an object is unambiguous at commit time.
    - READ: as conventional (colour-free).
    - EXCLUSIVE_READ in colour *a*: every holder is an ancestor.

    These rules reproduce the worked examples of §§5.3–5.6 exactly (see the
    fig. 10–15 tests and benchmarks).
    """

    def validate(self, request: LockRequest) -> Optional[str]:
        return not_a_data_mode(request) or foreign_colour(request)

    def blockers(self, request: LockRequest, holders: List[LockRecord]) -> List[LockRecord]:
        if request.mode is LockMode.READ:
            return [
                record for record in holders
                if record.mode.is_exclusive and not is_ancestor(record.owner, request.owner)
            ]
        blocking = [
            record for record in holders
            if not is_ancestor(record.owner, request.owner)
        ]
        if request.mode is LockMode.WRITE:
            blocking.extend(
                record for record in holders
                if record.mode is LockMode.WRITE
                and record.colour != request.colour
                and record not in blocking
            )
        return blocking
